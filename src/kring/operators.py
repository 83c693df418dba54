"""Operator calculus on a bigraded model.

Covers the multiplication-by-k pullback and pushforward families (diagonal
on the bigraded basis, with exponents g+p-q and g-p+q on K^p_q), the
Fourier operator and its inverse, the convolution product the Fourier
operator transports from the ordinary one, the two augmentation
functionals, and the universal relations of the pushforward family:

* the coefficients of the alternating-binomial expansion of the identity
  in terms of the pushforwards by 0, -1, ..., -2g, and
* the exact resolution of any (k)-pushforward as a combination of the
  pushforwards by 0 .. 2g, via the invertible power matrix (m^k).

The module returns values only: the identities these operators satisfy
(the expansion of the identity, the composite of two twisted Fourier
transforms, ...) are checked by the statements of ``kring.reports``.

Operators are materialised once per model and cached; the caches are
read-only after construction, so concurrent readers are safe.

The convolution product never runs the three Fourier passes it is defined
by.  Its structure constants F^-1(F e_i . F e_j) are computed once per
model, on first use, into ``ModelAlgebra.star_table``; a star product is
then one sparse bilinear multiply, the same integer kernel as the ordinary
product.  The table is an attribute of the model, not a module-level
cache, so it is freed with the model.  A diagonal operator stores its
eigenvalues as integer numerators over one denominator, built as integer
powers (negative weights in the denominator), so ``apply`` scales an
``Element``'s numerators, ``compose`` multiplies integers, and operators
compare by their numerators and denominators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .errors import DomainError, StructureError
from .linalg import _rref_rows, vandermonde_matrix
from .model import FOREIGN, Element, ModelAlgebra


class DiagonalOperator(NamedTuple):
    """A model operator acting diagonally on the bigraded basis, with
    eigenvalue nums[i] / den on e_i, in lowest terms like an ``Element``."""

    model: ModelAlgebra
    nums: tuple[int, ...]
    den: int

    @classmethod
    def of_powers(cls, model: ModelAlgebra, k: int, weights) -> "DiagonalOperator":
        """Eigenvalue k^w on each basis vector of weight w, as integer
        powers (0^0 = 1); negative weights go into the denominator."""
        low = min(0, *weights)
        return cls._reduced(model, [k ** (w - low) for w in weights], k**-low)

    @classmethod
    def _reduced(cls, model: ModelAlgebra, nums, den: int) -> "DiagonalOperator":
        d = Element(model, nums, den)
        return cls(model, d.nums, d.den)

    @property
    def eigenvalues(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def apply(self, x: Element) -> Element:
        if x.model is not self.model:
            raise StructureError(FOREIGN)
        return Element(self.model, [a * n for a, n in zip(self.nums, x.nums)], self.den * x.den)

    def respects(self, i: int, j: int, entries) -> bool:
        """Whether D(e_i e_j) = D e_i . D e_j on the table entry (i, j) with
        outputs ``entries``: lambda_k = lambda_i lambda_j for every k."""
        nums, den = self.nums, self.den
        return all(nums[k] * den == nums[i] * nums[j] for k, _ in entries)

    def compose(self, other: "DiagonalOperator") -> "DiagonalOperator":
        return self._reduced(
            self.model, [a * b for a, b in zip(self.nums, other.nums)], self.den * other.den
        )


@lru_cache(maxsize=None)
def pullback(model: ModelAlgebra, k: int) -> DiagonalOperator:
    """Pullback along multiplication by k: eigenvalue k^{g+p-q} on K^p_q.

    With the 0^0 = 1 convention, pullback(0) is the projector onto the unit
    line scaled by rank: x |-> rank(x) * 1.
    """
    g = model.g
    return DiagonalOperator.of_powers(model, k, [g + p - q for (p, q) in model.bidegrees])


@lru_cache(maxsize=None)
def pushforward(model: ModelAlgebra, k: int) -> DiagonalOperator:
    """Pushforward along multiplication by k: eigenvalue k^{g-p+q} on K^p_q.

    pushforward(0) is x |-> euler_char(x) * origin class; for k != 0 the
    operator is invertible.
    """
    g = model.g
    return DiagonalOperator.of_powers(model, k, [g - p + q for (p, q) in model.bidegrees])


def fourier(x: Element) -> Element:
    """Apply the model's Fourier operator (row i = image of basis vector i)."""
    return x.model.fourier(x)


def fourier_inverse(x: Element) -> Element:
    return x.model.fourier_inverse(x)


def star_product(x: Element, y: Element) -> Element:
    """Convolution product: the ordinary product conjugated by Fourier,
    F^-1(F x . F y), read off the model's precomputed ``star_table``."""
    return x.model.star_multiply(x, y)


def rank(x: Element) -> Fraction:
    """Coefficient on the unit line K^0_g; multiplicative for the ordinary product."""
    return x.coefficient(x.model.unit_index)


def euler_char(x: Element) -> Fraction:
    """Coefficient on the origin line K^g_0; multiplicative for the convolution."""
    return x.coefficient(x.model.star_unit_index)


def identity_expansion_coefficients(g: int) -> tuple[int, ...]:
    """Coefficients (-1)^m C(2g+1, m+1) of the pushforwards by -m, m = 0..2g,
    in the expansion of the identity."""
    if g < 1:
        raise DomainError("g must be at least 1")
    return tuple((-1) ** m * comb(2 * g + 1, m + 1) for m in range(2 * g + 1))


class PushforwardRelation(NamedTuple):
    """(k)-pushforward written in the basis of pushforwards by 0 .. 2g."""

    k: int
    g: int
    coefficients: tuple[Fraction, ...]

    @property
    def integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coefficients)


def pushforward_relation(k: int, g: int) -> PushforwardRelation:
    """Solve the (2g+1)-node power system sum_m c_m m^d = k^d exactly.

    The system matrix is the invertible (m^d) matrix, so the coefficients
    are unique; whether they are integers is reported, not assumed.
    """
    # equation d is column d of the power matrix, then k^d: the integer
    # rows [m^d | k^d], whose RREF holds the solution in its last column
    columns = zip(*vandermonde_matrix(g))
    system = [[*col, k**d] for d, col in enumerate(columns)]
    reduced, _ = _rref_rows(system, 2 * g + 2)
    return PushforwardRelation(k, g, tuple(Fraction(nums[-1], den) for nums, den in reduced))
