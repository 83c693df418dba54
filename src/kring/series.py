"""Truncated formal power series with exact coefficients.

A ``TruncatedSeries`` keeps coefficients for t^0 .. t^N and is closed under
addition, Cauchy products, exponential, logarithm, and the substitution
t -> t/(1-t).  Coefficients may be ``Fraction``s or any commutative-ring
values supporting addition, subtraction, equality, and scalar
multiplication by ``Fraction``; the product is a ``Ring``, so the same
engine serves both the ordinary and the convolution-style multiplications
of a model algebra.  Each output coefficient of a product, of ``exp`` and of
the substitution is one ``Ring.sum``: over a model that is one integer
numerator vector with a single gcd; over Q it is one integer numerator
over the lcm of the denominators, made a ``Fraction`` once.

``exp`` runs the linear recurrence m a_m = sum_k k f_k a_{m-k} (Brent and
Kung, "Fast algorithms for manipulating formal power series", JACM 1978)
on a presentation f = sum_r s_r(t) x_r of its argument by rational series
s_r and ring elements x_r: each product x_r a_j is made once and pushed to
every later coefficient it enters, so R generators take O(R N) ring
products.  A series carries such a presentation when its maker supplies one
(the Adams-weight presentation of ``kring.adams``); otherwise its own
coefficients present it, x_k = f_k and s_k = t^k, which takes O(N^2).  The
recurrence holds because the product is commutative, associative and
unital, which ``model.validate`` checks for both model products; on a
product without those laws its result can differ from the sum of powers
f^k / k!.

The module also hosts the combinatorial tables the gamma calculus leans
on: Stirling numbers of both kinds and the scaled harmonic numbers
n! * (1 + 1/2 + ... + 1/n) = |s(n+1, 2)|.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Callable, NamedTuple, Sequence

from .errors import DomainError, SeriesOrderError, StructureError


class Ring(NamedTuple):
    """A commutative, associative, unital product with its zero and unit,
    and the ``combine(terms, den)`` kernel that ``sum`` runs on (a model's
    ``ModelAlgebra.combine``, ``_rational_sum`` over Q); a ring used only
    for ``powers`` may leave it out."""

    mul: Callable
    zero: object
    one: object
    combine: Callable | None = None

    def sum(self, terms, den: int = 1):
        """The sum of c * x over the (scalar, value) ``terms``, over ``den``;
        an empty sum is ``zero`` itself."""
        return self.combine(terms, den) if terms else self.zero

    def powers(self, x, limit: int) -> list:
        """x, x^2, ..., at most ``limit`` of them, stopping before the first
        zero power."""
        mul, zero = self.mul, self.zero
        out = []
        while len(out) < limit:
            power = mul(out[-1], x) if out else x
            if power == zero:
                break
            out.append(power)
        return out


def _rational_sum(terms, den: int = 1) -> Fraction:
    """The sum of c * x over the rational ``terms``, over ``den``, as
    ``ModelAlgebra.combine`` sums elements: integer numerators over the lcm
    of the terms' denominators, and one ``Fraction`` at the end."""
    dens = [c.denominator * x.denominator for c, x in terms]
    common = lcm(*dens)
    total = sum(c.numerator * x.numerator * (common // d) for (c, x), d in zip(terms, dens))
    return Fraction(total, common * den)


RATIONALS = Ring(operator.mul, Fraction(0), Fraction(1), _rational_sum)


class TruncatedSeries:
    """Formal power series truncated at a fixed order N (inclusive).

    Series combine and compare equal only with series over an equal ring;
    mixing rings raises ``StructureError``.

    An optional ``presentation`` writes the series as sum_r s_r(t) x_r: a
    sequence of (x_r, scaled_r) pairs, where scaled_r lists (k, k s_r[k])
    over the nonzero coefficients of the rational series s_r in increasing
    k.  Only ``exp`` reads it; equality and hashing ignore it, and
    arithmetic drops it.
    """

    __slots__ = ("coeffs", "ring", "presentation")

    def __init__(
        self, coeffs: Sequence, ring: Ring = RATIONALS, presentation: Sequence | None = None
    ):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise DomainError("a series needs at least its constant coefficient")
        self.ring = ring
        self.presentation = presentation

    @classmethod
    def rational(cls, coeffs: Sequence, order: int | None = None) -> "TruncatedSeries":
        """Series over Q, zero-padded up to ``order`` when given."""
        cs = [Fraction(c) for c in coeffs]
        if order is not None:
            if len(cs) > order + 1:
                raise DomainError("more coefficients than the requested order allows")
            cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def like(self, coeffs: Sequence) -> "TruncatedSeries":
        return TruncatedSeries(coeffs, self.ring)

    def constant(self, value) -> "TruncatedSeries":
        return self.like([value] + [self.ring.zero] * self.order)

    def coefficient(self, i: int):
        if i < 0:
            raise DomainError("negative series index")
        if i > self.order:
            raise SeriesOrderError(
                f"coefficient t^{i} requested from a series of order {self.order}"
            )
        return self.coeffs[i]

    def _same_ring(self, other: "TruncatedSeries") -> bool:
        return self.ring is other.ring or self.ring == other.ring

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise StructureError("series orders differ")
        if not self._same_ring(other):
            raise StructureError("series over different rings")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.coeffs == other.coeffs
            and self._same_ring(other)
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        return self.like([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        return self.like([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, q) -> "TruncatedSeries":
        q = Fraction(q)
        return self.like([q * c for c in self.coeffs])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Cauchy product: each coefficient is one ring sum of its products,
        which still run through the ring's own ``mul``."""
        self._check_compatible(other)
        mul, zero = self.ring.mul, self.ring.zero
        left = [(i, a) for i, a in enumerate(self.coeffs) if a != zero]
        right = other.coeffs
        return self.like([
            self.ring.sum(
                [(1, mul(a, right[s - i])) for i, a in left if i <= s and right[s - i] != zero]
            )
            for s in range(self.order + 1)
        ])

    def exp(self) -> "TruncatedSeries":
        """exp of a series with vanishing constant term.

        Runs the recurrence a_0 = one, m a_m = sum_{k=1..m} k f_k a_{m-k}
        (differentiate exp(f) = a to get a' = f' a) on a presentation
        f = sum_r s_r(t) x_r by rational series s_r and ring elements x_r,
        where it reads m a_m = sum_r sum_k k s_r[k] (x_r a_{m-k}).  Each
        product x_r a_j is made once, as soon as a_j is known, and pushed
        with its scalars k s_r[k] to every a_{j+k} it enters (x_r itself
        for j = 0, as a_0 is the unit), so R generators take O(R N) ring
        products.  A series without a presentation uses its coefficients,
        x_k = f_k and s_k = t^k: one product per pair (k, j), O(N^2) in all,
        where summing the powers f^k / k! takes O(N^3).  Each a_m is one
        ring sum of its pushed terms with 1/m in the sum's denominator; zero
        a_j and zero products push nothing.  The recurrence assumes a
        commutative, associative, unital product, which ``validate``
        guarantees for model products.
        """
        mul, zero, one, _ = self.ring
        if self.coeffs[0] != zero:
            raise DomainError("exp needs a zero constant term")
        n = self.order
        generators = self.presentation or [
            (f, ((k, k),)) for k, f in enumerate(self.coeffs) if k and f != zero
        ]
        pushed = [[] for _ in range(n + 1)]
        out = [one]
        for j in range(n):
            a = out[j]
            if a != zero:
                for x, scaled in generators:
                    if j + scaled[0][0] > n:
                        continue
                    xa = mul(x, a) if j else x
                    if xa == zero:
                        continue
                    for k, c in scaled:
                        if j + k > n:
                            break
                        pushed[j + k].append((c, xa))
            out.append(self.ring.sum(pushed[j + 1], j + 1))
        return self.like(out)

    def log(self) -> "TruncatedSeries":
        """log of a series whose constant term is the unit."""
        if self.coeffs[0] != self.ring.one:
            raise DomainError("log needs the unit as constant term")
        one = self.constant(self.ring.one)
        result = self.constant(self.ring.zero)
        series_ring = Ring(operator.mul, result, one)
        for k, power in enumerate(series_ring.powers(self - one, self.order), 1):
            result = result + power.scale(Fraction((-1) ** (k - 1), k))
        return result

    def substitute_gamma(self) -> "TruncatedSeries":
        """Composition with t/(1-t): (t/(1-t))^i = sum_{m>=i} C(m-1, i-1) t^m."""
        zero = self.ring.zero
        nonzero = [(i, c) for i, c in enumerate(self.coeffs) if i and c != zero]
        out = [self.coeffs[0]]
        for m in range(1, self.order + 1):
            out.append(self.ring.sum([(comb(m - 1, i - 1), c) for i, c in nonzero if i <= m]))
        return self.like(out)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k); S(n, k) = 0 for k > n."""
    if n < 0 or k < 0:
        raise DomainError("Stirling indices must be non-negative")
    if k > n:
        return 0
    if n == 0:
        return 1
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind |s(n, k)|."""
    if n < 0 or k < 0:
        raise DomainError("Stirling indices must be non-negative")
    if k > n:
        return 0
    if n == 0:
        return 1
    if k == 0:
        return 0
    return (n - 1) * stirling1_unsigned(n - 1, k) + stirling1_unsigned(n - 1, k - 1)


def harmonic_firstkind(n: int) -> int:
    """n! * (1 + 1/2 + ... + 1/n), i.e. |s(n+1, 2)|."""
    if n < 0:
        raise DomainError("n must be non-negative")
    return stirling1_unsigned(n + 1, 2)
