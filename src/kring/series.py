"""Truncated formal power series with exact coefficients.

A ``TruncatedSeries`` keeps coefficients for t^0 .. t^N and is closed under
addition, Cauchy products, exponential, logarithm, and the substitution
t -> t/(1-t).  Coefficients may be ``Fraction``s or any commutative-ring
values supporting addition, subtraction, equality, and scalar
multiplication by ``Fraction``; the product is a ``Ring``, so one engine
serves Q and both multiplications of a model algebra.  It runs on the
ring's kernel, which adds f times the integer numerators of a product x y
into a list (``accumulate``), splits a value into numerators and
denominator and builds one back (``split``, ``build``), and sums values
(``sum``); over Q a rational is a one-entry vector.  No product inside a
series is reduced on its own.

``exp`` runs the linear recurrence m a_m = sum_k k f_k a_{m-k} (Brent and
Kung, "Fast algorithms for manipulating formal power series", JACM 1978)
on a presentation f = sum_r s_r(t) x_r of its argument by rational series
s_r and ring elements x_r: each product x_r a_j is made once and pushed to
every later coefficient it enters, so R generators take O(R N) ring
products.  A series carries such a presentation when its maker supplies one
(the Adams-weight presentation of ``kring.adams``); otherwise its own
coefficients present it, x_k = f_k and s_k = t^k, which takes O(N^2).
The recurrence holds because the product is commutative, associative and
unital, which ``model.validate`` checks for both model products; on a
product without those laws its result can differ from f^k / k! summed.

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
    and ``kernel``, the accumulation kernel that ``sum``, series products
    and ``exp`` run on; a ring used only for ``powers`` may leave it out."""

    mul: Callable
    zero: object
    one: object
    kernel: object = None

    def sum(self, terms, den: int = 1):
        """sum c * x over the (scalar, value) ``terms``, over ``den``, or ``zero``."""
        return self.kernel.sum(terms, den) if terms else self.zero

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


class _RationalKernel:
    """The accumulation kernel over Q: x is (x.numerator,) over x.denominator."""

    den = 1

    def accumulate(self, out: list[int], f: int, x: Fraction, y: Fraction) -> None:
        out[0] += f * x.numerator * y.numerator

    def split(self, x: Fraction) -> tuple[tuple[int], int]:
        return (x.numerator,), x.denominator

    def build(self, nums: list[int], den: int) -> Fraction:
        return Fraction(nums[0], den)

    def sum(self, terms, den: int) -> Fraction:
        dens = [c.denominator * x.denominator for c, x in terms]
        common = lcm(*dens)
        total = sum(c.numerator * x.numerator * (common // d) for (c, x), d in zip(terms, dens))
        return Fraction(total, common * den)


RATIONALS = Ring(operator.mul, Fraction(0), Fraction(1), _RationalKernel())


def _gather(kernel, width: int, terms: list, den: int):
    """sum c * nums / d over ``terms`` (c, nonzero (i, nums[i]), d) over den."""
    dens = [c.denominator * d for c, _, d in terms]
    common = lcm(*dens)
    out = [0] * width
    for (c, entries, _), d in zip(terms, dens):
        f = c.numerator * (common // d)
        for i, n in entries:
            out[i] += f * n
    return kernel.build(out, common * den)


class TruncatedSeries:
    """Formal power series truncated at a fixed order N (inclusive).

    Series combine and compare equal only with series over an equal ring;
    mixing rings raises ``StructureError``.

    An optional ``presentation`` writes the series as sum_r s_r(t) x_r: a
    sequence of (x_r, scaled_r) pairs, where scaled_r lists (k, k s_r[k])
    over the nonzero coefficients of the rational series s_r in increasing
    k, 1 <= k <= N.  Only ``exp`` reads it; equality and hashing ignore it,
    and arithmetic drops it.  With ``coeffs`` None the series is made from
    it alone, at ``order``, and sums its coefficients on first read.
    """

    __slots__ = ("_coeffs", "ring", "presentation", "order")

    def __init__(
        self, coeffs: Sequence | None, ring: Ring = RATIONALS, presentation=None, order=None
    ):
        self._coeffs = None if coeffs is None else tuple(coeffs)
        if self._coeffs == ():
            raise DomainError("a series needs at least its constant coefficient")
        self.ring, self.presentation = ring, presentation
        self.order = order if coeffs is None else len(self._coeffs) - 1

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
    def coeffs(self) -> tuple:
        if self._coeffs is None:  # f_k = sum_r (k s_r[k]) x_r / k
            terms = [[(c, x) for x, sc in self.presentation for j, c in sc if j == k]
                     for k in range(self.order + 1)]
            self._coeffs = tuple(self.ring.sum(t, k or 1) for k, t in enumerate(terms))
        return self._coeffs

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
        # equal series have equal coefficients, so the ring (whose model
        # elements are unhashable) can be left out
        return hash((self.order, tuple(map(self.ring.kernel.split, self.coeffs))))

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
        """Cauchy product: per coefficient, one accumulation of unreduced products."""
        self._check_compatible(other)
        zero, kernel = self.ring.zero, self.ring.kernel
        width, kden = len(kernel.split(zero)[0]), kernel.den
        left = [(i, a, kernel.split(a)[1]) for i, a in enumerate(self.coeffs) if a != zero]
        right = {j: (b, kernel.split(b)[1]) for j, b in enumerate(other.coeffs) if b != zero}
        out = []
        for s in range(self.order + 1):
            pairs = [(a, *right[s - i], da) for i, a, da in left if s - i in right]
            common, acc = lcm(*(da * db for _, _, db, da in pairs)), [0] * width
            for a, b, db, da in pairs:
                kernel.accumulate(acc, common // (da * db), a, b)
            out.append(kernel.build(acc, common * kden) if pairs else zero)
        return self.like(out)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with vanishing constant term.

        Runs a_0 = one, m a_m = sum_k k f_k a_{m-k} (from a' = f' a) on a
        presentation f = sum_r s_r(t) x_r as m a_m = sum_r sum_k k s_r[k]
        (x_r a_{m-k}).  Each product x_r a_j is made once, as soon as a_j is
        known, as an unreduced numerator vector whose nonzero entries are
        pushed with the scalars k s_r[k] to every a_{j+k} (x_r itself for
        j = 0): O(R N) products for R generators, O(N^2) on the coefficients
        (x_k = f_k, s_k = t^k).  Each a_m is one ``_gather`` over m; zero
        a_j and zero products push nothing.
        """
        zero, one, kernel = self.ring.zero, self.ring.one, self.ring.kernel
        if self._coeffs is not None and self._coeffs[0] != zero:
            raise DomainError("exp needs a zero constant term")
        n, width, kden = self.order, len(kernel.split(zero)[0]), kernel.den
        generators = [(x, *kernel.split(x), scaled) for x, scaled in self.presentation or [
            (f, ((k, k),)) for k, f in enumerate(self.coeffs) if k and f != zero]]
        pushed, out = [[] for _ in range(n + 1)], [one]
        for j in range(n):
            a = out[j]
            for x, x_nums, x_den, scaled in generators if a != zero else ():
                if j + scaled[0][0] > n:
                    continue
                nums, d = x_nums, x_den
                if j:
                    nums, d = [0] * width, x_den * kernel.split(a)[1] * kden
                    kernel.accumulate(nums, 1, x, a)
                entries = [(i, v) for i, v in enumerate(nums) if v]
                for k, c in scaled if entries else ():
                    if j + k > n:
                        break
                    pushed[j + k].append((c, entries, d))
            out.append(_gather(kernel, width, pushed[j + 1], j + 1) if pushed[j + 1] else zero)
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
