"""Adams families, lambda/gamma operations, universal gamma coefficients,
Chern classes for the composed structure, and line-bundle calculus.

Five diagonal Adams families act on a model, with eigenvalue n^w on K^p_q:

    usual     w = p
    star      w = q            (ring maps for the convolution product)
    pi        w = g - q
    composed  w = p + q - g    (the derived index)
    pi_star   w = q - g        (rank-preserving rescaled star family)

All lambda and gamma operations are produced from the Adams action through
the exponential of the weighted power series and the substitution
t -> t/(1-t), as whole truncated series (``lambda_series``,
``gamma_series``); no alternating-power semantics exists in the model.  The
products inside the exponential run on the ``Product`` of the family's
``kind_ring``: convolution for the star family, the ordinary product for
the others.  The weighted series sum_w L_w(t) x_w over the Adams
eigencomponents x_w, with rational L_w, is made from that presentation
alone, and ``exp`` runs on it, one product per weight and coefficient,
when it bounds the products lower than the series' coefficients do.

Gamma operations of an eigenvector are universal polynomials in its powers.
For an eigenvector x of weight d the substituted log-lambda series is
S_d(t) x with S_d(t) = sum_n (-1)^{n-1} n^{d-1} (t/(1-t))^n, so the gamma
series exp(S_d(t) x) has the closed form sum_m S_d(t)^m x^m / m!, and
``universal_gamma_coefficients`` reads a(i; d, m) = [t^i] S_d(t)^m / m!
off the powers of S_d, taken on its integer numerators (``_gamma_table``,
integer rows over one denominator per power).  The two routes read S_d
apart: the table from its closed-form integer coefficients, the series
engine (``gamma_series``, ``lambda_series``) by substituting t/(1-t) into a
``TruncatedSeries``.  Column m = 1 is S_d itself, whose coefficients the
``series`` report of ``kring.reports`` reads.
``gamma_images`` makes each gamma^i of an eigencomponent one integer
combination of its powers by those rows, and multiplies the components'
series (the gamma series is multiplicative over sums): a fast exact route
that the series-engine route must agree with.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import Callable, NamedTuple

from .errors import DomainError, SeriesOrderError
from .linalg import Subspace
from .model import Element, ModelAlgebra
from .operators import DiagonalOperator, star_product
from .series import Ring, TruncatedSeries

ADAMS_KINDS = ("usual", "star", "pi", "composed", "pi_star")


def adams_weight(kind: str, p: int, q: int, g: int) -> int:
    if kind == "usual":
        return p
    if kind == "star":
        return q
    if kind == "pi":
        return g - q
    if kind == "composed":
        return p + q - g
    if kind == "pi_star":
        return q - g
    raise DomainError(f"unknown Adams family {kind!r}")


@lru_cache(maxsize=None)
def adams_operator(model: ModelAlgebra, kind: str, n: int) -> DiagonalOperator:
    if n <= 0:
        raise DomainError("Adams operations are indexed by positive integers")
    g = model.g
    weights = [adams_weight(kind, p, q, g) for (p, q) in model.bidegrees]
    return DiagonalOperator.of_powers(model, n, weights)


def adams(model: ModelAlgebra, kind: str, n: int, x: Element) -> Element:
    """Diagonal Adams action; a ring map for the family's product."""
    return adams_operator(model, kind, n).apply(x)


def kind_ring(model: ModelAlgebra, kind: str) -> Ring:
    """The product the Adams family is a ring map for: the convolution
    product for ``star``, the ordinary product for every other family.  Its
    kernel, on which sums, series products and ``exp`` run, is the model's
    ``Product`` record, named rather than recognised from ``mul``.  Each ring
    is built once per model and kept on it; the star ring builds ``star_table``."""
    star = kind == "star"
    if star not in model._rings:
        model._rings[star] = (
            Ring(star_product, model.zero(), model.star_unit(), model.convolution) if star
            else Ring(model.multiply, model.zero(), model.one(), model.usual)
        )
    return model._rings[star]


def _weighted_log(
    model: ModelAlgebra,
    kind: str,
    x: Element,
    order: int,
    log: Callable[[int, int], TruncatedSeries],
) -> TruncatedSeries:
    """sum_w L_w(t) x_w over the Adams eigencomponents x_w of x, where
    L_w = ``log(w - 1, order)`` is a rational series.

    The series is made from the weight presentation (x_w, L_w) alone, and
    ``exp`` runs on it when it bounds the products of the recurrence lower
    than the series' own coefficients do: sum_w (N - min supp L_w) against
    the sum of N - k over the k in the union of the supports, ties to the
    coefficients.  Otherwise the coefficients f_k = sum_w L_w[k] x_w are
    summed and the presentation dropped.  The x_w have disjoint supports,
    so both bounds come from the scalar series alone.
    """
    if order < 1:
        raise DomainError("series order must be at least 1")
    parts = [
        (comp, _log_terms(log, w - 1, order))
        for w, comp in _weight_components(model, kind, x).items()
    ]
    series = TruncatedSeries(None, kind_ring(model, kind), parts, order)
    support = {k for _, scaled in parts for k, _ in scaled}
    if sum(order - scaled[0][0] for _, scaled in parts) < sum(order - k for k in support):
        return series
    return series.like(series.coeffs)


@lru_cache(maxsize=None)
def _log_terms(
    log: Callable[[int, int], TruncatedSeries], exponent: int, order: int
) -> tuple[tuple[int, int | Fraction], ...]:
    """The pairs (k, k s[k]) over the nonzero coefficients s[k] of
    ``log(exponent, order)``: the presentation ``exp`` reads.  Integral
    scalars are ints, which the model's sums read fastest."""

    scaled = ((k, k * c) for k, c in enumerate(log(exponent, order).coeffs) if c)
    return tuple((k, kc.numerator if kc.denominator == 1 else kc) for k, kc in scaled)


def gamma_series(
    model: ModelAlgebra, kind: str, x: Element, order: int
) -> TruncatedSeries:
    """The gamma series of x: exp of the substituted weighted Adams series.

    Substituting t/(1-t) into the logarithm first and exponentiating after
    is exact: the substitution is a ring map on truncated series.  The
    substituted series is sum_w S_w(t) x_w with the rational series
    S_w = ``_substituted_log(w - 1, order)`` (see ``lambda_series``), made
    by series substitution; ``universal_gamma_coefficients`` reads its own
    closed form of S_w, so the two routes share no code for it.
    """
    return _weighted_log(model, kind, x, order, _substituted_log).exp()


def lambda_series(
    model: ModelAlgebra, kind: str, x: Element, order: int
) -> TruncatedSeries:
    """The lambda series of x: exp of the weighted Adams series
    sum_n (-1)^{n-1} psi^n(x) t^n / n, without the gamma substitution.  As
    psi^n(x) / n = sum_w n^(w-1) x_w over the Adams eigencomponents x_w,
    that series is sum_w L_w(t) x_w with the rational series
    L_w = ``_adams_log(w - 1, order)``.  Coefficient i of the truncated
    ``exp`` only depends on the terms up to t^i, so one series of order n
    holds lambda^0(x) .. lambda^n(x)."""
    return _weighted_log(model, kind, x, order, _adams_log).exp()


def gamma_op(
    model: ModelAlgebra, kind: str, i: int, x: Element, order: int | None = None
) -> Element:
    """Coefficient of t^i in the gamma series of x."""
    if order is None:
        order = model.default_series_order
    if i > order:
        raise SeriesOrderError(
            f"gamma index {i} exceeds the series order {order}"
        )
    if i == 0:
        return kind_ring(model, kind).one
    return gamma_series(model, kind, x, order).coefficient(i)


@lru_cache(maxsize=None)
def _adams_log(exponent: int, order: int) -> TruncatedSeries:
    """sum_n (-1)^{n-1} n^exponent t^n, truncated at ``order``."""
    def term(n: int) -> Fraction:
        sign = 1 if n % 2 else -1
        return Fraction(sign * n**exponent) if exponent >= 0 else Fraction(sign, n**-exponent)

    return TruncatedSeries.rational([0] + [term(n) for n in range(1, order + 1)])


@lru_cache(maxsize=None)
def _substituted_log(exponent: int, order: int) -> TruncatedSeries:
    """``_adams_log(exponent, order)`` with t/(1-t) substituted for t."""
    return _adams_log(exponent, order).substitute_gamma()


@lru_cache(maxsize=None)
def _gamma_table(d: int, order: int, m_max: int) -> tuple[tuple, tuple[int, ...]]:
    """Integer rows and column denominators of ``universal_gamma_coefficients``:
    the powers of S_d run on its integer numerators s over their least
    denominator D, as a truncated integer convolution, so
    a(i; d, m) = rows[i][m] / dens[m] with rows[i][m] = [t^i] s^m and
    dens[m] = D^m m!.  S_d comes in closed form, not from
    ``_substituted_log``: [t^k] S_d = sum_{n <= k} (-1)^(n-1) n^(d-1) C(k-1, n-1),
    (t/(1-t))^n expanded term by term, over lcm(n^(1-d)) when d <= 0."""
    if order < 1 or m_max < 1:
        raise DomainError("order and m_max must be at least 1")
    den = lcm(*(n ** (1 - d) for n in range(1, order + 1))) if d < 1 else 1
    terms = [(-1) ** n * int(den * Fraction(n + 1) ** (d - 1)) for n in range(order)]
    nums = [sum(c * comb(k, n) for n, c in enumerate(terms[: k + 1])) for k in range(order)]
    common = gcd(den, *nums)  # D is the least denominator
    den //= common
    s = [(k + 1, c // common) for k, c in enumerate(nums) if c]
    power = [1] + [0] * order
    columns = [power]
    for m in range(1, m_max + 1):
        power = [sum(c * power[i - k] for k, c in s if k <= i) for i in range(order + 1)]
        columns.append(power)
    return tuple(zip(*columns)), tuple(den**m * factorial(m) for m in range(m_max + 1))


@lru_cache(maxsize=None)
def universal_gamma_coefficients(
    d: int, order: int, m_max: int
) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficients a(i; d, m) = [t^i] S_d(t)^m / m! of x^m in the i-th gamma
    operation of an eigenvector x of weight d.

    Entry [i][m] is a(i; d, m) for 0 <= i <= order, 0 <= m <= m_max: the
    ``Fraction`` view of the integer ``_gamma_table`` that ``gamma_images``
    reads."""
    rows, dens = _gamma_table(d, order, m_max)
    return tuple(tuple(Fraction(n, den) for n, den in zip(row, dens)) for row in rows)


def gamma_pi_coeff(i: int, d: int, m: int) -> Fraction:
    """The universal coefficient a(i; d, m) of the pi-structure expansion;
    d = g - q must be positive."""
    if d < 1:
        raise DomainError("the pi weight d must be at least 1")
    if i < 1 or m < 1:
        raise DomainError("i and m must be at least 1")
    table = universal_gamma_coefficients(d, i, m)
    return table[i][m]


def _weight_components(model: ModelAlgebra, kind: str, x: Element) -> dict[int, Element]:
    """x split into its Adams eigencomponents, keyed by weight."""
    by_weight: dict[int, list[int]] = {}
    g = model.g
    for i, n in enumerate(x.nums):
        if not n:
            continue
        p, q = model.bidegrees[i]
        w = adams_weight(kind, p, q, g)
        nums = by_weight.setdefault(w, [0] * model.dim)
        nums[i] = n
    return {w: Element(model, nums, x.den) for w, nums in by_weight.items()}


def gamma_images(
    model: ModelAlgebra, kind: str, x: Element, order: int
) -> list[Element]:
    """All gamma operations gamma^0(x) .. gamma^order(x) at once.

    Fast exact route: decompose x into Adams-weight components, expand each
    component through the universal coefficient table and its powers, then
    multiply the component gamma series (the gamma series of a sum is the
    product of the gamma series).  Agrees with the series-engine route.
    """
    ring = kind_ring(model, kind)
    unit, zero = ring.one, ring.zero
    result = None  # the product of the component series so far
    # a(i; d, m) vanishes for m > i, so powers beyond the order never enter;
    # components off the unit line die even earlier by nilpotency
    for w, comp in _weight_components(model, kind, x).items():
        powers = ring.powers(comp, order)
        if not powers:  # order 0
            continue
        rows, dens = _gamma_table(w, order, len(powers))
        # a(i; w, m) x^m over dens[-1] and one denominator L of the powers,
        # so gamma^i is one integer combination of them over dens[-1] L
        common = lcm(*(xm.den for xm in powers))
        scaled = [[dens[-1] // den * (common // xm.den) * n for n in xm.nums]
                  for den, xm in zip(dens[1:], powers)]
        coeffs = [unit]
        for row in rows[1:]:
            out = None
            for n, vec in zip(row[1:], scaled):
                if n:
                    out = [o + n * c for o, c in zip(out or [0] * len(vec), vec)]
            coeffs.append(zero if out is None else Element(model, out, dens[-1] * common))
        factor = TruncatedSeries(coeffs, ring)
        result = factor if result is None else result * factor
    return [unit] + [zero] * order if result is None else list(result.coeffs)


# -- line-bundle calculus ----------------------------------------------------


def _nilpotent_powers(x: Element, what: str) -> list[Element]:
    """The nonzero powers of x, which must end before x^(2g+1)."""
    limit = 2 * x.model.g + 1
    powers = kind_ring(x.model, "usual").powers(x, limit)
    if len(powers) == limit:
        raise DomainError(f"argument is not {what}")
    return powers


def log_class(L: Element) -> Element:
    """log of a unipotent class: sum (-1)^{n-1} (L-1)^n / n (a finite sum)."""
    model = L.model
    if L.coefficient(model.unit_index) != 1:
        raise DomainError("log needs a class of the form 1 + nilpotent")
    result = model.zero()
    for n, power in enumerate(_nilpotent_powers(L - model.one(), "unipotent"), 1):
        result = result + Fraction((-1) ** (n - 1), n) * power
    return result


def exp_class(x: Element) -> Element:
    """exp of a nilpotent class (zero coefficient on the unit line)."""
    model = x.model
    if x.coefficient(model.unit_index) != 0:
        raise DomainError("exp needs a nilpotent argument")
    result = model.one()
    for n, power in enumerate(_nilpotent_powers(x, "nilpotent"), 1):
        result = result + Fraction(1, factorial(n)) * power
    return result


def nth_root(L: Element, n: int) -> Element:
    """The class whose n-th power is L, for unipotent L."""
    if n < 1:
        raise DomainError("root index must be at least 1")
    return exp_class(Fraction(1, n) * log_class(L))


# -- Chern classes of the composed structure ---------------------------------


class ChernClass(NamedTuple):
    """Complete Chern data of the composed structure: the index-0 projection
    and the gamma components reduced modulo the next filtration stage."""

    augmentation: Element
    components: tuple[Element, ...]

    @property
    def is_zero(self) -> bool:
        return self.augmentation.is_zero() and all(
            c.is_zero() for c in self.components
        )


def complete_chern(
    model: ModelAlgebra, x: Element, stages: list[Subspace]
) -> ChernClass:
    """All Chern components 1..g of x from one gamma series of order g:
    coefficient i of a truncated series only depends on terms up to t^i."""
    g = model.g
    if g + 1 >= len(stages):
        raise DomainError("need filtration stages up to g+1")
    reduced = x - x.beauville_component(0)
    series = gamma_series(model, "composed", reduced, g)
    comps = tuple(
        Element(model, *stages[i + 1].reduce(series.coefficient(i)))
        for i in range(1, g + 1)
    )
    return ChernClass(x.beauville_component(0), comps)
