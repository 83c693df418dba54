"""Truncated series arithmetic and the combinatorial tables."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kring import (
    Ring,
    TruncatedSeries,
    harmonic_firstkind,
    kind_ring,
    star_product,
    stirling1_unsigned,
    stirling2,
    theta_model,
)
from kring.adams import ADAMS_KINDS
from kring.errors import DomainError, SeriesOrderError, StructureError
from kring.series import RATIONALS
from tests import oracle
from tests.conftest import bundled_models, model

F = Fraction


def test_exp_of_t():
    s = TruncatedSeries.rational([0, 1], order=3)
    assert s.exp().coeffs == (F(1), F(1), F(1, 2), F(1, 6))


def test_exp_log_inverse_on_rationals():
    s = TruncatedSeries.rational([0, 2, -1, F(1, 3)], order=5)
    assert s.exp().log() == TruncatedSeries.rational([0, 2, -1, F(1, 3)], order=5)


def test_exp_log_inverse_with_nilpotent_coefficients():
    m = theta_model(2)
    e1 = m.basis_element(1)
    zero = m.zero()
    s = TruncatedSeries([zero, e1, zero, zero], kind_ring(m, "usual"))
    assert s.exp().log() == s


def test_exp_coefficient_hand_expansion():
    # exp(x(t - t^2)) has t^2 coefficient -x + x^2/2
    m = theta_model(2)
    x = m.basis_element(1)
    zero = m.zero()
    s = TruncatedSeries([zero, x, -1 * x, zero], kind_ring(m, "usual"))
    expanded = s.exp()
    assert expanded.coefficient(2) == -1 * x + F(1, 2) * (x * x)


def test_exp_requires_zero_constant_term():
    with pytest.raises(DomainError):
        TruncatedSeries.rational([1, 1], order=2).exp()


def test_log_requires_unit_constant_term():
    with pytest.raises(DomainError):
        TruncatedSeries.rational([0, 1], order=2).log()


def test_substitute_gamma_geometric_tail():
    s = TruncatedSeries.rational([0, 1], order=5)
    assert s.substitute_gamma().coeffs == (F(0),) + (F(1),) * 5


def test_substitute_gamma_square():
    s = TruncatedSeries.rational([0, 0, 1], order=5)
    assert s.substitute_gamma().coeffs == (F(0), F(0), F(1), F(2), F(3), F(4))


def test_substitute_gamma_fixes_constants():
    s = TruncatedSeries.rational([1], order=4)
    assert s.substitute_gamma() == s


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _fraction_fold(terms, den):
    """Reference sum: one ``Fraction`` addition per term, then the division."""
    total = F(0)
    for c, x in terms:
        total = total + F(c) * F(x)
    return total / den


rational_scalar = st.one_of(st.integers(-6, 6), st.fractions(max_denominator=12))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(rational_scalar, rational_scalar), min_size=1, max_size=6),
    st.integers(1, 9),
)
@example([(F(2, 3), F(-3, 4))], 5)  # a single term over den > 1
@example([(1, F(1, 2)), (F(-1, 2), 1), (3, F(0))], 7)  # terms that cancel to zero
def test_rational_sum_equals_a_fraction_fold(terms, den):
    for sub in (terms, terms[:1], terms + [(-c, x) for c, x in terms]):
        got = RATIONALS.sum(sub, den)
        assert type(got) is Fraction and got == _fraction_fold(sub, den)
    assert RATIONALS.sum(terms) == _fraction_fold(terms, 1)


@st.composite
def rational_series(draw, order=5):
    coeffs = draw(st.lists(rationals, min_size=order + 1, max_size=order + 1))
    return TruncatedSeries.rational(coeffs, order=order)


@settings(max_examples=50, deadline=None)
@given(rational_series(), rational_series())
def test_substitution_respects_products(a, b):
    assert (a * b).substitute_gamma() == a.substitute_gamma() * b.substitute_gamma()


@settings(max_examples=50, deadline=None)
@given(rational_series())
def test_exp_after_substitution_commutes(s):
    nil = s.like([F(0)] + list(s.coeffs[1:]))
    assert nil.exp().substitute_gamma() == nil.substitute_gamma().exp()


@settings(max_examples=50, deadline=None)
@given(rational_series())
def test_exp_recurrence_matches_power_sum_on_rationals(s):
    nil = s.like([F(0)] + list(s.coeffs[1:]))
    power_sum = oracle.exp([(c,) for c in nil.coeffs], *oracle.RATIONALS)
    assert [(c,) for c in nil.exp().coeffs] == power_sum


@pytest.mark.parametrize("name,g", bundled_models(3))
@pytest.mark.parametrize("kind", ADAMS_KINDS)
def test_exp_recurrence_matches_power_sum_on_elements(name, g, kind):
    # exp of the log-lambda series, before and after t -> t/(1-t), on the
    # plain coefficient recurrence (no presentation)
    m = model(name, g)
    mixed = m.from_coords([(-1) ** i * (i + 1) for i in range(m.dim)])
    for x in (mixed, m.basis_element(1), m.basis_element(m.dim - 1)):
        coeffs = oracle.log_lambda(m, kind, x.coords, g + 2)
        log_lambda = TruncatedSeries([m.from_coords(c) for c in coeffs], kind_ring(m, kind))
        for s in (log_lambda, log_lambda.substitute_gamma()):
            coords = [c.coords for c in s.coeffs]
            assert [c.coords for c in s.exp().coeffs] == oracle.exp(coords, *oracle.ring(m, kind))


def test_coefficient_beyond_order_raises():
    s = TruncatedSeries.rational([1, 2], order=1)
    with pytest.raises(SeriesOrderError):
        s.coefficient(2)


def _partitions_into_blocks(n: int, k: int) -> int:
    """Brute-force count of set partitions of {1..n} into k nonempty blocks."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    total = 0

    def place(i, blocks):
        nonlocal total
        if i == n:
            if len(blocks) == k:
                total += 1
            return
        for b in blocks:
            b.append(i)
            place(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([i])
            place(i + 1, blocks)
            blocks.pop()

    place(0, [])
    return total


@pytest.mark.parametrize("n", range(0, 9))
def test_stirling2_matches_partition_count(n):
    for k in range(0, n + 1):
        assert stirling2(n, k) == _partitions_into_blocks(n, k)


def test_stirling2_examples():
    assert stirling2(3, 2) == 3
    assert stirling2(2, 4) == 0
    with pytest.raises(DomainError):
        stirling2(-1, 0)


def test_stirling_recurrences():
    for n in range(1, 10):
        for k in range(1, n + 1):
            assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)
            assert stirling1_unsigned(n, k) == (n - 1) * stirling1_unsigned(
                n - 1, k
            ) + stirling1_unsigned(n - 1, k - 1)


def test_harmonic_firstkind_values():
    assert [harmonic_firstkind(n) for n in range(1, 6)] == [1, 3, 11, 50, 274]


@pytest.mark.parametrize("n", range(1, 8))
def test_harmonic_firstkind_is_scaled_harmonic_number(n):
    harmonic = sum(F(1, k) for k in range(1, n + 1))
    assert harmonic_firstkind(n) == factorial(n) * harmonic


def test_stirling_table():
    assert [stirling2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]
    assert [stirling1_unsigned(5, k) for k in range(6)] == [0, 24, 50, 35, 10, 1]


# -- the product engine -----------------------------------------------------------


def test_series_carry_only_coefficients_and_a_ring():
    # besides its coefficients, order and ring a series holds only the
    # optional presentation that exp reads: equality ignores it, arithmetic
    # drops it, and a series made from it alone sums its coefficients from
    # it on first read
    assert TruncatedSeries.__slots__ == ("_coeffs", "ring", "presentation", "order")
    assert TruncatedSeries.rational([0, 1]).ring is RATIONALS
    assert TruncatedSeries.rational([0, 1]).presentation is None
    m = theta_model(2)
    s = TruncatedSeries([m.zero(), m.basis_element(1)], kind_ring(m, "star"))
    assert s.like(s.coeffs).ring is s.ring
    assert s.exp().coefficient(0) == m.star_unit()
    presented = TruncatedSeries(s.coeffs, s.ring, [(m.basis_element(1), ((1, 1),))])
    assert presented == s
    assert presented.exp() == s.exp()
    for derived in (presented + s, presented * s, presented.scale(2), presented.like(s.coeffs)):
        assert derived.presentation is None
    alone = TruncatedSeries(None, s.ring, presented.presentation, 1)
    assert alone._coeffs is None and alone.order == 1
    assert alone.exp() == s.exp() and alone._coeffs is None
    assert alone == s and alone.coeffs == s.coeffs


def test_ring_powers_honour_the_limit():
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    ring = Ring(mul, F(0), F(1))
    assert ring.powers(F(2), 4) == [2, 4, 8, 16]
    assert len(calls) == 3  # no product beyond the last power returned
    assert ring.powers(F(2), 1) == [2]
    assert ring.powers(F(2), 0) == []
    assert len(calls) == 3


def test_ring_powers_stop_before_a_zero_power():
    m = theta_model(2)
    e1, e2 = m.basis_element(1), m.basis_element(2)
    ring = kind_ring(m, "usual")
    assert ring.powers(e1, 10) == [e1, e1 * e1]
    assert (e1 * e1) * e1 == m.zero()
    assert ring.powers(e2, 10) == [e2]
    assert ring.powers(m.zero(), 10) == []
    assert RATIONALS.powers(F(0), 3) == []
    assert ring.powers(m.one(), 5) == [m.one()] * 5


@pytest.mark.parametrize("name,g", bundled_models(3))
def test_star_ring_powers_are_chains_of_star_products(name, g):
    m = model(name, g)
    ring = kind_ring(m, "star")
    assert ring.one == m.star_unit() and ring.zero == m.zero()
    limit = m.default_series_order
    for x in m.basis_elements():
        assert star_product(ring.one, x) == x
        want, power = [], x
        while not power.is_zero() and len(want) < limit:
            want.append(power)
            power = star_product(power, x)
        assert ring.powers(x, limit) == want
    e1 = m.basis_element(1)
    if not star_product(e1, e1).is_zero():
        assert ring.powers(e1, 2) == [e1, star_product(e1, e1)]


@pytest.mark.parametrize("kind", ADAMS_KINDS)
def test_kind_ring_names_the_family_product(theta2, kind):
    ring = kind_ring(theta2, kind)
    x, y = theta2.basis_element(1), theta2.basis_element(2)
    want = star_product(x, y) if kind == "star" else x * y
    assert ring.mul(x, y) == want
    assert ring.one == (theta2.star_unit() if kind == "star" else theta2.one())
    assert ring.zero == theta2.zero()


def test_series_over_different_rings_neither_mix_nor_compare_equal(theta2):
    zero, e1 = theta2.zero(), theta2.basis_element(1)
    star = TruncatedSeries([zero, e1, zero], kind_ring(theta2, "star"))
    usual = TruncatedSeries([zero, e1, zero], kind_ring(theta2, "usual"))
    assert star != usual
    for a, b in ((star, usual), (usual, star)):
        for op in (a.__add__, a.__sub__, a.__mul__):
            with pytest.raises(StructureError):
                op(b)
    # equal rings built twice are one ring: their series still combine
    again = TruncatedSeries([zero, e1, zero], kind_ring(theta2, "usual"))
    assert usual == again
    assert (usual * again).coefficient(2) == 2 * theta2.basis_element(2)
    assert (star * star).coefficient(2) == star_product(e1, e1)


@pytest.mark.parametrize("kind", ["usual", "star", None])
def test_equal_series_hash_equal(theta2, kind):
    # the ring is left out of the hash: a model ring holds unhashable
    # elements, and equal series have equal coefficients anyway
    if kind is None:
        ring, x, y = RATIONALS, F(2, 3), F(-5)
    else:
        ring, x, y = kind_ring(theta2, kind), theta2.basis_element(1), theta2.basis_element(2)
    zero = ring.zero
    a = TruncatedSeries([zero, x, F(1, 2) * y], ring)
    series = {a.exp(), TruncatedSeries([zero, x + x - x, y - F(1, 2) * y], ring).exp(), a}
    assert len(series) == 2
    # a ring built twice compares equal, so its series hash equal too
    again = TruncatedSeries([zero, x, F(1, 2) * y], kind_ring(theta2, kind) if kind else ring)
    assert again == a and hash(again) == hash(a)
