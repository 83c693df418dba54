"""Adams families, gamma operations, the universal coefficient table, and
line-bundle calculus."""

import importlib
import random
from fractions import Fraction
from math import factorial

import pytest

from kring import (
    ADAMS_KINDS,
    adams,
    adams_operator,
    euler_char,
    exp_class,
    gamma_images,
    gamma_op,
    gamma_pi_coeff,
    gamma_series,
    harmonic_firstkind,
    lambda_series,
    log_class,
    nth_root,
    pushforward,
    rank,
    star_product,
    stirling1_unsigned,
    stirling2,
    run_series_report,
    theta_model,
)
from kring import reports
from kring.adams import adams_weight, universal_gamma_coefficients
from kring.errors import DomainError, SeriesOrderError
from kring.series import TruncatedSeries
from tests import oracle
from tests.conftest import TENSORS, bundled_models, model, presented_model, series_values, spec_id

F = Fraction

adams_module = importlib.import_module("kring.adams")


# -- eigenvalue actions -------------------------------------------------------


def test_adams_eigenvalues_by_kind(theta2):
    e1 = theta2.basis_element(1)  # bidegree (1, 1), g = 2
    assert adams(theta2, "usual", 3, e1) == 3 * e1
    assert adams(theta2, "star", 3, e1) == 3 * e1
    assert adams(theta2, "pi", 3, e1) == 3 * e1
    assert adams(theta2, "composed", 3, e1) == e1
    assert adams(theta2, "pi_star", 3, e1) == F(1, 3) * e1


def test_adams_rejects_nonpositive_index(theta2):
    with pytest.raises(DomainError):
        adams(theta2, "usual", 0, theta2.one())
    with pytest.raises(DomainError):
        adams(theta2, "nonsense", 1, theta2.one())  # type: ignore[arg-type]


def test_adams_family_object(theta2):
    p, q = theta2.bidegrees[1]
    assert adams_weight("pi", p, q, theta2.g) == 1  # e1 sits in K^1_1, so g - q = 1
    e1 = theta2.basis_element(1)
    assert adams_operator(theta2, "pi", 3).apply(e1) == adams(theta2, "pi", 3, e1)


@pytest.mark.parametrize("name,g", bundled_models(3))
def test_adams_semigroup_all_families(name, g):
    m = model(name, g)
    for kind in ADAMS_KINDS:
        for n in range(1, 7):
            for k in range(1, 7):
                lhs = adams_operator(m, kind, n).compose(adams_operator(m, kind, k))
                assert lhs.eigenvalues == adams_operator(m, kind, n * k).eigenvalues


@pytest.mark.parametrize("name,g", bundled_models(3))
def test_composed_and_pi_star_are_ring_maps(name, g):
    m = model(name, g)
    basis = m.basis_elements()
    for n in (2, 3):
        for kind in ("composed", "pi_star"):
            for i in range(m.dim):
                for j in range(i, m.dim):
                    assert adams(m, kind, n, basis[i] * basis[j]) == adams(
                        m, kind, n, basis[i]
                    ) * adams(m, kind, n, basis[j])
        for e in basis:
            assert rank(adams(m, "pi_star", n, e)) == rank(e)


@pytest.mark.parametrize("name,g", bundled_models(3))
def test_star_family_is_convolution_ring_map(name, g):
    m = model(name, g)
    basis = m.basis_elements()
    for n in (2, 3):
        for i in range(m.dim):
            for j in range(i, m.dim):
                lhs = adams(m, "star", n, star_product(basis[i], basis[j]))
                rhs = star_product(
                    adams(m, "star", n, basis[i]), adams(m, "star", n, basis[j])
                )
                assert lhs == rhs


def test_star_adams_on_symmetric_bundle(theta2):
    L = exp_class(theta2.basis_element(1))
    got = adams(theta2, "star", 2, L)
    assert got == theta2.element({"e0": 4, "e1": 2, "e2": 1})
    # and in closed form: n^g exp(l1 / n)
    assert got == 4 * exp_class(F(1, 2) * theta2.basis_element(1))


def test_composed_fixes_symmetric_bundle(theta2):
    L = exp_class(theta2.basis_element(1))
    for n in (2, 3, 5):
        assert adams(theta2, "composed", n, L) == L


def test_star_adams_on_antisymmetric_bundle(antisym2):
    a = antisym2.basis_element(antisym2.index_of("a"))
    L = antisym2.one() + a
    for n in (2, 3):
        assert adams(antisym2, "star", n, L) == F(n) ** 2 * L
        # the composed family sees the n-th power instead
        assert adams(antisym2, "composed", n, L) == L ** n


# -- gamma operations ----------------------------------------------------------


def test_gamma_one_is_identity_on_kernel_elements(theta2):
    e1 = theta2.basis_element(1)
    for kind in ADAMS_KINDS:
        assert gamma_op(theta2, kind, 1, e1) == e1


def test_gamma_pi_squares_degree_one(theta2):
    e1 = theta2.basis_element(1)
    assert gamma_op(theta2, "pi", 2, e1) == theta2.basis_element(2)


def test_gamma_usual_matches_series_oracle(theta2):
    e1 = theta2.basis_element(1)
    want = oracle.gamma_series(theta2, "usual", e1.coords, 4)[2]
    assert gamma_op(theta2, "usual", 2, e1, order=4).coords == want


def test_gamma_beyond_order_raises(theta2):
    with pytest.raises(SeriesOrderError):
        gamma_op(theta2, "usual", 9, theta2.basis_element(1), order=4)


@pytest.mark.parametrize(
    "spec,conjugated",
    [pytest.param((name, g), False, id=f"{name}-{g}") for name, g in bundled_models(3) if g > 1]
    + [
        pytest.param(spec, c, id=spec_id(spec) + ("-conjugated" if c else ""))
        for spec in TENSORS
        for c in (False, True)
    ],
)
def test_gamma_images_match_the_oracle(spec, conjugated):
    # at g = 2 the order is well above the algebra's nilpotency degree, and
    # at g >= 3 it is g + 2, where the dense oracle stays cheap; 1 + e1 has a
    # component on the unit line, which is not nilpotent, and coordinates
    # such as 1/2 and -2/3 give the powers of a component different
    # denominators, which gamma_images brings to one
    m = presented_model(spec, conjugated)
    rng = random.Random(11)
    coords = (F(0), F(0), F(1), F(-2), F(1, 2), F(-2, 3), F(3, 4))
    elements = list(m.basis_elements()) if m.g == 2 else []
    elements.append(m.one() + m.basis_element(1))
    for _ in range(2):
        elements.append(m.from_coords([rng.choice(coords) for _ in range(m.dim)]))
    order = 2 * m.g + 4 if m.g == 2 else m.g + 2
    for kind in ADAMS_KINDS:
        for x in elements:
            fast = [v.coords for v in gamma_images(m, kind, x, order)]
            assert fast == oracle.gamma_series(m, kind, x.coords, order)


@pytest.mark.parametrize("name,g", [("theta", 2), ("antisym", 3)])
def test_gamma_addition_law(name, g):
    m = model(name, g)
    rng = random.Random(3)
    order = m.default_series_order
    for kind in ("usual", "star", "pi", "composed"):
        for _ in range(2):
            x = m.from_coords([F(rng.randint(-2, 2)) for _ in range(m.dim)])
            y = m.from_coords([F(rng.randint(-2, 2)) for _ in range(m.dim)])
            assert gamma_series(m, kind, x + y, order) == gamma_series(
                m, kind, x, order
            ) * gamma_series(m, kind, y, order)


def test_star_gamma_commutes_with_pushforward(theta2):
    # the convolution gamma operations pass through every pushforward
    e1 = theta2.basis_element(1)
    x = e1 + theta2.basis_element(2)
    for k in (-2, -1, 0, 2):
        push = pushforward(theta2, k)
        lhs = gamma_images(theta2, "star", push.apply(x), 3)
        rhs = [push.apply(v) for v in gamma_images(theta2, "star", x, 3)]
        assert lhs == rhs


# -- universal coefficients -----------------------------------------------------


def test_gamma_coeff_examples():
    assert gamma_pi_coeff(1, 1, 1) == 1
    assert gamma_pi_coeff(2, 2, 1) == -1
    assert gamma_pi_coeff(2, 3, 1) == -3
    assert gamma_pi_coeff(4, 2, 1) == 0


def test_gamma_coeff_rejects_bad_weight():
    with pytest.raises(DomainError):
        gamma_pi_coeff(1, 0, 1)


@pytest.mark.parametrize("d", range(1, 9))
def test_gamma_coeff_stirling_formula(d):
    for i in range(1, 9):
        want = F((-1) ** (i - 1) * factorial(i - 1) * stirling2(d, i))
        assert gamma_pi_coeff(i, d, 1) == want


def test_gamma_coeff_vanishing_forced_by_series():
    # for i > G every coefficient with m*d <= G vanishes (here G = 8)
    G = 8
    for d in range(1, 5):
        for m in range(1, 3):
            if m * d <= G:
                for i in range(G + 1, G + 3):
                    assert gamma_pi_coeff(i, d, m) == 0


def test_gamma_coeff_weight_zero_links_to_first_kind():
    # binomial directions: a(i; 0, m) * i! is the unsigned first-kind triangle
    table = universal_gamma_coefficients(0, 6, 4)
    for i in range(1, 7):
        for m in range(1, 5):
            assert table[i][m] * factorial(i) == stirling1_unsigned(i, m)


def test_gamma_coeff_reproduces_gamma_op_on_eigenvectors():
    # extract a(i; d, m) from the model route: in a big enough divided-power
    # model, e_d ** m = (dm)!/(d!)^m * e_{dm}
    for d in (1, 2, 3):
        m_top = 2 if d > 1 else 3
        big = theta_model(d * m_top)
        x = big.basis_element(d)  # pi-weight of e_d is d
        for i in range(1, 6):
            got = gamma_op(big, "pi", i, x, order=6)
            want = big.zero()
            for m in range(1, m_top + 1):
                scale = F(factorial(d * m), factorial(d) ** m)
                want = want + gamma_pi_coeff(i, d, m) * scale * big.basis_element(d * m)
            assert got == want


def test_universal_gamma_coefficients_table_entries():
    assert universal_gamma_coefficients(3, 4, 2)[2][1] == -3  # a(2; 3, 1)
    assert universal_gamma_coefficients(2, 4, 2)[2][2] == F(1, 2)  # a(2; 2, 2)


@pytest.mark.parametrize("d", range(-5, 10))
def test_integer_scalar_tables_match_the_oracle(d):
    # every table is a corner of the oracle's at order 20: entry [i][m]
    # reads the terms up to t^i only; column m = 1 is S_d in closed form,
    # which must also equal the series engine's S_d, ``_adams_log`` with
    # t/(1-t) substituted
    full = oracle.gamma_coefficients(d, 20, 20)
    for order in range(1, 21):
        log = adams_module._adams_log(d - 1, order)
        assert all(type(c) is F for c in log.coeffs)
        assert tuple(row[1] for row in universal_gamma_coefficients(d, order, 1)) == (
            log.substitute_gamma().coeffs
        )
        for m_max in sorted(set(range(1, 7)) | ({order} if d == 0 else set())):
            table = universal_gamma_coefficients(d, order, m_max)
            assert table == tuple(row[: m_max + 1] for row in full[: order + 1])
            if d >= 1:
                assert gamma_pi_coeff(order, d, m_max) == full[order][m_max]
            assert all(type(a) is F for row in table for a in row)
            # the Fraction view of integer rows over one denominator per power
            rows, dens = adams_module._gamma_table(d, order, m_max)
            assert all(type(n) is int for row in rows for n in row)
            assert dens == tuple(dens[1] ** m * factorial(m) for m in range(m_max + 1))


def test_gamma_table_shares_no_code_with_the_series_route(monkeypatch):
    # the series engine and gamma_images are two routes that must agree,
    # so the table must not read S_w through the series engine's substitution
    def refuse(*args):
        raise AssertionError("the table read the series route")

    monkeypatch.setattr(adams_module, "_substituted_log", refuse)
    monkeypatch.setattr(TruncatedSeries, "substitute_gamma", refuse)
    monkeypatch.setattr(adams_module, "_gamma_table", adams_module._gamma_table.__wrapped__)
    for d in range(-6, 10):
        for order in (1, 2, 7, 20):
            assert adams_module.universal_gamma_coefficients.__wrapped__(d, order, 3)


def test_scalar_table_reports_match_the_oracle(monkeypatch):
    runs = (
        lambda: reports.run_gamma_coeff_report(8, 8, 4),
        lambda: reports.run_series_report(-1, 8),
    )
    new = [run().to_json() for run in runs]

    def substituted_log(exponent, order):
        table = oracle.gamma_coefficients(exponent + 1, order, 1)
        return TruncatedSeries.rational([row[1] for row in table])

    monkeypatch.setattr(reports, "universal_gamma_coefficients", oracle.gamma_coefficients)
    monkeypatch.setattr(adams_module, "_substituted_log", substituted_log)
    assert [run().to_json() for run in runs] == new


# -- line bundles ---------------------------------------------------------------


@pytest.mark.parametrize("g", [1, 2, 3])
def test_lambda_op_of_a_line_bundle(g):
    # psi^n(L) = L^n for L = exp(e1), so lambda_t(L) = 1 + L t exactly
    m = model("theta", g)
    L = exp_class(m.basis_element(1))
    series = lambda_series(m, "usual", L, g + 2)
    assert series.coefficient(0) == m.one()
    assert series.coefficient(1) == L
    for i in range(2, g + 3):
        assert series.coefficient(i).is_zero()


def test_lambda_and_gamma_series_need_order_one(theta2):
    e1 = theta2.basis_element(1)
    for series in (lambda_series, gamma_series):
        with pytest.raises(DomainError, match="series order must be at least 1"):
            series(theta2, "usual", e1, 0)


def test_log_exp_inverse(theta2):
    e1 = theta2.basis_element(1)
    assert log_class(exp_class(e1)) == e1
    assert exp_class(log_class(theta2.one() + e1)) == theta2.one() + e1


@pytest.mark.parametrize("g", range(1, 5))
def test_euler_scaling_of_powers(g):
    m = theta_model(g)
    e1 = m.basis_element(1)
    for c in (1, 2, 5):
        assert euler_char(exp_class(c * e1)) == F(c) ** g


@pytest.mark.parametrize("g", range(2, 5))
def test_top_power_is_euler_times_origin(g):
    m = theta_model(g)
    L = exp_class(m.basis_element(1))
    top = F(1, factorial(g)) * (L - m.one()) ** g
    assert top == euler_char(L) * m.star_unit()


def test_nth_root(theta2):
    L = exp_class(theta2.basis_element(1))
    for n in (2, 3):
        root = nth_root(L, n)
        assert root ** n == L
    with pytest.raises(DomainError):
        nth_root(L, 0)


def test_log_rejects_wrong_rank(theta2):
    with pytest.raises(DomainError):
        log_class(2 * theta2.one())
    with pytest.raises(DomainError):
        exp_class(theta2.one())


# -- the index -1 normalization report -------------------------------------------


def test_normalization_report_exact_values():
    rep = series_values(-1, 5)
    assert rep["targets"] == (1, 3, 11, 50, 274)
    assert rep["standard"] == (
        (F(1), F(3, 4), F(11, 18), F(25, 48), F(137, 300)),
        (F(1), F(3, 2), F(11, 3), F(25, 2), F(274, 5)),
        False,
    )
    assert rep["unscaled"] == (
        (F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 5)),
        (F(1), F(1), F(2), F(6), F(24)),
        False,
    )
    # neither normalization reproduces the scaled harmonic targets; the
    # standard one is off by exactly a factor n at t^n
    assert rep["matching"] == ()
    for n, (num, target) in enumerate(zip(rep["standard"][1], rep["targets"]), start=1):
        assert n * num == target


def test_normalization_report_harmonic_connection():
    rep = series_values(-1, 5)
    for n, c in enumerate(rep["standard"][0], start=1):
        harmonic = sum(F(1, k) for k in range(1, n + 1))
        assert c == harmonic / n
    assert [harmonic_firstkind(n) for n in range(1, 6)] == list(rep["targets"])


def test_normalization_report_reads_the_substituted_logarithm():
    # the report's log-gamma coefficients are S_d = sum_n (-1)^(n-1)
    # n^(d-1) (t/(1-t))^n for d = weight (standard) or weight + 1
    # (unscaled): column m = 1 of the universal table
    for weight in range(-8, 9):
        for order in (1, 2, 3, 5, 12):
            rep = series_values(weight, order)
            for name, d in (("standard", weight), ("unscaled", weight + 1)):
                want = [row[1] for row in oracle.gamma_coefficients(d, order, 1)[1:]]
                assert rep[name][0] == tuple(want)


def test_normalization_report_order_one_matches_both():
    # at order 1 both numerators are 1 = 1! H_1, whatever the weight
    for weight in range(-3, 4):
        rep = series_values(weight, 1)
        assert rep["matching"] == ("standard", "unscaled")
    with pytest.raises(DomainError, match="order must be at least 1"):
        run_series_report(-1, 0)


def _samples(m):
    return [
        m.from_coords([F((-1) ** i * (i + 1), i % 3 + 1) for i in range(m.dim)]),
        m.basis_element(m.dim - 1),
        m.one() + m.star_unit(),
    ]


@pytest.mark.parametrize("name,g", bundled_models(3))
@pytest.mark.parametrize("kind", ADAMS_KINDS)
def test_lambda_series_match_the_oracle(name, g, kind):
    m = model(name, g)
    for x in _samples(m) + [m.zero()]:
        series = [c.coords for c in lambda_series(m, kind, x, g + 1).coeffs]
        assert series == oracle.lambda_series(m, kind, x.coords, g + 1)


@pytest.mark.parametrize("name,g", bundled_models(3))
@pytest.mark.parametrize("kind", ADAMS_KINDS)
def test_gamma_series_match_the_oracle(name, g, kind):
    m = model(name, g)
    order = g + 3
    for x in _samples(m):
        series = [c.coords for c in gamma_series(m, kind, x, order).coeffs]
        assert series == oracle.gamma_series(m, kind, x.coords, order)
