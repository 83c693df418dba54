"""Pullback/pushforward families, Fourier calculus, and the universal
pushforward relations."""

from fractions import Fraction
from math import comb

import pytest

from kring import (
    ModelAlgebra,
    euler_char,
    fourier,
    fourier_inverse,
    identity_expansion_coefficients,
    pullback,
    pushforward,
    pushforward_relation,
    rank,
    run_verify_suite,
    star_product,
    theta_model,
)
from kring.reports import Statement
from tests.conftest import bundled_models, model, theta_raw

F = Fraction


def test_pullback_zero_is_rank_projector(theta2):
    x = sum(theta2.basis_elements(), theta2.zero())
    assert pullback(theta2, 0).apply(x) == theta2.one()


def test_pushforward_zero_is_euler_projector(theta2):
    x = sum(theta2.basis_elements(), theta2.zero())
    assert pushforward(theta2, 0).apply(x) == theta2.star_unit()


def test_pullback_exponent_example(theta2):
    e1 = theta2.basis_element(1)  # bidegree (1, 1)
    assert pullback(theta2, 2).apply(e1) == 4 * e1


@pytest.mark.parametrize("name,g", bundled_models(3))
def test_operator_semigroup_laws(name, g):
    m = model(name, g)
    for k in range(-3, 4):
        for l in range(-3, 4):
            assert (
                pullback(m, k).compose(pullback(m, l)).eigenvalues
                == pullback(m, k * l).eigenvalues
            )
            assert (
                pushforward(m, k).compose(pushforward(m, l)).eigenvalues
                == pushforward(m, k * l).eigenvalues
            )


@pytest.mark.parametrize("name,g", bundled_models(3))
def test_fourier_exchange_law(name, g):
    m = model(name, g)
    for n in range(-3, 4):
        for e in m.basis_elements():
            assert fourier(pushforward(m, n).apply(e)) == pullback(m, n).apply(
                fourier(e)
            )


def test_star_unit_acts_trivially(theta2):
    for e in theta2.basis_elements():
        assert star_product(theta2.star_unit(), e) == e


@pytest.mark.parametrize("g", range(1, 5))
def test_star_product_closed_form_on_theta(g):
    # conjugation oracle: e_a * e_b = C(2g-a-b, g-a) e_{a+b-g}, signs cancel
    m = theta_model(g)
    for a in range(g + 1):
        for b in range(g + 1):
            got = star_product(m.basis_element(a), m.basis_element(b))
            if a + b >= g:
                want = comb(2 * g - a - b, g - a) * m.basis_element(a + b - g)
            else:
                want = m.zero()
            assert got == want


def test_star_square_example(theta2):
    e1 = theta2.basis_element(1)
    assert star_product(e1, e1) == 2 * theta2.basis_element(0)
    e2 = theta2.basis_element(2)
    assert star_product(e2, e2) == e2  # the origin class is idempotent


def test_euler_and_rank_functionals(theta2):
    assert euler_char(theta2.star_unit()) == 1
    assert euler_char(theta2.one()) == 0
    assert rank(theta2.one()) == 1
    e1 = theta2.basis_element(1)
    assert euler_char(star_product(e1, e1)) == euler_char(e1) ** 2 == 0


@pytest.mark.parametrize("name,g", bundled_models(3))
def test_functional_multiplicativity(name, g):
    m = model(name, g)
    for i in range(m.dim):
        for j in range(m.dim):
            x, y = m.basis_element(i), m.basis_element(j)
            assert rank(x * y) == rank(x) * rank(y)
            assert euler_char(star_product(x, y)) == euler_char(x) * euler_char(y)
            assert euler_char(x) == rank(fourier(x))


@pytest.mark.parametrize("name,g", bundled_models(3))
def test_star_is_commutative_and_associative(name, g):
    m = model(name, g)
    basis = m.basis_elements()
    for i in range(m.dim):
        for j in range(i, m.dim):
            assert star_product(basis[i], basis[j]) == star_product(
                basis[j], basis[i]
            )
    for i in range(0, m.dim, 2):
        for j in range(1, m.dim, 2):
            for k in range(m.dim):
                lhs = star_product(star_product(basis[i], basis[j]), basis[k])
                rhs = star_product(basis[i], star_product(basis[j], basis[k]))
                assert lhs == rhs


def test_fourier_inverse_roundtrip(antisym2):
    for e in antisym2.basis_elements():
        assert fourier_inverse(fourier(e)) == e


def test_star_distributes_over_addition(antisym2):
    x = antisym2.basis_element(1)
    y = antisym2.basis_element(antisym2.index_of("a"))
    z = antisym2.basis_element(2) + antisym2.one()
    assert star_product(x + y, z) == star_product(x, z) + star_product(y, z)


def _composite_failures(m, mm, nn):
    """The labels of the basis vectors on which pullback(mm) F F
    pushforward(nn) differs from (-1)^g pullback(-mm) pushforward(nn)."""
    sign = F((-1) ** m.g)
    failures = []
    for label, e in zip(m.labels, m.basis_elements()):
        x = pushforward(m, nn).apply(e)
        if pullback(m, mm).apply(fourier(fourier(x))) != sign * pullback(m, -mm).apply(x):
            failures.append(label)
    return failures


def test_composite_identity_theta1():
    m = theta_model(1)
    assert _composite_failures(m, 1, 1) == []
    # both sides act as minus the identity here
    sign = F(-1)
    for e in m.basis_elements():
        lhs = pullback(m, 1).apply(fourier(fourier(pushforward(m, 1).apply(e))))
        assert lhs == sign * e
        assert sign * pullback(m, -1).apply(pushforward(m, 1).apply(e)) == sign * e


@pytest.mark.parametrize("name,g", bundled_models(3))
def test_composite_identity_all_small_twists(name, g):
    m = model(name, g)
    for mm in range(-2, 3):
        for nn in range(-2, 3):
            assert _composite_failures(m, mm, nn) == []


def test_identity_expansion_scalar():
    # g = 1, d = 2: 3*0 - 3*1 + 1*4 = 1
    coeffs = identity_expansion_coefficients(1)
    assert coeffs == (3, -3, 1)
    total = sum(c * F(-m) ** 2 for m, c in enumerate(coeffs))
    assert total == 1


@pytest.mark.parametrize("g", range(1, 7))
def test_identity_expansion_all_degrees(g):
    coeffs = identity_expansion_coefficients(g)
    for d in range(2 * g + 1):
        assert sum(c * F(-m) ** d for m, c in enumerate(coeffs)) == 1


@pytest.mark.parametrize("name,g", [("theta", 2), ("antisym", 3), ("violator", 2)])
def test_identity_expansion_as_operator(name, g):
    m = model(name, g)
    coeffs = identity_expansion_coefficients(g)
    for e in m.basis_elements():
        terms = [c * pushforward(m, -k).apply(e) for k, c in enumerate(coeffs)]
        assert sum(terms, m.zero()) == e
    assert run_verify_suite(m, name).statements[1] == Statement("identity-expansion", "pass")


def test_pushforward_relation_reproduces_identity_expansion():
    # resolving the (-1)-pushforward mirrors the identity expansion exactly
    rel = pushforward_relation(-1, 1)
    assert rel.coefficients == (F(3), F(-3), F(1))
    assert rel.integral
    for g in range(1, 4):
        assert pushforward_relation(-1, g).coefficients == tuple(
            map(F, identity_expansion_coefficients(g))
        )


@pytest.mark.parametrize("g", range(1, 4))
def test_pushforward_relation_solves_power_system(g):
    for k in (-2, -1, 2 * g + 1, 5):
        rel = pushforward_relation(k, g)
        for d in range(2 * g + 1):
            total = sum(
                c * F(m) ** d for m, c in enumerate(rel.coefficients)
            )
            assert total == F(k) ** d


def test_pushforward_relation_trivial_inside_range():
    rel = pushforward_relation(2, 2)
    assert rel.coefficients == (F(0), F(0), F(1), F(0), F(0))


@pytest.mark.parametrize("name,g", bundled_models(3))
def test_pushforward_invertible_nonzero(name, g):
    m = model(name, g)
    for n in (1, -1, 2, -2, 3):
        assert all(v != 0 for v in pushforward(m, n).eigenvalues)


@pytest.mark.parametrize("name,g", bundled_models(3))
def test_pushforward_is_star_ring_map(name, g):
    m = model(name, g)
    basis = m.basis_elements()
    for k in (-2, -1, 0, 1, 2):
        push = pushforward(m, k)
        for i in range(m.dim):
            for j in range(i, m.dim):
                assert push.apply(star_product(basis[i], basis[j])) == star_product(
                    push.apply(basis[i]), push.apply(basis[j])
                )


def test_diagonal_operator_matrix(theta2):
    # the operator's matrix is diagonal: e_i goes to its eigenvalue times e_i
    op = pullback(theta2, 2)
    for lam, e in zip(op.eigenvalues, theta2.basis_elements()):
        assert op.apply(e) == lam * e
    x = theta2.from_coords([1, F(-1, 2), 3])
    want = [lam * c for lam, c in zip(op.eigenvalues, x.coords)]
    assert op.apply(x) == theta2.from_coords(want)


def test_composite_check_reports_first_failing_vector():
    # an unvalidated model with a rescaled Fourier operator breaks the
    # composite identity; the checker must name the first basis vector
    basis, mul, fm = theta_raw(1)
    fm[0][1] *= 3
    bad = ModelAlgebra(1, basis, mul, fm, unit_index=0, star_unit_index=1)
    by_id = {s.id: s for s in run_verify_suite(bad, "rescaled fm").statements}
    assert by_id["prop-F_qmF_pn"] == Statement(
        "prop-F_qmF_pn", "fail", detail="(m, n)=(-2, -2)", witness="e0"
    )
    assert _composite_failures(bad, 1, 1) == ["e0", "e1"]


def test_element_coerces_int_and_str_coordinates(theta2):
    x = theta2.from_coords([1, "1/2", F(-3, 4)])
    assert x.coords == (F(1), F(1, 2), F(-3, 4))
    assert all(type(c) is Fraction for c in x.coords)
