"""Property tests of the integer kernel: every ``Element`` an operation
returns is in canonical form and equals a plain-``Fraction`` reference
computed here from ``mul_basis`` and the Fourier matrix rows."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kring import Element, adams_operator, fourier, fourier_inverse, pullback, pushforward
from kring.adams import ADAMS_KINDS
from kring.errors import DomainError
from kring.linalg import Matrix
from tests.conftest import bundled_models, model

F = Fraction

MODELS = bundled_models(3)

coordinate = st.one_of(
    st.just(F(0)),
    st.integers(-6, 6).map(F),
    st.fractions(min_value=-20, max_value=20, max_denominator=36),
)


@st.composite
def model_and_vectors(draw, count=2):
    m = model(*draw(st.sampled_from(MODELS)))
    vectors = [
        draw(st.lists(coordinate, min_size=m.dim, max_size=m.dim)) for _ in range(count)
    ]
    return m, vectors


def _canonical(x: Element) -> bool:
    return (
        all(type(n) is int for n in x.nums)
        and type(x.den) is int
        and x.den > 0
        and gcd(x.den, *x.nums) == 1
        and (any(x.nums) or x.den == 1)
    )


def _check(x: Element, want) -> None:
    assert _canonical(x)
    assert x.coords == tuple(want)
    assert all(type(c) is Fraction for c in x.coords)


def _bilinear_reference(m, x, y):
    out = [F(0)] * m.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, c in m.mul_basis(i, j):
                out[k] += xi * yj * c
    return out


def _row_times(rows, x):
    return [sum((xi * row[j] for xi, row in zip(x, rows)), F(0)) for j in range(len(x))]


PROPERTY = settings(max_examples=60, deadline=None)


@PROPERTY
@given(model_and_vectors(), st.one_of(st.integers(-5, 5), st.fractions(max_denominator=9)))
def test_linear_operations_are_canonical_and_exact(case, q):
    m, (a, b) = case
    x, y = m.from_coords(a), m.from_coords(b)
    _check(x, a)
    _check(x + y, [s + t for s, t in zip(a, b)])
    _check(x - y, [s - t for s, t in zip(a, b)])
    _check(x - x, [F(0)] * m.dim)
    _check(-x, [-s for s in a])
    _check(q * x, [q * s for s in a])
    _check(x * q, [q * s for s in a])
    assert Element(m, x.coords) == x


@PROPERTY
@given(model_and_vectors())
def test_products_are_canonical_and_exact(case):
    m, (a, b) = case
    x, y = m.from_coords(a), m.from_coords(b)
    _check(m.multiply(x, y), _bilinear_reference(m, a, b))
    _check(x * y, _bilinear_reference(m, a, b))
    rows = m.fm.rows
    inverse = Matrix(rows).inverse().rows
    star = _row_times(inverse, _bilinear_reference(m, _row_times(rows, a), _row_times(rows, b)))
    _check(m.star_multiply(x, y), star)


@PROPERTY
@given(model_and_vectors(count=1))
def test_fourier_is_canonical_and_exact(case):
    m, (a,) = case
    x = m.from_coords(a)
    rows = m.fm.rows
    _check(fourier(x), _row_times(rows, a))
    _check(fourier_inverse(x), _row_times(Matrix(rows).inverse().rows, a))
    assert fourier_inverse(fourier(x)) == x


@PROPERTY
@given(
    model_and_vectors(count=1),
    st.sampled_from(ADAMS_KINDS + ("pullback", "pushforward")),
    st.integers(-3, 3),
)
def test_diagonal_operators_are_canonical_and_exact(case, kind, n):
    m, (a,) = case
    if kind == "pullback":
        op = pullback(m, n)
    elif kind == "pushforward":
        op = pushforward(m, n)
    else:
        op = adams_operator(m, kind, abs(n) + 1)
    x = m.from_coords(a)
    _check(op.apply(x), [lam * s for lam, s in zip(op.eigenvalues, a)])


def test_numerators_over_a_denominator_are_reduced(theta2):
    x = Element(theta2, [2, -4, 0], -6)
    assert (x.nums, x.den) == ((-1, 2, 0), 3)
    assert x == theta2.from_coords([F(-1, 3), F(2, 3), 0])
    zero = Element(theta2, [0, 0, 0], -7)
    assert (zero.nums, zero.den) == ((0, 0, 0), 1)
    with pytest.raises(DomainError):
        Element(theta2, [1, 0, 0], 0)
