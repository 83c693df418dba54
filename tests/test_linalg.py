"""Exact linear algebra: row reduction, subspace lattice, power matrices."""

import importlib
from fractions import Fraction
from itertools import permutations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kring import (
    ModelAlgebra,
    Subspace,
    fourier,
    fourier_inverse,
    vandermonde_det,
    vandermonde_matrix,
)
from kring.errors import DomainError, StructureError
from kring.linalg import _bareiss, _insert, _integer_kernel, _integer_row, _rref_rows
from tests import oracle
from tests.conftest import bundled_models, model

F = Fraction


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _cleared(rows) -> list:
    """Each rational row times the least common multiple of its denominators."""
    return [_integer_row(r)[0] for r in rows]


def _fourier_model(rows) -> ModelAlgebra:
    """A model whose Fourier matrix is the square ``rows``, with no products:
    ``ModelAlgebra`` checks shapes only, so any square matrix will do."""
    basis = [(f"b{i}", (0, 0)) for i in range(len(rows))]
    return ModelAlgebra(1, basis, {}, rows, unit_index=0, star_unit_index=0)


def test_rref_identity_is_fixed():
    rows = [(tuple(r), 1) for r in _identity(3)]
    assert _rref_rows(_identity(3), 3) == (rows, [0, 1, 2])


def test_rref_rank_one_dependency():
    rows = [[1, 1], [2, 2]]
    assert _rref_rows([list(r) for r in rows], 2) == ([((1, 1), 1)], [0])
    assert Subspace.span(2, rows).dim == 1


def test_rref_small_power_matrix_full_rank():
    # nodes 0, 1, 2 against exponents 0, 1, 2, with 0**0 = 1
    rows = [[a**k for k in range(3)] for a in range(3)]
    assert Subspace.span(3, rows).dim == 3
    assert _bareiss(rows, 3)[1] == _vandermonde_product_oracle(1) == 2


rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@st.composite
def small_matrices(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(rationals, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return ncols, rows


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rref_is_idempotent(case):
    ncols, rows = case
    reduced = _rref_rows(_cleared(rows), ncols)
    assert _rref_rows(_cleared(rows), ncols) == reduced
    assert _rref_rows([list(nums) for nums, _ in reduced[0]], ncols) == reduced


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_kernel_vectors_annihilate(case):
    ncols, rows = case
    kernel = _integer_kernel(_cleared(rows), ncols)
    for x, s in kernel:
        assert s > 0 and s in x
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)
    assert Subspace.span(ncols, rows).dim + len(kernel) == ncols


def _assert_inverse(rows):
    """``fourier_inverse`` inverts the Fourier matrix ``rows`` on both
    sides: F^-1 F and F F^-1 fix every basis vector."""
    m = _fourier_model(rows)
    for e in m.basis_elements():
        assert fourier_inverse(fourier(e)) == e
        assert fourier(fourier_inverse(e)) == e


def test_matrix_inverse_roundtrip():
    _assert_inverse([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    singular = _fourier_model([[1, 1], [1, 1]])
    with pytest.raises(StructureError, match="singular"):
        fourier_inverse(singular.one())


def test_solve_unique_system():
    # the RREF of the augmented integer rows [M | b] holds the solution of
    # M x = b in its last column, as ``pushforward_relation`` reads it
    assert _rref_rows([[2, 0, 4], [1, 1, 3]], 3) == ([((1, 0, 2), 1), ((0, 1, 1), 1)], [0, 1])


def test_span_empty_is_zero():
    s = Subspace.span(3, [])
    assert s.dim == 0
    assert s == Subspace.zero(3)


def test_sum_of_coordinate_lines():
    e1 = [1, 0, 0]
    e2 = [0, 1, 0]
    s = Subspace.span(3, [e1]) + Subspace.span(3, [e2])
    assert s.dim == 2


def test_intersection_hand_oracle():
    # span{e1+e2, e3} meets span{e1+e2, e1} exactly in span{e1+e2}
    a = Subspace.span(3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace.span(3, [[1, 1, 0], [1, 0, 0]])
    meet = a.intersect(b)
    assert meet == Subspace.span(3, [[1, 1, 0]])


@st.composite
def subspace_pairs(draw):
    dim = draw(st.integers(1, 4))
    vecs = st.lists(
        st.lists(rationals, min_size=dim, max_size=dim), min_size=0, max_size=3
    )
    return Subspace.span(dim, draw(vecs)), Subspace.span(dim, draw(vecs))


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_dimension_formula(pair):
    a, b = pair
    assert a.dim + b.dim == (a + b).dim + a.intersect(b).dim


@settings(max_examples=60, deadline=None)
@given(subspace_pairs(), st.lists(rationals, min_size=4, max_size=4))
def test_contains_agrees_with_span_growth(pair, vec):
    a, _ = pair
    v = vec[: a.ambient_dim]
    grown = a + Subspace.span(a.ambient_dim, [v])
    assert a.contains(v) == (grown.dim == a.dim)


def test_subspace_canonical_equality():
    # two generating sets of the same plane give identical representations
    a = Subspace.span(3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace.span(3, [[1, 2, 1], [2, 3, 1]])
    assert a == b
    assert a.basis == b.basis == ((1, 0, -1), (0, 1, 1))
    # the stored integer rows are in lowest terms whatever the pivots met
    assert Subspace.span(2, [[2, 0], [0, 1]]) == Subspace.full(2)


def test_intersection_mismatched_ambient_raises():
    with pytest.raises(StructureError):
        Subspace.span(2, [[1, 0]]).intersect(Subspace.span(3, [[1, 0, 0]]))


def _vandermonde_product_oracle(g: int) -> Fraction:
    nodes = list(range(2 * g + 1))
    out = F(1)
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            out *= nodes[j] - nodes[i]
    return out


def test_vandermonde_det_known_values():
    assert vandermonde_det(1) == 2
    assert vandermonde_det(2) == 288


@pytest.mark.parametrize("g", range(1, 7))
def test_vandermonde_det_nonzero_and_matches_product(g):
    det = vandermonde_det(g)
    assert det != 0
    assert det == _vandermonde_product_oracle(g)


def test_vandermonde_zero_power_convention():
    # first row is (0^0, 0^1, ...) = (1, 0, 0, ...)
    assert vandermonde_matrix(1) == ((1, 0, 0), (1, 1, 1), (1, 2, 4))


def test_vandermonde_requires_positive_g():
    with pytest.raises(DomainError):
        vandermonde_det(0)


# -- the integer core against the oracle's Fraction elimination ------------------


def _fraction_row(row):
    nums, den = row
    return tuple(F(n, den) for n in nums)


mixed = st.one_of(
    st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.fractions(min_value=-30, max_value=30, max_denominator=60),
)


@st.composite
def awkward_rows(draw, ncols=None, max_rows=6):
    """Rational rows with mixed denominators, among them zero rows,
    duplicate rows and negated rows (negative leading entries)."""
    if ncols is None:
        ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(mixed, min_size=ncols, max_size=ncols), max_size=max_rows))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "negated", "multiple"]))
        if kind == "zero" or not rows:
            new = [F(0)] * ncols
        else:
            base = rows[draw(st.integers(0, len(rows) - 1))]
            scale = {"duplicate": 1, "negated": -1}.get(kind) or draw(mixed.filter(bool))
            new = [scale * c for c in base]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return ncols, rows


CORE = settings(max_examples=40, deadline=None)


@CORE
@given(awkward_rows())
def test_rref_matches_the_fraction_reference(case):
    ncols, rows = case
    want, want_pivots = oracle.rref(rows, ncols)
    reduced, pivots = _rref_rows(_cleared(rows), ncols)
    assert [_fraction_row(r) for r in reduced] == [tuple(r) for r in want[: len(pivots)]]
    assert pivots == want_pivots
    s = Subspace.span(ncols, rows)
    assert s.basis == tuple(tuple(r) for r in want[: len(want_pivots)])
    assert list(s.pivots) == want_pivots
    assert s.dim == len(want_pivots)


@CORE
@given(awkward_rows())
def test_subspace_rows_are_canonical(case):
    ncols, rows = case
    s = Subspace.span(ncols, rows)
    for (nums, den), p in zip(s.rows, s.pivots):
        assert all(type(n) is int for n in nums) and type(den) is int
        assert den > 0
        assert nums[p] == den
        assert gcd(den, *nums) == 1
        assert all(nums[q] == 0 for q in s.pivots if q != p)
    # any generating set of the same space gives the same stored form
    assert Subspace.span(ncols, [_fraction_row(r) for r in reversed(s.rows)]) == s
    assert hash(Subspace.span(ncols, list(reversed(rows)))) == hash(s)


def _directions(rows) -> set:
    """The nonzero rows up to scale: each divided by its first nonzero entry."""
    out = set()
    for row in rows:
        lead = next((c for c in row if c), None)
        if lead is not None:
            out.add(tuple(F(c) / lead for c in row))
    return out


# nonzero rationals of either sign, drawn without filtering
nonzero = st.builds(lambda sign, n, d: F(sign * n, d), st.sampled_from([1, -1]),
                    st.integers(1, 30), st.integers(1, 60))


@CORE
@given(awkward_rows(), st.lists(nonzero, min_size=1, max_size=6), st.randoms())
def test_span_ignores_order_scale_repeats_and_zero_rows(case, scales, rnd):
    ncols, rows = case
    s = Subspace.span(ncols, rows)
    noisy = rows + [[c * k for c in row] for row, k in zip(rows, scales)] + [[F(0)] * ncols]
    rnd.shuffle(noisy)
    linalg = importlib.import_module("kring.linalg")
    rref, seen = linalg._rref_rows, []

    def counted(rows, ncols):
        seen.append(len(rows))
        return rref(rows, ncols)

    linalg._rref_rows = counted
    try:
        t = Subspace.span(ncols, noisy)
    finally:
        linalg._rref_rows = rref
    assert t == s and t.pivots == s.pivots
    # one row per direction reaches the elimination
    assert seen == [len(_directions(rows))]


@st.composite
def coordinate_indices(draw):
    n = draw(st.integers(0, 6))
    idx = draw(st.lists(st.integers(0, n - 1), max_size=8)) if n else []
    return n, idx


@CORE
@given(coordinate_indices())
def test_coordinate_is_the_span_of_unit_vectors(case):
    n, idx = case
    s = Subspace.coordinate(n, idx)
    want = Subspace.span(n, [[int(i == j) for j in range(n)] for i in idx])
    assert s == want and s.pivots == want.pivots == tuple(sorted(set(idx)))


def test_coordinate_rejects_indices_outside_the_ambient_dimension():
    for idx in ([3], [-1], [0, 5]):
        with pytest.raises(StructureError):
            Subspace.coordinate(3, idx)
    assert Subspace.coordinate(3, range(3)) == Subspace.full(3)
    assert Subspace.coordinate(3, ()) == Subspace.zero(3)


@st.composite
def subspaces_and_vector(draw):
    ncols, a = draw(awkward_rows())
    _, b = draw(awkward_rows(ncols=ncols))
    v = draw(st.lists(mixed, min_size=ncols, max_size=ncols))
    if a and draw(st.booleans()):
        # a vector of the first space, so both outcomes of contains occur
        v = [sum(c * row[j] for c, row in zip(v, a)) for j in range(ncols)]
    return ncols, a, b, v


@CORE
@given(subspaces_and_vector())
def test_reduce_and_contains_match_the_reference(case):
    ncols, a, _, v = case
    s = Subspace.span(ncols, a)
    basis, pivots = oracle.span(a, ncols)
    want = oracle.reduce(basis, pivots, v)
    nums, den = s.reduce(v)
    assert den > 0 and gcd(den, *nums) == 1
    assert _fraction_row((nums, den)) == want
    assert s.contains(v) == (not any(want))


@CORE
@given(awkward_rows(max_rows=8))
def test_echelon_insert_matches_the_reference(case):
    # awkward rows repeat, negate and scale earlier rows, so both outcomes
    # of the insert occur
    ncols, vectors = case
    rows, pivots = [], []
    for k, v in enumerate(vectors):
        basis, ref_pivots = oracle.span(vectors[:k], ncols)
        new = _insert(rows, pivots, v, ncols)
        assert (new is None) == (not any(oracle.reduce(basis, ref_pivots, v)))
        if new is not None:
            p = next(k for k, c in enumerate(new) if c)
            assert rows[-1] == (new, new[p]) and pivots[-1] == p
            assert gcd(*new) == 1 and new[p] > 0
    assert len(rows) == len(pivots) == len(oracle.span(vectors, ncols)[1])
    for k, (row, _) in enumerate(rows):
        assert all(row[p] == 0 for p in pivots[:k])
    assert Subspace.span(ncols, [row for row, _ in rows]) == Subspace.span(ncols, vectors)


@CORE
@given(subspaces_and_vector())
def test_intersect_and_inclusion_match_the_reference(case):
    ncols, a, b, _ = case
    sa, sb = Subspace.span(ncols, a), Subspace.span(ncols, b)
    basis_a, piv_a = oracle.span(a, ncols)
    basis_b, piv_b = oracle.span(b, ncols)
    a_in_b = not any(any(oracle.reduce(basis_b, piv_b, r)) for r in basis_a)
    assert sa.is_subspace_of(sb) == a_in_b
    meet = sa.intersect(sb)
    # meet lies in both spaces and has dimension dim a + dim b - dim (a + b),
    # which pins it down as the intersection
    for r in meet.basis:
        assert not any(oracle.reduce(basis_a, piv_a, r))
        assert not any(oracle.reduce(basis_b, piv_b, r))
    joint = len(oracle.span(basis_a + basis_b, ncols)[1])
    assert meet.dim == len(piv_a) + len(piv_b) - joint


def _leibniz_det(rows):
    n = len(rows)
    out = F(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = F((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        out += term
    return out


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    _, rows = draw(awkward_rows(ncols=n, max_rows=n))
    rows = (rows + draw(st.lists(st.lists(mixed, min_size=n, max_size=n), min_size=n, max_size=n)))[:n]
    return rows


@CORE
@given(square_matrices())
def test_bareiss_det_and_inverse(rows):
    # the last Bareiss pivot of the cleared rows, over the product of the
    # factors that cleared them, is the determinant
    cleared = [_integer_row(r) for r in rows]
    pivots, last = _bareiss([nums for nums, _ in cleared], len(rows))
    det = F(last, prod(den for _, den in cleared)) if len(pivots) == len(rows) else 0
    assert det == _leibniz_det(rows)
    if det:
        _assert_inverse(rows)
    else:
        with pytest.raises(StructureError, match="singular"):
            fourier_inverse(_fourier_model(rows).one())


@st.composite
def model_elements(draw):
    m = model(*draw(st.sampled_from(bundled_models(3))))
    coords = st.lists(mixed, min_size=m.dim, max_size=m.dim)
    return m, [m.from_coords(c) for c in draw(st.lists(coords, max_size=4))], m.from_coords(draw(coords))


@settings(max_examples=40, deadline=None)
@given(model_elements())
def test_elements_and_their_coords_give_the_same_subspace(case):
    m, elements, x = case
    s = Subspace.span(m.dim, elements)
    assert s == Subspace.span(m.dim, [e.coords for e in elements])
    assert s.reduce(x) == s.reduce(x.coords)
    assert s.contains(x) == s.contains(x.coords)
    assert all(s.contains(e) for e in elements)
