"""Property tests of the integer kernel: every ``Element`` an operation
returns is in canonical form and equals a plain-``Fraction`` reference
computed here from ``mul_basis`` and the exported Fourier matrix rows.  The
combination kernel and the series engine's sums are checked against left
folds of ``+``, and the diagonal operators against ``Fraction`` powers."""

import importlib
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kring import (
    DiagonalOperator,
    Element,
    ModelAlgebra,
    TruncatedSeries,
    adams_operator,
    build_model,
    fourier,
    fourier_inverse,
    gamma_series,
    kind_ring,
    lambda_series,
    pullback,
    pushforward,
    reports,
    run_conjecture_suite,
    run_verify_suite,
    star_product,
    theta_model,
)
from kring.adams import ADAMS_KINDS, _adams_log, _substituted_log, _weighted_log, adams_weight
from kring.errors import DomainError, StructureError
from kring.reports import Statement
from kring.series import RATIONALS
from tests.conftest import basis_change, bundled_models, conjugate, fm_rows, model
from tests.test_basis_change import TENSORS
from tests.test_basis_change import _model as _tensor_or_bundled
from tests.test_linalg import _reference_rref
from tests.test_model import _theta_raw

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


def _reference_inverse(rows):
    """The inverse of the square ``Fraction`` rows: the right half of the
    reference RREF of [rows | I]."""
    n = len(rows)
    aug = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    return [row[n:] for row in _reference_rref(aug, 2 * n)[0]]


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
    rows = fm_rows(m)
    inverse = _reference_inverse(rows)
    star = _row_times(inverse, _bilinear_reference(m, _row_times(rows, a), _row_times(rows, b)))
    _check(m.star_multiply(x, y), star)
    # a factor equal to the product's unit returns the other factor
    for unit, product in ((m.one(), m.multiply), (m.star_unit(), m.star_multiply)):
        _check(product(unit, x), a)
        _check(product(x, unit), a)


def test_unit_shortcut_needs_the_unit_law():
    # e0 . e1 = 2 e1 breaks the left unit law, so the product is made in full
    basis, mul, fm = _theta_raw(2)
    mul[(0, 1)] = {1: F(2)}
    bad = ModelAlgebra(2, basis, mul, fm, unit_index=0, star_unit_index=2)
    e1 = bad.basis_element(1)
    assert bad.multiply(bad.one(), e1) == 2 * e1
    assert bad.multiply(e1, bad.one()) == e1


@PROPERTY
@given(model_and_vectors(count=1))
def test_fourier_is_canonical_and_exact(case):
    m, (a,) = case
    x = m.from_coords(a)
    rows = fm_rows(m)
    _check(fourier(x), _row_times(rows, a))
    _check(fourier_inverse(x), _row_times(_reference_inverse(rows), a))
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


# -- the combination kernel and the series engine's sums ----------------------

scalar = st.one_of(st.just(0), st.integers(-5, 5), st.fractions(max_denominator=12))


@PROPERTY
@given(model_and_vectors(count=4), st.lists(scalar, max_size=4), st.integers(1, 9))
def test_combine_equals_a_left_fold(case, scalars, den):
    m, vectors = case
    terms = [(c, m.from_coords(v)) for c, v in zip(scalars, vectors)]
    fold = m.zero()
    for c, x in terms:
        fold = fold + c * x
    ring = kind_ring(m, "usual")
    got = ring.sum(terms, den)
    assert _canonical(got)
    assert got == F(1, den) * fold
    assert ring.sum(terms) == fold
    assert ring.sum([]) == m.zero()


def _fold_mul(a, b):
    """The Cauchy product as a left fold of ring products and ``+``."""
    mul, zero = a.ring.mul, a.ring.zero
    n = a.order
    out = [zero] * (n + 1)
    for i, x in enumerate(a.coeffs):
        if x == zero:
            continue
        for j in range(n - i + 1):
            if b.coeffs[j] != zero:
                out[i + j] = out[i + j] + mul(x, b.coeffs[j])
    return tuple(out)


def _fold_exp(s):
    """exp by the recurrence m a_m = sum_k k f_k a_{m-k}, term by term."""
    mul, zero, one = s.ring.mul, s.ring.zero, s.ring.one
    weighted = [(k, F(k) * f) for k, f in enumerate(s.coeffs) if k and f != zero]
    out = [one]
    for m in range(1, s.order + 1):
        acc = zero
        for k, kf in weighted:
            if k > m:
                break
            if k == m:
                acc = acc + kf
            elif out[m - k] != zero:
                acc = acc + mul(kf, out[m - k])
        out.append(F(1, m) * acc)
    return tuple(out)


@st.composite
def model_series(draw):
    m = model(*draw(st.sampled_from(MODELS)))
    ring = kind_ring(m, draw(st.sampled_from(ADAMS_KINDS)))
    order = draw(st.integers(1, 5))

    def series():
        coeffs = [
            m.from_coords(draw(st.lists(coordinate, min_size=m.dim, max_size=m.dim)))
            if draw(st.booleans())
            else m.zero()
            for _ in range(order)
        ]
        return TruncatedSeries([ring.zero] + coeffs, ring)

    return series(), series()


@settings(max_examples=40, deadline=None)
@given(model_series())
def test_series_sums_match_the_term_by_term_loops(pair):
    a, b = pair
    assert (a * b).coeffs == _fold_mul(a, b)
    assert (a.constant(a.ring.one) + a) * b == b + a * b
    assert a.exp().coeffs == _fold_exp(a)


# -- exp on a presentation f = sum_r s_r(t) x_r ---------------------------------

PRESENTED_SPECS = [(spec, conj) for spec in bundled_models(4) + TENSORS for conj in (False, True)]


@lru_cache(maxsize=None)
def _presented_model(spec, conjugated):
    m = _tensor_or_bundled(spec)
    return conjugate(m, basis_change(m)) if conjugated else m


@PROPERTY
@given(st.sampled_from(PRESENTED_SPECS), st.integers(1, 8), st.data())
def test_presented_series_match_the_coefficient_recurrence(case, order, data):
    # gamma and lambda series run exp on the Adams-weight presentation when
    # it bounds the products lower; the result must be the term-by-term
    # recurrence on the series' own coefficients, for every family
    m = _presented_model(*case)
    x = m.from_coords(data.draw(st.lists(coordinate, min_size=m.dim, max_size=m.dim)))
    for kind in ADAMS_KINDS:
        for make, log in ((gamma_series, _substituted_log), (lambda_series, _adams_log)):
            want = _fold_exp(_weighted_log(m, kind, x, order, log))
            assert make(m, kind, x, order).coeffs == want


@st.composite
def presented_series(draw):
    """A series given by random generators x_r over Q or a model ring, with
    random rational series s_r; the x_r overlap, as they share a pool."""
    if draw(st.booleans()):
        ring = RATIONALS
        pool = draw(st.lists(coordinate, min_size=1, max_size=3))
    else:
        m = model(*draw(st.sampled_from(MODELS)))
        ring = kind_ring(m, draw(st.sampled_from(ADAMS_KINDS)))
        vectors = st.lists(coordinate, min_size=m.dim, max_size=m.dim)
        pool = [m.from_coords(v) for v in draw(st.lists(vectors, min_size=1, max_size=3))]
    pool += [ring.one, -pool[0]]  # a unit factor, and a generator that cancels
    order = draw(st.integers(1, 6))
    presentation = []
    for _ in range(draw(st.integers(0, 4))):
        s = draw(st.lists(coordinate, min_size=order, max_size=order))
        scaled = tuple((k, k * c) for k, c in enumerate(s, 1) if c)
        if scaled:
            presentation.append((draw(st.sampled_from(pool)), scaled))
    coeffs = [ring.zero] + [
        sum((c / k * x for x, scaled in presentation for j, c in scaled if j == k), ring.zero)
        for k in range(1, order + 1)
    ]
    return TruncatedSeries(coeffs, ring, presentation)


@PROPERTY
@given(presented_series())
def test_exp_on_a_presentation_matches_the_term_by_term_loop(series):
    assert series.exp().coeffs == _fold_exp(series)


# -- the accumulation kernel under the series engine ------------------------------


def _reference_product(m, kind):
    """The product of the ``kind`` ring on ``Fraction`` coordinates."""
    if kind != "star":
        return lambda a, b: _bilinear_reference(m, a, b)
    rows = fm_rows(m)
    inverse = _reference_inverse(rows)
    return lambda a, b: _row_times(
        inverse, _bilinear_reference(m, _row_times(rows, a), _row_times(rows, b))
    )


@st.composite
def kernel_series(draw):
    """Two series over the ordinary or the star ring of a bundled, tensor or
    conjugated model.  A coefficient is zero, the unit, a random vector or
    the negative of an earlier one, so some products cancel."""
    m = _presented_model(*draw(st.sampled_from(PRESENTED_SPECS)))
    kind = draw(st.sampled_from(("usual", "star")))
    ring = kind_ring(m, kind)
    order = draw(st.integers(1, 4))
    drawn = [m.from_coords(draw(st.lists(coordinate, min_size=m.dim, max_size=m.dim)))]

    def coefficient():
        pick = draw(st.sampled_from(("zero", "unit", "vector", "negated")))
        if pick == "zero":
            return ring.zero
        if pick == "unit":
            return ring.one
        if pick == "negated":
            return -draw(st.sampled_from(drawn))
        drawn.append(m.from_coords(draw(st.lists(coordinate, min_size=m.dim, max_size=m.dim))))
        return drawn[-1]

    def series():
        return TruncatedSeries([ring.zero] + [coefficient() for _ in range(order)], ring)

    return m, kind, series(), series()


def _leaves_in_lowest_terms(series):
    for c in series.coeffs:
        assert _canonical(c)
        assert not c.is_zero() or c == series.ring.zero


@settings(max_examples=40, deadline=None)
@given(kernel_series())
def test_series_kernel_matches_the_fraction_references(case):
    m, kind, a, b = case
    product = _reference_product(m, kind)
    ab, exp = a * b, a.exp()
    assert ab.coeffs == _fold_mul(a, b)
    assert exp.coeffs == _fold_exp(a)
    for s, c in enumerate(ab.coeffs):
        want = [F(0)] * m.dim
        for i in range(s + 1):
            term = product(a.coeffs[i].coords, b.coeffs[s - i].coords)
            want = [w + t for w, t in zip(want, term)]
        _check(c, want)
    # exp by the recurrence m a_m = sum_k k f_k a_{m-k} on coordinates
    want = [list(a.ring.one.coords)]
    for n in range(1, a.order + 1):
        acc = [F(0)] * m.dim
        for k in range(1, n + 1):
            term = product(a.coeffs[k].coords, want[n - k])
            acc = [s + k * t for s, t in zip(acc, term)]
        want.append([s / n for s in acc])
    for c, coords in zip(exp.coeffs, want):
        _check(c, coords)
    _leaves_in_lowest_terms(ab)
    _leaves_in_lowest_terms(exp)


@pytest.mark.parametrize("kind", ["usual", "star"])
def test_cancelled_sums_are_the_ring_zero(kind):
    m = build_model("violator", 3)
    ring = kind_ring(m, kind)
    x = next(e for e in m.basis_elements() if e != ring.one and ring.mul(e, e) != ring.zero)
    # t^3 of (x t + x t^2)(x t - x t^2) sums x (-x) and x x
    a = TruncatedSeries([ring.zero, x, x, ring.zero], ring)
    b = TruncatedSeries([ring.zero, x, -x, ring.zero], ring)
    ab = (a * b).coeffs
    assert ab[2] == ring.mul(x, x) and ab[3] == ring.zero
    assert _canonical(ab[3])
    # f = x t - x t pushes two terms to a_1 that cancel
    f = TruncatedSeries(None, ring, [(x, ((1, 1),)), (-x, ((1, 1),))], 3)
    assert f.exp().coeffs == (ring.one, ring.zero, ring.zero, ring.zero)
    assert all(_canonical(c) for c in f.exp().coeffs)


@pytest.mark.parametrize("name,g", MODELS)
def test_kind_rings_built_twice_are_equal(name, g):
    m = model(name, g)
    for kind in ADAMS_KINDS:
        assert kind_ring(m, kind) == kind_ring(m, kind)


@PROPERTY
@given(
    st.sampled_from(MODELS),
    st.integers(-3, 3),
    st.data(),
)
def test_diagonal_operators_match_fraction_powers(case, k, data):
    m = model(*case)
    weights = st.lists(st.integers(-4, 4), min_size=m.dim, max_size=m.dim)
    v, w = data.draw(weights), data.draw(weights)
    if not k:  # 0^w needs w >= 0; 0^0 = 1
        v, w = [abs(x) for x in v], [abs(x) for x in w]
    a = DiagonalOperator.of_powers(m, k, v)
    b = DiagonalOperator.of_powers(m, k, w)
    assert a.eigenvalues == tuple(F(k) ** x for x in v)
    ab = a.compose(b)
    assert ab.den > 0 and gcd(ab.den, *ab.nums) == 1
    assert ab.eigenvalues == tuple(F(k) ** (x + y) for x, y in zip(v, w))
    assert ab == DiagonalOperator.of_powers(m, k, [x + y for x, y in zip(v, w)])


def test_diagonal_operators_keep_zero_to_the_zero(theta2):
    assert pullback(theta2, 0).eigenvalues == (1, 0, 0)
    assert pushforward(theta2, 0).eigenvalues == (0, 0, 1)
    assert adams_operator(theta2, "pi_star", 2).eigenvalues == (1, F(1, 2), F(1, 4))


# -- every kernel refuses an element of another model -------------------------


def _square(series):
    return series * series


def _foreign_calls():
    a, b = theta_model(2), theta_model(2)
    x, y = b.basis_element(1), b.basis_element(2)
    return [
        ("multiply", lambda: a.multiply(x, y)),
        ("multiply, one side", lambda: a.multiply(a.basis_element(1), y)),
        ("star_multiply", lambda: a.star_multiply(x, y)),
        ("star_product", lambda: star_product(a.star_unit(), y)),
        ("fourier", lambda: a.fourier(x)),
        ("fourier_inverse", lambda: a.fourier_inverse(x)),
        ("DiagonalOperator.apply", lambda: pullback(a, 2).apply(x)),
        ("Ring.sum", lambda: kind_ring(a, "usual").sum([(1, a.one()), (2, x)])),
        ("Ring.sum, one term", lambda: kind_ring(a, "star").sum([(1, x)])),
        # the unit shortcut comes after the model check
        ("multiply, foreign unit", lambda: a.multiply(b.one(), a.basis_element(1))),
        ("multiply, foreign unit right", lambda: a.multiply(a.basis_element(1), b.one())),
        ("star_multiply, foreign unit", lambda: a.star_multiply(b.star_unit(), a.one())),
        ("accumulate", lambda: a._kernel(False).accumulate([0] * a.dim, 1, x, y)),
        ("accumulate, foreign unit", lambda: a._kernel(False).accumulate([0] * 3, 1, b.one(), x)),
        ("accumulate, star", lambda: a._kernel(True).accumulate([0] * 3, 1, a.one(), y)),
        ("series product", lambda: _square(TruncatedSeries([x, y], kind_ring(a, "usual")))),
        ("series exp", lambda: TruncatedSeries([a.zero(), x], kind_ring(a, "star")).exp()),
    ]


@pytest.mark.parametrize("entry", range(len(_foreign_calls())))
def test_kernels_refuse_elements_of_another_model(entry):
    name, call = _foreign_calls()[entry]
    with pytest.raises(StructureError):
        call()


# -- a deterministic guard on the series engine's sums -------------------------


@pytest.mark.parametrize("kind", ADAMS_KINDS)
def test_gamma_series_builds_one_element_per_product_or_sum(kind, monkeypatch):
    m = theta_model(4)
    x = m.from_coords([2, 1, F(-1, 2), 3, F(2, 3)])
    order = 18
    m.star_table  # built once per model, before counting
    counts = {"elements": 0}
    init = Element.__init__

    def counted_init(self, *args):
        counts["elements"] += 1
        init(self, *args)

    monkeypatch.setattr(Element, "__init__", counted_init)
    products = _count_products(monkeypatch)
    gamma_series(m, kind, x, order)
    # exp runs on the Adams-weight presentation: one product x_w a_j per
    # weight w and per j = 1 .. order - min supp S_w (no a_j vanishes here)
    weights = {adams_weight(kind, *m.bidegrees[i], m.g) for i, n in enumerate(x.nums) if n}
    supports = [
        [k for k, c in enumerate(_substituted_log(w - 1, order).coeffs) if c] for w in weights
    ]
    assert products["products"] == sum(order - min(ks) for ks in supports)
    # the products and their sums stay integer vectors, and the weighted
    # log builds no coefficient: the only Elements are the ring's zero and
    # unit, one per Adams weight component of x and one per coefficient
    # a_1 .. a_N of exp
    assert counts["elements"] == 2 + len(weights) + order


def test_verify_computes_each_value_once(monkeypatch):
    # a deterministic count, not a time: on violator(3), walking every pair
    # and recomputing repeated values took 4,789 products and 30 series
    # exps; leaving out the pairs with no table entry and reusing products,
    # Fourier images, gamma images and gamma series takes 2,696 and 25
    m = build_model("violator", 3)
    m.star_table  # built once per model, before counting
    counts = _count_products(monkeypatch)
    exp = TruncatedSeries.exp
    counts["exps"] = 0

    def counted_exp(self):
        counts["exps"] += 1
        return exp(self)

    monkeypatch.setattr(TruncatedSeries, "exp", counted_exp)
    assert run_verify_suite(m, "violator(g=3)").ok
    assert counts["products"] <= 3000
    assert counts["exps"] <= 25


def _count_products(monkeypatch) -> dict:
    """Count the ring products: the calls of the accumulation kernel, which
    both ``_bilinear`` and the series engine run on."""
    model_module = importlib.import_module("kring.model")
    accumulate = model_module._accumulate
    counts = {"products": 0}

    def counted_accumulate(*args):
        counts["products"] += 1
        return accumulate(*args)

    monkeypatch.setattr(model_module, "_accumulate", counted_accumulate)
    return counts


@pytest.mark.parametrize(
    "name,g,products", [("theta", 4, 1759), ("antisym", 3, 1110), ("violator", 3, 1004)]
)
def test_addition_law_products(name, g, products, monkeypatch):
    # a deterministic count, not a time: one exp product per (k, m) pair and
    # a comparison for every triple took 4,076 / 1,680 / 1,554 products; exp
    # on the Adams-weight presentation, with triples of series keys that
    # have passed skipped, takes the pinned counts
    m = build_model(name, g)
    m.star_table  # built once per model, before counting
    run = reports._Run(m, m.default_series_order, m.basis_elements())
    counts = _count_products(monkeypatch)
    assert Statement.first_failure("gamma-addition-law", reports._addition_law(run)).ok
    assert counts["products"] == products


@pytest.mark.parametrize("name,g,products", [("antisym", 3, 150), ("violator", 3, 215)])
def test_conjecture_products(name, g, products, monkeypatch):
    # conjecture's series have order g, where the coefficient presentation
    # mostly bounds exp lower; the weight presentation wins only for a lone
    # weight whose log series has full support (2 products instead of 3
    # at order 3), so the suite took 174 / 215 products where one product
    # per (k, m) pair took 181 / 218; the epsilon check's augmentation test
    # reads the product table instead of multiplying, which leaves 150 on
    # antisym (the violator's suite skips that check)
    m = build_model(name, g)
    m.star_table
    counts = _count_products(monkeypatch)
    run_conjecture_suite(m, name)
    assert counts["products"] == products
