"""Property tests of the integer kernel: every ``Element`` an operation
returns is in canonical form and equals the plain-``Fraction`` value of
``tests/oracle.py``, computed from ``mul_basis`` and the exported Fourier
matrix rows.  The series engine's products and ``exp`` are checked against
the oracle's Cauchy product and power sum, the combination kernel against a
left fold of ``+``, and the diagonal operators against ``Fraction``
powers."""

import importlib
from fractions import Fraction
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
from kring.adams import ADAMS_KINDS, _substituted_log, adams_weight
from kring.errors import DomainError, StructureError
from kring.reports import Statement
from kring.series import RATIONALS
from tests import oracle
from tests.conftest import TENSORS, bundled_models, model, presented_model, theta_raw

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
    return m, [draw(st.lists(coordinate, min_size=m.dim, max_size=m.dim)) for _ in range(count)]


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
    assert m.from_coords(x.coords) == x


@PROPERTY
@given(model_and_vectors())
def test_products_are_canonical_and_exact(case):
    m, (a, b) = case
    x, y = m.from_coords(a), m.from_coords(b)
    _check(m.multiply(x, y), oracle.product(m, a, b))
    _check(x * y, oracle.product(m, a, b))
    _check(m.star_multiply(x, y), oracle.star_product(m, a, b))
    # a factor equal to the product's unit returns the other factor
    for unit, product in ((m.one(), m.multiply), (m.star_unit(), m.star_multiply)):
        _check(product(unit, x), a)
        _check(product(x, unit), a)


def test_unit_shortcut_needs_the_unit_law():
    # e0 . e1 = 2 e1 breaks the left unit law, so the product is made in full
    basis, mul, fm = theta_raw(2)
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
    _check(fourier(x), oracle.fourier(m, a))
    _check(fourier_inverse(x), oracle.fourier_inverse(m, a))
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


def _vectors(series):
    """A series' coefficients as oracle vectors (one-dimensional over Q)."""
    if series.ring == RATIONALS:
        return [(c,) for c in series.coeffs]
    return [c.coords for c in series.coeffs]


def _leaves_in_lowest_terms(series):
    for c in series.coeffs:
        assert _canonical(c)
        assert not c.is_zero() or c == series.ring.zero


# -- exp on a presentation f = sum_r s_r(t) x_r ---------------------------------

PRESENTED_SPECS = [(spec, conj) for spec in bundled_models(4) + TENSORS for conj in (False, True)]


@PROPERTY
@given(st.sampled_from(PRESENTED_SPECS), st.integers(1, 8), st.sampled_from(ADAMS_KINDS), st.data())
def test_presented_series_match_the_oracle(case, order, kind, data):
    # gamma and lambda series run exp on the Adams-weight presentation when
    # it bounds the products lower; the result must be the series the
    # definition gives, for every family
    m = presented_model(*case)
    x = data.draw(st.lists(coordinate, min_size=m.dim, max_size=m.dim))
    for make, want in ((gamma_series, oracle.gamma_series), (lambda_series, oracle.lambda_series)):
        assert _vectors(make(m, kind, m.from_coords(x), order)) == want(m, kind, x, order)


@st.composite
def presented_series(draw):
    """A series given by random generators x_r over Q or a model ring, with
    random rational series s_r; the x_r overlap, as they share a pool.
    Returns the series and the oracle's product and unit of its ring."""
    if draw(st.booleans()):
        ring, reference = RATIONALS, oracle.RATIONALS
        pool = draw(st.lists(coordinate, min_size=1, max_size=3))
    else:
        m = model(*draw(st.sampled_from(MODELS)))
        kind = draw(st.sampled_from(ADAMS_KINDS))
        ring, reference = kind_ring(m, kind), oracle.ring(m, kind)
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
    return TruncatedSeries(coeffs, ring, presentation), reference


@PROPERTY
@given(presented_series())
def test_exp_on_a_presentation_matches_the_power_sum(case):
    series, reference = case
    assert _vectors(series.exp()) == oracle.exp(_vectors(series), *reference)


# -- the accumulation kernel under the series engine ------------------------------


@st.composite
def kernel_series(draw):
    """Two series over the ordinary or the star ring of a bundled, tensor or
    conjugated model.  A coefficient is zero, the unit, a random vector or
    the negative of an earlier one, so some products cancel."""
    m = presented_model(*draw(st.sampled_from(PRESENTED_SPECS)))
    kind = draw(st.sampled_from(("usual", "star")))
    ring = kind_ring(m, kind)
    order = draw(st.integers(1, 5))
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


@settings(max_examples=40, deadline=None)
@given(kernel_series())
def test_series_kernel_matches_the_fraction_references(case):
    m, kind, a, b = case
    mul, one = oracle.ring(m, kind)
    ab, exp = a * b, a.exp()
    assert _vectors(ab) == oracle.series_product(_vectors(a), _vectors(b), mul)
    assert _vectors(exp) == oracle.exp(_vectors(a), mul, one)
    assert (a.constant(a.ring.one) + a) * b == b + a * b
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
    # the two rings live on the model: every family reads the same ring of
    # its product, and another model of the same name has its own rings
    m, other = model(name, g), build_model(name, g)
    rings = {kind: kind_ring(m, kind) for kind in ADAMS_KINDS}
    for kind in ADAMS_KINDS:
        assert kind_ring(m, kind) is rings[kind]
        assert kind_ring(other, kind) != rings[kind]
    assert len({id(ring) for ring in rings.values()}) == 2


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
        ("accumulate", lambda: a.usual.accumulate([0] * a.dim, 1, x, y)),
        ("accumulate, foreign unit", lambda: a.usual.accumulate([0] * 3, 1, b.one(), x)),
        ("accumulate, star", lambda: a.convolution.accumulate([0] * 3, 1, a.one(), y)),
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
    # exps; reusing products, Fourier images, gamma images and gamma series
    # took 1,974 and 25, reading prop-omega-n and pushforward-star-hom off
    # the product tables instead of multiplying took 1,719 and 25, the
    # saturation's making each W_i x M[1] once per weight took 1,703 and 25,
    # its worklist, which multiplies each new word once, took 1,658, and its
    # generators e_k instead of the scalings c e_k take 1,600
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
    assert counts["products"] == 1600
    assert counts["exps"] == 25


@pytest.mark.parametrize(
    "name,g,multiply,star",
    [
        pytest.param("theta", 4, 125, 99, id="theta-4"),
        pytest.param("antisym", 3, 118, 121, id="antisym-3"),
        pytest.param("violator", 3, 195, 197, id="violator-3"),
    ],
)
def test_verify_model_products(name, g, multiply, star, monkeypatch):
    # a deterministic count, not a time: the ModelAlgebra products of the
    # suite (the series engine runs on the kernel and is not counted here);
    # multiplying every basis pair with a table entry for prop-omega-n and
    # pushforward-star-hom took 990 and 746 over the three models, reading
    # their tables took 648 and 518, making the saturation's W_i x M[1]
    # once per weight took 621 and 507, its worklist took 552 and 471, and
    # its generators e_k instead of the scalings c e_k take 438 and 417
    m = build_model(name, g)
    m.star_table  # built once per model, before counting
    counts = {"multiply": 0, "star_multiply": 0}
    for method in counts:
        original = getattr(ModelAlgebra, method)

        def counted(self, x, y, method=method, original=original):
            counts[method] += 1
            return original(self, x, y)

        monkeypatch.setattr(ModelAlgebra, method, counted)
    assert run_verify_suite(m, f"{name}(g={g})").ok
    assert counts == {"multiply": multiply, "star_multiply": star}


def _count_products(monkeypatch) -> dict:
    """Count the ring products: the calls of the accumulation kernel, which
    both ``Product.multiply`` and the series engine run on."""
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
    run = reports._Run(m, m.default_series_order)
    counts = _count_products(monkeypatch)
    assert Statement.first_failure("gamma-addition-law", reports._addition_law(run)).ok
    assert counts["products"] == products


@pytest.mark.parametrize(
    "name,g,products",
    [
        pytest.param("antisym", 3, 98, id="antisym-3"),
        pytest.param("violator", 3, 131, id="violator-3"),
    ],
)
def test_conjecture_products(name, g, products, monkeypatch):
    # conjecture's series have order g, where the coefficient presentation
    # mostly bounds exp lower; the weight presentation wins only for a lone
    # weight whose log series has full support (2 products instead of 3
    # at order 3), so the suite took 174 / 215 products where one product
    # per (k, m) pair took 181 / 218; the epsilon check's augmentation test
    # reads the product table instead of multiplying, which left 150 on
    # antisym (the violator's suite skips that check); the saturation's
    # making each W_i x M[1] once per weight, not once per stage, left 146 /
    # 202, its worklist, which multiplies each new word once, left 128 /
    # 171, and its generators e_k instead of the scalings c e_k take the
    # pinned counts
    m = build_model(name, g)
    m.star_table
    counts = _count_products(monkeypatch)
    run_conjecture_suite(m, name)
    assert counts["products"] == products
