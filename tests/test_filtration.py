"""Filtration computation (both methods) and the conjecture checkers."""

import importlib
import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from kring import (
    FILTRATION_KINDS,
    Element,
    FiltrationSpec,
    ModelAlgebra,
    Subspace,
    build_model,
    compute_filtration,
    fourier,
    run_conjecture_suite,
    run_filtration_tables,
    run_verify_suite,
    modelio,
    reports,
    validate,
)
from kring.adams import gamma_images, lambda_series
from kring.errors import DomainError, SeriesOrderError
from kring.filtration import FiltrationResult
from kring.reports import Statement
from kring.series import TruncatedSeries
from tests import oracle
from tests.conftest import (
    TENSORS,
    THETA1_POWER5,
    VIOLATOR_PRODUCT,
    basis_change,
    bundled_models,
    conjecture,
    conjugate,
    document,
    edits,
    filtration,
    fm00,
    model,
    outcome,
    presented_model,
    rational_text,
    raw_tables,
    run_python,
    spec_id,
    spec_model,
)

F = Fraction


def test_theta2_gamma_dims():
    assert filtration("theta", 2, "gamma", 4).dims == (3, 2, 1, 0, 0)


def test_theta2_pi_dims():
    assert filtration("theta", 2, "pi", 4).dims == (3, 2, 1, 0, 0)


@pytest.mark.parametrize("name,g", bundled_models(3))
def test_stages_decrease(name, g):
    m = model(name, g)
    for kind in ("gamma", "star", "pi", "Gamma"):
        res = filtration(name, g, kind, g + 2)
        if not FiltrationSpec(kind).augmentation_is_morphism(m)[0]:
            # out-of-theory structure (the index projection is not a ring
            # map on this model); the literal stages need not be nested
            assert name == "violator" and kind == "Gamma"
            continue
        for n in range(g + 2):
            assert res.stage(n + 1).is_subspace_of(res.stage(n))


@pytest.mark.parametrize("name,g", bundled_models(3))
def test_fourier_mirrors_star_into_gamma(name, g):
    m = model(name, g)
    star = filtration(name, g, "star", g + 2)
    gamma = filtration(name, g, "gamma", g + 2)
    for n in range(g + 3):
        image = Subspace.span(
            m.dim,
            [
                fourier(m.from_coords(row)).coords
                for row in star.stage(n).basis
            ],
        )
        assert image == gamma.stage(n)


@pytest.mark.parametrize(
    "spec,conjugated",
    [
        pytest.param((name, g), False, id=f"{name}-{g}")
        for name, g in [("theta", 2), ("theta", 3), ("antisym", 2), ("antisym", 3)]
    ]
    + [
        pytest.param((a, b), conj, id=f"{a[0]}{a[1]}x{b[0]}{b[1]}" + "-conj" * conj)
        for a, b in TENSORS
        if (a, b) != VIOLATOR_PRODUCT
        for conj in (False, True)
    ],
)
def test_methods_agree_on_compliant_models(spec, conjugated):
    # the tensor products without a violator factor have no negative-index
    # class, and neither have their conjugates
    m = presented_model(spec, conjugated)
    for kind in FILTRATION_KINDS:
        sat = compute_filtration(m, kind, m.g + 1)
        eig = compute_filtration(m, kind, m.g + 1, "eigen_sum")
        assert sat.stages == eig.stages


def test_eigen_sum_literal_weights(pathological2):
    # eigen_sum sums basis eigenspaces of weight >= n, nothing else
    res = compute_filtration(pathological2, "gamma", 3, "eigen_sum")
    # weights (p): e0:0 e1:1 e2:2 v:1 w:0
    assert res.dims == (5, 3, 1, 0)


def test_saturation_exceeds_eigen_sum_on_negative_index_models(pathological2):
    # w is a weight-0 direction of the rank kernel: saturation keeps it at
    # every stage, the literal eigenvalue sum never sees it
    sat = filtration("pathological", 2, "gamma", 3)
    eig = compute_filtration(pathological2, "gamma", 3, "eigen_sum")
    assert not sat.stage(2).is_subspace_of(eig.stage(2))
    w = pathological2.basis_element(pathological2.index_of("w")).coords
    assert sat.stage(3).contains(w)


def test_pi_containment_in_eigen_sum_everywhere():
    # pi saturation always lands inside the pi eigenvalue sums
    for name, g in bundled_models(3):
        sat = filtration(name, g, "pi", g + 1)
        eig = filtration(name, g, "pi", g + 1, "eigen_sum")
        for s, e in zip(sat.stages, eig.stages):
            assert s.is_subspace_of(e)


@pytest.mark.parametrize("name,g", bundled_models(4))
def test_pi_vanishing_above_g(name, g):
    res = filtration(name, g, "pi", g + 2)
    assert res.stage(g + 1).dim == 0
    assert res.stage(g + 2).dim == 0


@pytest.mark.parametrize(
    "name,g",
    [("theta", g) for g in range(1, 5)]
    + [("antisym", g) for g in range(2, 5)]
    + [("pathological", 3), ("pathological", 4), ("violator", 3), ("violator", 4)],
)
def test_star_vanishing_on_convolution_compliant_models(name, g):
    res = filtration(name, g, "star", g + 2)
    assert res.stage(g + 1).dim == 0


@pytest.mark.parametrize("name", ["pathological", "violator"])
def test_star_vanishing_fails_on_g2_negative_controls(name):
    # the convolution filtration mirrors the ordinary one, and at g = 2 the
    # class v spans a direction that never leaves it
    m = model(name, 2)
    res = filtration(name, 2, "star", 4)
    v = m.basis_element(m.index_of("v")).coords
    assert res.stage(3).contains(v)
    assert res.stage(3).dim >= 1


@pytest.mark.parametrize("name,g", bundled_models(3))
def test_saturation_reads_no_fraction_coordinates(name, g, monkeypatch):
    # a fresh model, so lazily built tables are built under the patch too
    m = build_model(name, g)

    def no_coords(self):
        raise AssertionError("the saturation path read Element.coords")

    monkeypatch.setattr(Element, "coords", property(no_coords))
    for kind in ("gamma", "star", "pi", "Gamma"):
        compute_filtration(m, kind, g + 2, "saturation")


def _augmentation_checks(monkeypatch, run):
    """The kinds ``augmentation_is_morphism`` checks during ``run``, one
    entry per check, in call order."""
    calls = []
    check = FiltrationSpec.augmentation_is_morphism

    def spy(self, m):
        calls.append(self.kind)
        return check(self, m)

    monkeypatch.setattr(FiltrationSpec, "augmentation_is_morphism", spy)
    run()
    monkeypatch.undo()
    return calls


def test_augmentation_checked_once_per_model_and_kind(monkeypatch):
    # no verdict is kept on the model: each suite run asks once per kind it
    # reads, and ``filtration`` asks outside its method loop
    for name in ("violator", "antisym"):
        m = build_model(name, 4)
        tables, conjecture, verify = (
            _augmentation_checks(monkeypatch, lambda: suite(m, name))
            for suite in (run_filtration_tables, run_conjecture_suite, run_verify_suite)
        )
        assert tables == list(FILTRATION_KINDS)
        assert conjecture == ([] if name == "violator" else ["Gamma"])
        assert sorted(verify) == sorted(FILTRATION_KINDS)
    assert not hasattr(m, "augmentation_verdicts")


@pytest.mark.parametrize("name", ["theta", "antisym", "pathological", "violator"])
def test_only_the_statements_that_read_a_verdict_check_the_augmentation(
    name, monkeypatch
):
    def computed():
        m = build_model(name, 3)
        for kind in FILTRATION_KINDS:
            for method in ("saturation", "eigen_sum"):
                compute_filtration(m, kind, 5, method)

    assert _augmentation_checks(monkeypatch, computed) == []
    conjecture = _augmentation_checks(
        monkeypatch, lambda: run_conjecture_suite(build_model(name, 3), name)
    )
    # lem-epsilon-gamma-morphism reads the Gamma verdict, and is skipped on
    # violator, whose positive- and negative-index classes multiply
    assert conjecture == ([] if name == "violator" else ["Gamma"])
    for suite in (run_verify_suite, run_filtration_tables):
        calls = _augmentation_checks(monkeypatch, lambda: suite(build_model(name, 3), name))
        assert sorted(calls) == sorted(FILTRATION_KINDS)


# -- skipped products and capped weights: the oracle as the reference ------------


BROKEN = {  # name: (builder, g)
    "bidegree-breach": ("theta", 2),
    "breach-to-unit": ("theta", 2),
    "rescaled-e1e2": ("theta", 4),
    "one-sided": ("theta", 2),
    "off-grade": ("antisym", 2),
}


def _broken_table(name):
    """A bundled model whose table breaks a law the builders keep: the
    bidegree law (e2 . e2 = e2 or = e0 on theta(2), e1 . a1 = e0 on
    antisym(2)), associativity (e1 . e2 rescaled on theta(4), as in
    ``test_validate_reports_associativity_witness``) or commutativity
    (e2 . e1 = e0 on theta(2), with e1 . e2 kept).
    A skip rule read off the bidegrees instead of the table changes the star
    stages and the gamma and pi witnesses of ``breach-to-unit``, and an
    augmentation test of the pairs (i, j) with j < i too finds a gamma
    witness on ``one-sided``.  On ``off-grade`` the pi word e1 . a1 of
    weight 2 is the unit e0, so pi stage 2 is the whole space; a saturation
    that files g . x one weight low, or drops the products with the subring
    (a . e0 = a), makes that stage smaller."""
    (builder, g), change = BROKEN[name], {
        "bidegree-breach": {(2, 2): {2: F(1)}},
        "breach-to-unit": {(2, 2): {0: F(1)}},
        "rescaled-e1e2": {(1, 2): {3: F(4)}, (2, 1): {3: F(4)}},
        "one-sided": {(2, 1): {0: F(1)}},
        "off-grade": {(1, 4): {0: F(1)}, (4, 1): {0: F(1)}},
    }[name]
    base = model(builder, g)
    basis, mul, fm = raw_tables(base)
    mul.update(change)
    return ModelAlgebra(
        g, basis, mul, fm, unit_index=base.unit_index, star_unit_index=base.star_unit_index
    )


@pytest.mark.parametrize("kind", FILTRATION_KINDS)
@pytest.mark.parametrize(
    "spec,conjugated",
    [pytest.param((name, None), False, id=name) for name in BROKEN]
    + [
        pytest.param((name, g), conj, id=f"{name}-{g}" + "-conj" * conj)
        for name, g in bundled_models(4)
        for conj in (False, True)
    ]
    + [
        pytest.param((a, b), conj, id=f"{a[0]}{a[1]}x{b[0]}{b[1]}" + "-conj" * conj)
        for a, b in TENSORS
        for conj in (False, True)
    ],
)
def test_augmentation_table_walk_matches_the_definition(spec, conjugated, kind):
    # the broken tables, tensor products and basis_change conjugates have
    # many pairs with outputs both in and out of the subring, and a walk of
    # the pairs (i, j) with j < i too finds a gamma witness on one-sided
    m = _broken_table(spec[0]) if spec[1] is None else presented_model(spec, conjugated)
    assert FiltrationSpec(kind).augmentation_is_morphism(m) == oracle.augmentation_witness(m, kind)


@pytest.mark.parametrize("name,g", bundled_models(4) + [(name, None) for name in BROKEN])
def test_partner_masks_match_the_tables(name, g):
    m = _broken_table(name) if g is None else model(name, g)
    star = [dict(row) for row in m.star_table.rows]
    for i in range(m.dim):
        for j in range(m.dim):
            assert bool(m.usual.partners[i] >> j & 1) == bool(m.mul_basis(i, j))
            assert bool(m.convolution.partners[i] >> j & 1) == (j in star[i])


@pytest.mark.parametrize("kind", ["gamma", "star", "pi", "Gamma"])
def test_saturation_skips_the_vanishing_products(kind, monkeypatch):
    # a deterministic count, not a time: making every product took
    # 1,365-2,013 per kind here, skipping the vanishing ones 160-203
    m = build_model("violator", 4)
    m.star_table  # built once per model, before counting
    product = importlib.import_module("kring.model").Product
    multiply, calls = product.multiply, []

    def counted(*args):
        calls.append(args)
        return multiply(*args)

    monkeypatch.setattr(product, "multiply", counted)
    compute_filtration(m, kind, 6)
    assert len(calls) <= 300


def _count_rows_and_products(monkeypatch) -> Counter:
    """Count the rows handed to the elimination and the model products."""
    linalg, model_module = (importlib.import_module(f"kring.{n}") for n in ("linalg", "model"))
    rref, multiply, counts = linalg._rref_rows, model_module.Product.multiply, Counter()

    def counted_rref(rows, ncols):
        counts["rows"] += len(rows)
        return rref(rows, ncols)

    def counted_multiply(*args):
        counts["products"] += 1
        return multiply(*args)

    monkeypatch.setattr(linalg, "_rref_rows", counted_rref)
    monkeypatch.setattr(model_module.Product, "multiply", counted_multiply)
    return counts


@pytest.mark.parametrize(
    "name,rows,products",
    [
        pytest.param("violator", 157, 247, id="violator-4"),
        pytest.param("antisym", 96, 190, id="antisym-4"),
    ],
)
def test_filtration_tables_rows_and_products(name, rows, products, monkeypatch):
    # deterministic counts, not times: eliminating every row handed to
    # Subspace.span and testing the augmentation by products took 918 / 617
    # rows and 680 / 538 products; one row per direction, coordinate stages
    # and the table walk took 488 / 386 products; making each W_i x M[1]
    # once per weight took 268 / 159 rows and 437 / 349 products, one
    # worklist that multiplies each new word once took 160 / 99 and 342 /
    # 271, and the generators e_k instead of the scalings c e_k take the
    # pinned counts
    m = build_model(name, 4)
    m.star_table  # built once per model, before counting
    counts = _count_rows_and_products(monkeypatch)
    run_filtration_tables(m, name)
    assert (counts["rows"], counts["products"]) == (rows, products)


def test_theta1_power5_rows_and_products(monkeypatch):
    # deterministic counts, not times, at dim 32 over the four kinds at
    # n_max = g + 2: the M[n] recursion with its product closure took 627
    # rows and 2,928 products, one worklist that multiplies each new word
    # once took 387 and 1,953, and the generators e_k instead of the
    # scalings c e_k take the pinned counts
    m = spec_model(THETA1_POWER5)
    m.star_table  # built once per model, before counting
    counts = _count_rows_and_products(monkeypatch)
    for kind in FILTRATION_KINDS:
        compute_filtration(m, kind, m.g + 2)
    assert (counts["rows"], counts["products"]) == (387, 1860)


def _n_max_grid(g):
    return sorted({0, 1, 2, g, g + 2, g * g + 2})


_shared_broken_table = lru_cache(maxsize=None)(_broken_table)


@pytest.mark.parametrize("kind", FILTRATION_KINDS)
@pytest.mark.parametrize(
    "spec,conjugated,n_max",
    [
        pytest.param((name, g), False, n_max, id=f"{name}-{g}-n{n_max}" if g else f"{name}-n{n_max}")
        for name, g in bundled_models(4) + [(name, None) for name in BROKEN]
        for n_max in _n_max_grid(g or BROKEN[name][1])
    ]
    + [
        pytest.param((a, b), conj, n, id=f"{spec_id((a, b))}{'-conj' * conj}-n{n}")
        for a, b in TENSORS
        for n in [a[1] + b[1] + 2]
        for conj in (False, True)
    ],
)
def test_saturation_matches_the_definition(spec, conjugated, n_max, kind):
    # each order in {n_max, g + 2, g^2 + 2} >= n_max: the oracle spans words in
    # the gamma images of more kernel elements than the e_k with no mask or
    # capped weight; its stages do not depend on n_max, as the conjecture
    # suite reads stages 0..g off a filtration at n_max = order.  The denser
    # tables of the tensor products and their conjugates are read at
    # n_max = order = g + 2 only
    tensor = isinstance(spec[0], tuple)
    m = _shared_broken_table(spec[0]) if spec[1] is None else presented_model(spec, conjugated)
    orders = {n_max} if tensor else {n_max, max(n_max, m.g + 2), m.default_series_order}
    for order in sorted(orders):
        res = compute_filtration(m, kind, n_max, order=order)
        want = oracle.stages(m, kind, order, order)
        assert len(res.stages) == n_max + 1
        assert tuple(s.basis for s in res.stages) == want[: n_max + 1], order
        assert res.rounds == (res.dims,)


def _doubled_and_dropped(doc):
    """(edit, document) for each mul triple i, j, k of ``doc``: its constant
    doubled (``double-i-j-k``) and the triple dropped (``drop-i-j-k``)."""
    for n, (i, j, k, raw) in enumerate(doc["mul"]):
        doubled, dropped = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))
        doubled["mul"][n][3] = rational_text(2 * F(raw))
        del dropped["mul"][n]
        yield f"double-{i}-{j}-{k}", doubled
        yield f"drop-{i}-{j}-{k}", dropped


# (builder, edit): the kinds whose saturation stages differ from the
# oracle's.  Each document drops a unit product 1 . e, which ``validate``
# flags: ``gamma_images`` reads e^1 = e off the table, while the oracle's
# exp series reaches e only through 1 . e = 0
UNIT_PRODUCT_GAPS = {
    ("pathological", "drop-0-3-3"): {"pi", "Gamma"},
    ("pathological", "drop-0-4-4"): {"gamma", "star", "Gamma"},
    ("violator", "drop-0-5-5"): {"pi", "Gamma"},
    ("violator", "drop-0-6-6"): {"gamma", "star", "Gamma"},
}


@pytest.mark.parametrize("builder", ["theta", "antisym", "pathological", "violator"])
def test_saturation_matches_the_definition_on_single_entry_edits(builder):
    # 54 documents over the four builders at g = 2, most of them
    # non-associative, at n_max = order = g + 2; the unit-product gaps are
    # pinned, not filtered out
    differ = {}
    for edit, doc in _doubled_and_dropped(document(builder, 2)):
        m = modelio.import_model(json.dumps(doc))
        n = m.g + 2
        kinds = {
            kind
            for kind in FILTRATION_KINDS
            if tuple(s.basis for s in compute_filtration(m, kind, n, order=n).stages)
            != oracle.stages(m, kind, n, n)
        }
        if kinds:
            differ[builder, edit] = kinds
            assert "unit-product" in validate(m).codes()
    assert differ == {key: kinds for key, kinds in UNIT_PRODUCT_GAPS.items() if key[0] == builder}


def test_saturation_spans_few_rows_and_makes_no_rational_series_products():
    # a deterministic count, not a time, in a fresh process so that the
    # scalar tables start cold: one span per gamma weight, zero rows
    # included, fed 1,906 rows and the tables took 11 series products over
    # Q; the bucket of high weights without zero rows feeds 918 and the
    # integer tables take none
    result = run_python("-c", """
import json
from kring import Subspace, build_model, run_filtration_tables
from kring.series import RATIONALS, TruncatedSeries

counts = {"rows": 0, "rational_products": 0}
span, mul = Subspace.span.__func__, TruncatedSeries.__mul__

def counted_span(cls, ambient_dim, vectors):
    vectors = list(vectors)
    counts["rows"] += len(vectors)
    return span(cls, ambient_dim, vectors)

def counted_mul(self, other):
    counts["rational_products"] += self.ring == RATIONALS
    return mul(self, other)

Subspace.span = classmethod(counted_span)
TruncatedSeries.__mul__ = counted_mul
run_filtration_tables(build_model("violator", 4), "violator(g=4)")
print(json.dumps(counts))
""")
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout)
    assert counts["rows"] <= 1000
    assert counts["rational_products"] == 0


@pytest.mark.parametrize(
    "name,g",
    bundled_models(4)
    + [(name, None) for name in BROKEN]
    + [(name, "fm") for name in ("pathological", "theta")],
)
def test_star_table_skips_only_vanishing_pairs(name, g):
    if g is None:
        m = _broken_table(name)
    elif g == "fm":
        doc = document(name, 2)
        fm00(doc)
        m = modelio.import_model(json.dumps(doc))
    else:
        m = build_model(name, g)  # a fresh model: its star_table is not built yet
    rows, den = m.star_table
    table = {
        (i, j): tuple((k, Fraction(c, den)) for k, c in entries)
        for i, row in enumerate(rows)
        for j, entries in row
    }
    assert table == oracle.structure(m, "star")


def test_star_table_multiplies_only_reaching_pairs(monkeypatch):
    # a deterministic count: multiplying every pair of Fourier images of
    # violator(4) took 169 products, the pairs that can meet in the table 45
    m = build_model("violator", 4)
    m.usual  # read off the multiplication table before counting
    product = importlib.import_module("kring.model").Product
    multiply, calls = product.multiply, []

    def counted(*args):
        calls.append(args)
        return multiply(*args)

    monkeypatch.setattr(product, "multiply", counted)
    m.star_table
    assert len(calls) <= 60


def test_order_below_stage_raises(theta2):
    with pytest.raises(SeriesOrderError):
        compute_filtration(theta2, "gamma", 5, order=3)


def test_unknown_kind_and_method(theta2):
    with pytest.raises(DomainError):
        compute_filtration(theta2, "weird", 2)
    with pytest.raises(DomainError):
        compute_filtration(theta2, "gamma", 2, method="weird")


def test_saturation_is_deterministic(theta2):
    a = compute_filtration(theta2, "pi", 4)
    b = compute_filtration(theta2, "pi", 4)
    assert a.stages == b.stages and a.rounds == b.rounds


# -- pi-inside-gamma statements -------------------------------------------------


@pytest.mark.parametrize(
    "name,g", [("theta", g) for g in range(1, 5)] + [("antisym", g) for g in range(2, 5)]
)
def test_pi_subset_gamma_on_compliant_models(name, g):
    statements = conjecture(name, g)
    assert statements["conj-pi-subset-gamma"] == Statement("conj-pi-subset-gamma", "pass")
    proved = statements["rem-conj-proved-cases"]
    assert proved.status == "pass"
    assert proved.detail == f"stages {sorted({0, 1, g - 1, g})}"


def test_pi_subset_gamma_pathological2_fails_at_two(pathological2):
    statements = conjecture("pathological", 2)
    conj = statements["conj-pi-subset-gamma"]
    assert (conj.status, conj.detail, conj.witness) == ("fail", "fails at q in [2]", "v")
    # the witness v lies in pi stage 2 and not in gamma stage 2
    v = pathological2.basis_element(pathological2.index_of("v"))
    assert filtration("pathological", 2, "pi", 2).stage(2).contains(v.coords)
    assert not filtration("pathological", 2, "gamma", 2).stage(2).contains(v.coords)
    # q = 2 = g is among the provable stages, so the suite must flag the
    # model itself
    proved = statements["rem-conj-proved-cases"]
    assert proved.status == "fail" and proved.witness == "v"
    assert proved.detail.startswith("model-validation failure: provable stage q=2 fails")


def _run_with(m, **fil):
    """A suite ``_Run`` on ``m`` holding the given filtrations by kind."""
    run = reports._Run(m, m.default_series_order)
    run.fil.update(fil)
    return run


def test_pi_subset_gamma_pathological4_alerts_at_g_minus_one():
    statements = conjecture("pathological", 4)
    # v fails at stage 2 (not provable for g = 4), w at stage 3 = g - 1
    conj = statements["conj-pi-subset-gamma"]
    assert (conj.status, conj.detail, conj.witness) == ("fail", "fails at q in [2, 3]", "v")
    proved = statements["rem-conj-proved-cases"]
    assert proved.status == "fail" and proved.witness == "w"
    # of the provable stages 0, 1, 3, 4, only q = 3 fails
    run = _run_with(
        model("pathological", 4),
        pi=filtration("pathological", 4, "pi", 4),
        gamma=filtration("pathological", 4, "gamma", 4),
    )
    failures = list(reports._proved_cases(run))
    assert [witness for _, witness in failures] == ["w"]
    assert failures[0][0] == proved.detail
    assert "provable stage q=3 fails" in proved.detail


# -- the four-way equivalence criterion ------------------------------------------


def _criteria(m, label, gamma):
    """The four criteria for the basis class ``label`` in K^p_q, computed
    here from the pi-gamma images and the ``gamma`` stages 0 .. order."""
    i, order, g = m.index_of(label), m.default_series_order, m.g
    p, q = m.bidegrees[i]
    images = oracle.gamma_series(m, "pi", m.basis_element(i).coords, order)
    in_stage = [gamma.stage(n).contains(images[n]) for n in range(order + 1)]
    return {
        1: p >= g - q,
        2: all(in_stage[1:]),
        3: in_stage[g - q],
        4: in_stage[p + 1] if p + 1 <= order else True,
    }


def test_equivalences_compliant_class(theta2):
    gamma = filtration("theta", 2, "gamma", theta2.default_series_order)
    assert _criteria(theta2, "e1", gamma) == {1: True, 2: True, 3: True, 4: True}
    assert conjecture("theta", 2)["lem-conjecture-equivalences"].status == "pass"


def test_equivalences_negative_index_class(pathological2):
    gamma = filtration("pathological", 2, "gamma", pathological2.default_series_order)
    assert _criteria(pathological2, "v", gamma) == {1: False, 2: False, 3: False, 4: False}
    # all four agree, so the equivalence itself holds
    assert conjecture("pathological", 2)["lem-conjecture-equivalences"].status == "pass"


def test_equivalences_reject_top_weight(monkeypatch, antisym2):
    # the check visits the basis classes with p > 0 and q < g only: on
    # antisym(2) it leaves out the unit (p = 0) and a (q = g)
    visited = []

    def spy(m, kind, x, order):
        visited.append(m.labels[x.nums.index(1)])
        return gamma_images(m, kind, x, order)

    monkeypatch.setattr(reports, "gamma_images", spy)
    assert run_conjecture_suite(antisym2, "antisym(g=2)").ok
    want = [
        label
        for label, (p, q) in zip(antisym2.labels, antisym2.bidegrees)
        if p > 0 and q < antisym2.g
    ]
    assert "a" not in visited and visited == want


def test_equivalences_read_the_order_of_their_filtration(theta2):
    # the criteria run up to the suite's series order, on a gamma filtration
    # computed to that order
    for order in (4, 5, 6):
        report = run_conjecture_suite(theta2, "theta(g=2)", order=order)
        s = {s.id: s for s in report.statements}["lem-conjecture-equivalences"]
        assert s.status == "pass"
        run = reports._Run(theta2, order)
        run.fil["gamma"] = compute_filtration(theta2, "gamma", order, order=order)
        assert list(reports._equivalences(run)) == []


def test_equivalences_fail_when_the_criteria_disagree(pathological2):
    # no bundled model breaks the equivalence; with every gamma stage full,
    # (2) - (4) hold for v while (1), p >= g - q, does not
    m = pathological2
    full = (Subspace.full(m.dim),) * (m.default_series_order + 1)
    run = _run_with(m, gamma=FiltrationResult("saturation", full, ()))
    s = Statement.first_failure("lem-conjecture-equivalences", reports._equivalences(run))
    assert (s.status, s.detail, s.witness) == (
        "fail", "statements {1: False, 2: True, 3: True, 4: True}", "v"
    )


# -- composed structure ----------------------------------------------------------

COMPOSED_IDS = (
    "conj-2-products",
    "lem-epsilon-gamma-morphism",
    "lem-fil1",
    "lem-fil2",
    "prop-kernel-c",
    "conj-3-vanishing",
    "bloch-products",
)


def test_composed_structure_theta():
    statements = conjecture("theta", 2)
    assert all(statements[sid].status == "pass" for sid in COMPOSED_IDS)
    assert filtration("theta", 2, "Gamma", 4).dims[1:] == (0, 0, 0, 0)


def test_composed_structure_antisym():
    statements = conjecture("antisym", 2)
    assert all(statements[sid].status == "pass" for sid in COMPOSED_IDS)
    # stage 1 is the index kernel (the two translates), stage 2 vanishes
    assert filtration("antisym", 2, "Gamma", 4).dims == (5, 2, 0, 0, 0)


def test_composed_structure_pathological(pathological2):
    statements = conjecture("pathological", 2)
    assert statements["conj-2-products"].status == "pass"
    assert statements["lem-epsilon-gamma-morphism"].status == "pass"
    assert statements["lem-fil1"].status == "pass"
    assert statements["lem-fil2"].status == "pass"
    # both kernel computations agree and equal stage g+1, which is nonzero
    assert statements["prop-kernel-c"].status == "pass"
    assert statements["conj-3-vanishing"].status == "fail"
    res = filtration("pathological", 2, "Gamma", 4)
    v = pathological2.basis_element(pathological2.index_of("v"))
    w = pathological2.basis_element(pathological2.index_of("w"))
    assert res.stage(3) == Subspace.span(5, [v.coords, w.coords])


def test_composed_structure_violator():
    statements = conjecture("violator", 2)
    conj2 = statements["conj-2-products"]
    assert conj2.status == "fail"
    assert conj2.witness == "(a, v)"
    skipped = statements["lem-epsilon-gamma-morphism"]
    assert skipped.status == "skipped"
    assert "hypothesis violated" in skipped.detail


def _with_gamma_stages(m, stage):
    """A ``_Run`` on ``m`` whose Gamma filtration is ``stage`` at every n."""
    stages = (stage,) * (m.g + 3)
    dims = tuple(s.dim for s in stages)
    return _run_with(m, Gamma=FiltrationResult("saturation", stages, (dims,)))


def test_fil1_fails_when_stage_one_leaves_the_rank_kernel(antisym2):
    run = _with_gamma_stages(antisym2, Subspace.full(antisym2.dim))
    assert Statement.first_failure("lem-fil1", reports._fil1(run)) == Statement(
        "lem-fil1", "fail"
    )


def test_fil2_fails_at_stage_zero_on_the_first_index_block(antisym2):
    # antisym(2) has index blocks 0 and 1 only
    run = _with_gamma_stages(antisym2, Subspace.span(antisym2.dim, []))
    assert Statement.first_failure("lem-fil2", reports._fil2(run)) == Statement(
        "lem-fil2", "fail", "", "index 0 block at stage 0"
    )


# -- the epsilon check -----------------------------------------------------------


def _old_epsilon_morphism(run):
    """The epsilon check as a plain loop: lambda^i(x) off its own lambda
    series of order i, and y (y-1) ... (y-i+1) / i! multiplied out anew for
    every i."""
    model, one = run.model, run.model.one()
    morphism_ok, pair = FiltrationSpec("Gamma").augmentation_is_morphism(model)
    if not morphism_ok:
        yield "", pair or ""
    for n, x in enumerate(run.basis):
        y = x.beauville_component(0)
        for i in range(1, model.g + 1):
            lhs = lambda_series(model, "composed", x, i).coefficient(i).beauville_component(0)
            product = one
            for t in range(i):
                product = product * (y - t * one)
            if lhs != Fraction(1, factorial(i)) * product:
                yield "", f"{model.labels[n]} at i={i}"


def _same_epsilon_outcome(m):
    """The epsilon check and its plain loop reach the same ``Statement``
    (or raise the same error) on ``m``; returns that outcome."""
    sid = "lem-epsilon-gamma-morphism"
    want = outcome(sid, _old_epsilon_morphism, m)
    assert outcome(sid, reports._epsilon_morphism, m) == want
    return want


@pytest.mark.parametrize("name,g", bundled_models(4))
def test_epsilon_check_matches_the_plain_loop(name, g):
    m = model(name, g)
    _same_epsilon_outcome(m)
    _same_epsilon_outcome(conjugate(m, basis_change(m)))


@pytest.mark.parametrize("builder", ["theta", "antisym", "pathological", "violator"])
def test_epsilon_check_matches_the_plain_loop_on_single_entry_edits(builder):
    base = document(builder, 2)
    outcomes = []
    for where in ("mul", "new-mul", "fm"):
        for edit in edits(base, where):
            doc = json.loads(json.dumps(base))
            edit(doc)
            outcomes.append(_same_epsilon_outcome(modelio.import_model(json.dumps(doc))))
    # the sweep reaches failures of the lambda loop itself (every violator
    # edit keeps the Gamma augmentation witness), so a hidden one would show
    loop_failures = [o for o in outcomes if o[0] == "fail" and " at i=" in o[2]]
    assert bool(loop_failures) == (builder != "violator")
    assert any(o[0] == "fail" for o in outcomes)


def test_epsilon_check_expands_one_lambda_series_per_class(monkeypatch):
    # one series of order g per basis class, not one of order i for each
    # i = 1 .. g (g * dim expansions)
    m = model("antisym", 3)
    orders = []
    real = TruncatedSeries.exp

    def counted(series):
        orders.append(series.order)
        return real(series)

    monkeypatch.setattr(TruncatedSeries, "exp", counted)
    run = _run_with(m)
    check = reports._epsilon_morphism(run)
    assert Statement.first_failure("lem-epsilon-gamma-morphism", check).status == "pass"
    assert orders == [m.g] * m.dim


# -- the first-failure helper ----------------------------------------------------


def test_first_failure_passes_with_the_returned_detail():
    def with_detail():
        return "det=2"
        yield

    def without_detail():
        return
        yield

    assert Statement.first_failure("s", with_detail()) == Statement("s", "pass", "det=2")
    assert Statement.first_failure("s", without_detail()) == Statement("s", "pass", "")


def test_first_failure_fails_with_the_first_yield():
    def failing():
        yield "first", "w1"
        yield "second", "w2"
        return "pass detail"

    assert Statement.first_failure("s", failing()) == Statement("s", "fail", "first", "w1")


def test_first_failure_never_advances_past_the_first_failure():
    def check():
        yield "first", "w"
        raise AssertionError("the check was resumed after its first failure")

    assert Statement.first_failure("s", check()) == Statement("s", "fail", "first", "w")


def test_chern_classes_on_models(antisym2, pathological2):
    from kring import complete_chern

    stages = list(filtration("antisym", 2, "Gamma", 4).stages)
    a = antisym2.basis_element(antisym2.index_of("a"))
    chern_a = complete_chern(antisym2, a, stages)
    assert chern_a.augmentation.is_zero()
    assert chern_a.components[0] == a  # stage 2 vanishes, so the coset is a itself
    assert not chern_a.is_zero

    stages_p = list(filtration("pathological", 2, "Gamma", 4).stages)
    v = pathological2.basis_element(pathological2.index_of("v"))
    assert complete_chern(pathological2, v, stages_p).is_zero

    x = antisym2.one() + a  # index-0 part is the unit, nonzero augmentation
    chern_x = complete_chern(antisym2, x, stages)
    assert chern_x.augmentation == antisym2.one()

    # a pure index-0 class has no components beyond its augmentation
    y = antisym2.basis_element(1) + 2 * antisym2.basis_element(2)
    chern_y = complete_chern(antisym2, y, stages)
    assert chern_y.augmentation == y
    assert all(c.is_zero() for c in chern_y.components)


@pytest.mark.parametrize(
    "runner", [run_verify_suite, run_conjecture_suite, run_filtration_tables]
)
def test_suites_pass_their_config_to_every_filtration(monkeypatch, runner):
    calls = []
    real = compute_filtration

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    for module in ("kring.filtration", "kring.reports"):
        monkeypatch.setattr(importlib.import_module(module), "compute_filtration", spy)
    report = runner(model("theta", 2), "theta(g=2)", order=5)
    assert report.config["order"] == 5
    assert calls
    for kwargs in calls:
        assert kwargs.get("order") == 5


def test_conjecture_suite_expands_no_gamma_series_beyond_its_order(monkeypatch):
    adams_module = importlib.import_module("kring.adams")
    real = adams_module.gamma_series
    orders = []

    def spy(model_, kind, x, order):
        orders.append(order)
        return real(model_, kind, x, order)

    monkeypatch.setattr(adams_module, "gamma_series", spy)
    run_conjecture_suite(model("antisym", 2), "antisym(g=2)", order=4)
    assert orders
    assert max(orders) <= 4
