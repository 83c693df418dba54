"""Model builders, validation, and the bidegree bookkeeping."""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kring.model
from kring import (
    Element,
    ModelAlgebra,
    fourier,
    fourier_inverse,
    antisym_model,
    build_model,
    export_model,
    import_model,
    load_model,
    pathological_model,
    theta_model,
    validate,
    violator_model,
)
from kring.errors import DomainError, StructureError
from kring.model import ValidationReport, Violation, _inversion_sign
from tests.conftest import (
    THETA1_POWER5,
    TENSORS,
    bundled_models,
    model,
    presented_model,
    rational_text,
    raw_tables,
    theta_raw,
)
from tests.oracle import fm_rows, rref

F = Fraction

# a commutative g = 3 model whose only non-unit products are a.c = z and
# b.z = y: (a.c).b = y but a.(c.b) = 0, an associator that the bracketing
# (e_i e_j) e_k = e_i (e_j e_k) over i <= j <= k alone never tests
NONASSOCIATIVE = Path(__file__).parent / "fixtures" / "commutative_nonassociative.json"


@pytest.mark.parametrize("name,g", bundled_models(4) + [("theta", 5), ("antisym", 5)])
def test_builders_validate_clean(name, g):
    assert validate(model(name, g)).ok


def test_theta_g1_products():
    m = theta_model(1)
    e0, e1 = m.basis_elements()
    assert e0 * e1 == e1
    assert (e1 * e1).is_zero()


def test_theta_g2_divided_power_product(theta2):
    e1 = theta2.basis_element(1)
    e2 = theta2.basis_element(2)
    assert e1 * e1 == 2 * e2


@pytest.mark.parametrize("g", range(1, 5))
def test_theta_fourier_square_sign(g):
    m = theta_model(g)
    for p in range(g + 1):
        e = m.basis_element(p)
        assert fourier(fourier(e)) == F((-1) ** g) * e


def test_antisym_square_zero(antisym2):
    a = antisym2.basis_element(antisym2.index_of("a"))
    one = antisym2.one()
    L = one + a
    assert L * L == one + 2 * a


@pytest.mark.parametrize("g", range(2, 5))
def test_antisym_fourier_square_on_a(g):
    m = antisym_model(g)
    a = m.basis_element(m.index_of("a"))
    assert fourier(fourier(a)) == F((-1) ** (g + 1)) * a


def test_antisym_translate_bidegree(antisym2):
    i = antisym2.index_of("a1")
    assert tuple(antisym2.bidegrees[i]) == (2, 1)


def test_pathological_negative_index(pathological2):
    v = pathological2.index_of("v")
    w = pathological2.index_of("w")
    assert pathological2.beauville_index_of(v) == -1
    assert pathological2.beauville_index_of(w) == -1


@pytest.mark.parametrize("g", range(2, 5))
def test_violator_seeded_defect(g):
    m = violator_model(g)
    a = m.basis_element(m.index_of("a"))
    v = m.basis_element(m.index_of("v"))
    prod = a * v
    assert not prod.is_zero()
    support = [i for i, c in enumerate(prod.coords) if c]
    assert all(tuple(m.bidegrees[i]) == (2, g - 2) for i in support)
    assert m.beauville_index_of(m.index_of("a")) == 1
    assert m.beauville_index_of(m.index_of("v")) == -1


def test_validate_reports_associativity_witness():
    basis, mul, fm = theta_raw(4)
    # rescale e1 * e2, symmetrically and bidegree-legally: then
    # (e1 e1) e2 = 12 e4 while e1 (e1 e2) = 16 e4
    mul[(1, 2)] = {3: F(4)}
    mul[(2, 1)] = {3: F(4)}
    bad = ModelAlgebra(4, basis, mul, fm, unit_index=0, star_unit_index=4)
    report = validate(bad)
    assert not report.ok
    assoc = [v for v in report.violations if v.code == "mul-associativity"]
    assert assoc and assoc[0].witness == ("e1", "e1", "e2")


def test_validate_reports_commutativity_witness():
    basis, mul, fm = theta_raw(4)
    mul[(1, 2)] = {3: F(5)}  # one order only
    bad = ModelAlgebra(4, basis, mul, fm, unit_index=0, star_unit_index=4)
    report = validate(bad)
    comm = [v for v in report.violations if v.code == "mul-commutativity"]
    assert comm and comm[0].witness == ("e1", "e2")


def test_validate_reports_fourier_bidegree_witness():
    basis, mul, fm = theta_raw(2)
    fm[1][0] = F(1)  # image of e1 leaks into K^0_2 instead of K^1_1
    bad = ModelAlgebra(2, basis, mul, fm, unit_index=0, star_unit_index=2)
    report = validate(bad)
    leaks = [v for v in report.violations if v.code == "fm-bidegree"]
    assert leaks and leaks[0].witness == ("e1",)


def test_validate_reports_bidegree_law():
    basis, mul, fm = theta_raw(2)
    mul[(2, 2)] = {2: F(1)}  # e2 * e2 must vanish (p-degree 4 > g)
    bad = ModelAlgebra(2, basis, mul, fm, unit_index=0, star_unit_index=2)
    report = validate(bad)
    assert "bidegree-law" in report.codes()
    # and associativity breaks too, but the law names the offending triple
    law = [v for v in report.violations if v.code == "bidegree-law"]
    assert law[0].witness == ("e2", "e2", "e2")


def test_validate_reports_unit_line():
    basis, mul, fm = theta_raw(2)
    basis.append(("ghost", (0, 2)))  # a second vector on the unit line
    mul[(0, 3)] = {3: F(1)}
    mul[(3, 0)] = {3: F(1)}
    fm2 = [row + [F(0)] for row in fm] + [[F(0), F(0), F(0), F(1)]]
    bad = ModelAlgebra(2, basis, mul, fm2, unit_index=0, star_unit_index=2)
    report = validate(bad)
    assert "unit-line" in report.codes()


def test_validate_reports_fourier_involution():
    basis, mul, fm = theta_raw(2)
    fm[1][1] = F(2)  # wrong scaling breaks the square law
    bad = ModelAlgebra(2, basis, mul, fm, unit_index=0, star_unit_index=2)
    report = validate(bad)
    assert "fm-involution" in report.codes()


def test_validate_reports_origin_constraint():
    basis, mul, fm = theta_raw(2)
    fm[2][0] = F(-1)  # origin class must map to +1
    bad = ModelAlgebra(2, basis, mul, fm, unit_index=0, star_unit_index=2)
    report = validate(bad)
    assert "fm-origin" in report.codes() or "fm-involution" in report.codes()


def test_bidegree_decomposition_is_partition():
    rng = random.Random(7)
    for name, g in [("theta", 3), ("antisym", 3), ("violator", 2)]:
        m = model(name, g)
        x = m.from_coords([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m.dim)])
        pieces = m.zero()
        seen = set()
        for bd in m.bidegrees:
            if bd in seen:
                continue
            seen.add(bd)
            pieces = pieces + x.component(bd.p, bd.q)
        assert pieces == x
        by_index = sum(
            (x.beauville_component(j) for j in range(-g, g + 1)), m.zero()
        )
        assert by_index == x


def test_index_additivity_on_products():
    for name, g in [("theta", 3), ("antisym", 3), ("violator", 2)]:
        m = model(name, g)
        for i in range(m.dim):
            for j in range(m.dim):
                prod = m.basis_element(i) * m.basis_element(j)
                if prod.is_zero():
                    continue
                want = m.beauville_index_of(i) + m.beauville_index_of(j)
                support = [k for k, c in enumerate(prod.coords) if c]
                assert all(m.beauville_index_of(k) == want for k in support)


def test_element_str_and_errors(theta2):
    x = theta2.element({"e0": 1, "e2": F(-1, 2)})
    assert str(x) == "e0 - 1/2*e2"
    with pytest.raises(DomainError):
        theta2.element({"nope": 1})
    other = theta_model(3)
    with pytest.raises(StructureError):
        theta2.one() + other.one()


def test_constructor_refuses_a_bidegree_outside_the_range():
    # theta(2) with e1 moved to (0, 4): its pullback weight g - (p - q) would
    # be negative, which no suite can evaluate, so the model is refused
    basis, mul, fm = theta_raw(2)
    assert basis[1][0] == "e1"
    basis[1] = ("e1", (0, 4))
    with pytest.raises(StructureError, match=r"e1 has bidegree \(0, 4\) outside 0\.\.2"):
        ModelAlgebra(2, basis, mul, fm, unit_index=0, star_unit_index=2)


@pytest.mark.parametrize(
    "pair,entries,message",
    [
        # index -1 would alias e1, so e1 * e1 would read as e0
        ((-1, -1), {0: 1}, r"\(-1, -1\) -> \[0\]"),
        ((1, 1), {5: 1}, r"\(1, 1\) -> \[5\]"),
        ((0, 7), {1: 1}, r"\(0, 7\) -> \[1\]"),
    ],
)
def test_constructor_refuses_a_product_index_outside_the_basis(pair, entries, message):
    # theta(1): e0 in (0, 1), e1 in (1, 0)
    basis, mul, fm = theta_raw(1)
    mul[pair] = entries
    with pytest.raises(StructureError, match=f"mul entry {message} has an index outside 0..1"):
        ModelAlgebra(1, basis, mul, fm, unit_index=0, star_unit_index=1)


def test_builder_preconditions():
    with pytest.raises(DomainError):
        theta_model(0)
    with pytest.raises(DomainError):
        antisym_model(1)
    with pytest.raises(DomainError):
        pathological_model(1)
    with pytest.raises(DomainError):
        violator_model(1)


def test_validate_flags_commutative_nonassociative_model():
    m = load_model(NONASSOCIATIVE)
    a, b, c = (m.basis_element(m.index_of(label)) for label in "abc")
    assert (a * c) * b == m.basis_element(m.index_of("y"))
    assert (a * (c * b)).is_zero()
    report = validate(m)
    assert report.violations == (
        Violation(
            "mul-associativity", "(a * c) * b != a * (c * b)", ("a", "c", "b")
        ),
    )


def _dense_validate(model: ModelAlgebra) -> ValidationReport:
    """The dense ``Fraction`` validation that the sparse integer one
    replaced, with its associativity loop widened to the bracketings
    (e_i e_j) e_k, (e_i e_k) e_j and (e_j e_k) e_i: it builds ``Element``
    products of basis vectors, and takes the rank and the square of the
    dense ``Fraction`` Fourier rows of the exported document."""
    g = model.g
    violations = []

    def flag(code, message, witness=()):
        violations.append(Violation(code, message, witness))

    unit_bd = model.bidegrees[model.unit_index]
    if unit_bd != (0, g):
        flag("unit-bidegree", f"unit must lie in K^0_{g}, found {tuple(unit_bd)}")
    star_bd = model.bidegrees[model.star_unit_index]
    if star_bd != (g, 0):
        flag("origin-bidegree", f"origin class must lie in K^{g}_0, found {tuple(star_bd)}")
    unit_line = model.indices_by_bidegree(0, g)
    if len(unit_line) != 1:
        flag(
            "unit-line",
            "the K^0_g block must be the one-dimensional line of the unit",
            tuple(model.labels[i] for i in unit_line),
        )
    origin_line = model.indices_by_bidegree(g, 0)
    if len(origin_line) != 1:
        flag(
            "origin-line",
            "the K^g_0 block must be the one-dimensional line of the origin class",
            tuple(model.labels[i] for i in origin_line),
        )

    u = model.unit_index
    for i in range(model.dim):
        e = model.basis_element(i)
        if model.multiply(model.basis_element(u), e) != e:
            label = model.labels[i]
            flag("unit-product", f"1 * {label} != {label}", (label,))

    for i in range(model.dim):
        for j in range(i + 1, model.dim):
            if model.mul_basis(i, j) != model.mul_basis(j, i):
                flag(
                    "mul-commutativity",
                    f"{model.labels[i]} * {model.labels[j]} differs from the reversed product",
                    (model.labels[i], model.labels[j]),
                )

    for (i, j), entries in model._mul.items():
        a, b = model.bidegrees[i]
        c, d = model.bidegrees[j]
        tp, tq = a + c, b + d - g
        allowed = tp <= g and tq >= 0
        for k, _ in entries:
            if not allowed:
                flag(
                    "bidegree-law",
                    f"{model.labels[i]} * {model.labels[j]} must vanish "
                    f"(target bidegree ({tp},{tq}) is out of range)",
                    (model.labels[i], model.labels[j], model.labels[k]),
                )
            elif model.bidegrees[k] != (tp, tq):
                flag(
                    "bidegree-law",
                    f"{model.labels[i]} * {model.labels[j]} hits {model.labels[k]} "
                    f"outside K^{tp}_{tq}",
                    (model.labels[i], model.labels[j], model.labels[k]),
                )

    basis = model.basis_elements()
    for i in range(model.dim):
        for j in range(i, model.dim):
            for k in range(j, model.dim):
                for x, y, z in [(i, j, k), (i, k, j)] if i < j < k else [(i, j, k)]:
                    if (basis[x] * basis[y]) * basis[z] != basis[x] * (basis[y] * basis[z]):
                        labels = (model.labels[x], model.labels[y], model.labels[z])
                        flag(
                            "mul-associativity",
                            "({} * {}) * {} != {} * ({} * {})".format(*labels, *labels),
                            labels,
                        )

    fm = fm_rows(model)
    if len(rref(fm, model.dim)[1]) != model.dim:
        flag("fm-invertible", "the Fourier matrix is singular")

    for i in range(model.dim):
        p, q = model.bidegrees[i]
        for k, c in enumerate(fm[i]):
            if c and model.bidegrees[k] != (q, p):
                flag(
                    "fm-bidegree",
                    f"the Fourier image of {model.labels[i]} leaks outside K^{q}_{p}",
                    (model.labels[i],),
                )
                break

    for i in range(model.dim):
        square = [sum(fm[i][j] * fm[j][k] for j in range(model.dim)) for k in range(model.dim)]
        want = [F(0)] * model.dim
        want[i] = F((-1) ** g * _inversion_sign(model, i))
        if square != want:
            flag(
                "fm-involution",
                f"the Fourier square does not act as (-1)^{g} times the inversion "
                f"pullback on {model.labels[i]}",
                (model.labels[i],),
            )

    if tuple(fm[model.star_unit_index]) != model.one().coords:
        flag(
            "fm-origin",
            "the Fourier image of the origin class must be the unit "
            "(this pins the Euler functional to rank after Fourier)",
            (model.labels[model.star_unit_index],),
        )
    return ValidationReport(tuple(violations))


def _perturbed(m, change, rng):
    """``m`` with seeded changes to its exported document (or, for
    ``one-sided``, to one side of a product, which no document can express
    since import mirrors every product, and for ``bidegree``, to one
    bidegree).  A bidegree outside 0..g must be refused by the constructor,
    as import refuses it; that draw returns None.  ``mul-several`` makes
    three to five product edits, ``fm-square`` rescales one Fourier row
    (F stays invertible) and ``fm-singular`` makes one row a multiple of
    another."""
    g = m.g
    if change in ("one-sided", "bidegree"):
        basis, mul, fm = raw_tables(m)
        if change == "one-sided":
            i, j = rng.randrange(m.dim), rng.randrange(m.dim)
            mul[(i, j)] = {rng.randrange(m.dim): F(rng.choice((1, -1, 2)))}
        else:
            # mostly inside 0..g, sometimes just outside it
            degree = rng.randint(0, g) if rng.random() < 0.8 else rng.choice((-1, g + 1))
            n, side = rng.randrange(m.dim), rng.choice((0, 1))
            label, bd = basis[n]
            basis[n] = (label, (degree, bd[1]) if side == 0 else (bd[0], degree))
            if not 0 <= degree <= g:
                with pytest.raises(StructureError, match=f"basis vector {re.escape(label)} has bidegree"):
                    ModelAlgebra(g, basis, mul, fm, m.unit_index, m.star_unit_index)
                return None
        return ModelAlgebra(
            g, basis, mul, fm, unit_index=m.unit_index, star_unit_index=m.star_unit_index
        )
    doc = json.loads(export_model(m))
    rows = doc["fm"]
    for _ in range(rng.randint(3, 5) if change == "mul-several" else 1):
        if change in ("mul-coefficient", "mul-several") and rng.random() < 0.7:
            triple = rng.choice(doc["mul"])
            triple[3] = rational_text(F(triple[3]) + rng.choice((1, -1, F(1, 2), F(-3, 2))))
        elif change in ("mul-target", "mul-several"):
            triple, k = rng.choice(doc["mul"]), rng.randrange(m.dim)
            if [*triple[:2], k] not in (t[:3] for t in doc["mul"]):  # import refuses a repeat
                triple[2] = k
        elif change == "fm-square":
            r, c = rng.randrange(m.dim), rng.choice((2, F(1, 2), -3))
            rows[r] = [rational_text(c * F(x)) for x in rows[r]]
        elif change == "fm-singular":
            r, s = rng.sample(range(m.dim), 2)
            rows[r] = [rational_text(rng.choice((1, -1, 2)) * F(x)) for x in rows[s]]
        else:
            row = rows[rng.randrange(m.dim)]
            row[rng.randrange(m.dim)] = rng.choice(("0/1", "1/1", "-1/1", "2/1", "1/2"))
    return import_model(json.dumps(doc))


# (spec, conjugated, draws): every bundled model at g <= 4, and the tensor
# products of TENSORS and theta(1)^⊗5 (dim 32), plain and conjugated
PERTURBED = (
    [(spec, False, 3) for spec in bundled_models(4)]
    + [(spec, conjugated, 2) for spec in TENSORS for conjugated in (False, True)]
    + [(THETA1_POWER5, conjugated, 1) for conjugated in (False, True)]
)


@pytest.mark.parametrize(
    "change",
    [
        "mul-coefficient", "mul-target", "mul-several", "fm-entry", "fm-square",
        "fm-singular", "bidegree", "one-sided",
    ],
)
def test_validate_matches_dense_reference_on_perturbed_models(change):
    rng = random.Random(f"validate-{change}")
    flagged = 0
    out_of_range = 0
    most_associators = 0
    for spec, conjugated, draws in PERTURBED:
        for _ in range(draws):
            m = _perturbed(presented_model(spec, conjugated), change, rng)
            if m is None:  # an out-of-range bidegree, refused at construction
                out_of_range += 1
                continue
            report = validate(m)
            assert report == _dense_validate(m), (spec, conjugated, change)
            flagged += not report.ok
            codes = report.codes()
            most_associators = max(most_associators, codes.count("mul-associativity"))
            # the Fourier edits reach the case they are drawn for: a broken
            # square law with F invertible, so no elimination decides it,
            # and a singular F
            if change == "fm-square":
                assert "fm-involution" in codes and "fm-invertible" not in codes
            if change == "fm-singular":
                assert "fm-invertible" in codes
    assert flagged  # the perturbations do reach the checks
    # the bidegree draws reach both the constructor's refusal and validate
    assert bool(out_of_range) == (change == "bidegree")
    if change == "mul-several":
        # several associators on one document, so their order is compared
        assert most_associators >= 3


def test_validate_stays_sparse(monkeypatch):
    # builders re-validate themselves; neither they nor ``validate`` may
    # build a dense Fraction product, a model product or an Element
    def forbidden(*args, **kwargs):
        raise AssertionError("validate left the sparse integer tables")

    monkeypatch.setattr(ModelAlgebra, "multiply", forbidden)
    monkeypatch.setattr(Element, "__init__", forbidden)
    for name, g in bundled_models(4):
        assert validate(build_model(name, g)).ok
    assert validate(load_model(NONASSOCIATIVE)).codes() == ("mul-associativity",)


def test_validate_eliminates_only_when_the_square_law_fails(monkeypatch):
    # a Fourier matrix that squares to a signed diagonal is invertible, so
    # an admissible model needs no rank computation
    def forbidden(*args, **kwargs):
        raise AssertionError("validate ran the elimination on a square-law F")

    monkeypatch.setattr(kring.model, "_bareiss", forbidden)
    for spec, conjugated, _ in PERTURBED:
        assert validate(presented_model(spec, conjugated)).ok, (spec, conjugated)


@pytest.mark.parametrize(
    "change",
    [
        lambda fm: fm[:-1],
        lambda fm: [row[:-1] for row in fm],
        lambda fm: fm[:1] + [row + [F(0)] for row in fm[1:]],
    ],
    ids=["missing-row", "short-rows", "ragged"],
)
def test_non_square_fourier_matrix_is_refused(change):
    basis, mul, fm = theta_raw(2)
    with pytest.raises(StructureError, match="square"):
        ModelAlgebra(2, basis, mul, change(fm), unit_index=0, star_unit_index=2)


fm_entry = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


@st.composite
def documents_with_rational_fm(draw):
    """A bundled model's document with its dense ``fm`` replaced by entries
    of mixed denominators, signs and zeros (no builder writes one: every
    builder entry is 0 or +-1), and a vector of the model."""
    name, g = draw(st.sampled_from(bundled_models(3)))
    doc = json.loads(export_model(model(name, g)))
    dim = len(doc["basis"])
    row = st.lists(fm_entry, min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=dim, max_size=dim))
    doc["fm"] = [[f"{c.numerator}/{c.denominator}" for c in row] for row in rows]
    x = draw(row)
    return json.dumps(doc, indent=1) + "\n", rows, x


@settings(max_examples=40, deadline=None)
@given(documents_with_rational_fm())
def test_rational_fourier_matrices_round_trip(case):
    text, rows, coords = case
    m = import_model(text)
    assert export_model(m) == text
    x = m.from_coords(coords)
    if len(rref(rows, m.dim)[1]) < m.dim:
        with pytest.raises(StructureError, match="singular"):
            fourier_inverse(x)
    else:
        assert fourier_inverse(fourier(x)) == x
        assert fourier(fourier_inverse(x)) == x
