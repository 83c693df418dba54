"""The seven ``verify`` checks that reuse values or read a product table
instead of multiplying reach the same first failure as the plain loops
they replace.

The plain loops are kept here as test-local copies: each recomputes every
product, Fourier image and gamma series and walks every basis pair.
``prop-omega-n`` and ``pushforward-star-hom`` instead walk the entries
(i, j), j >= i, of their product's table once and test lambda_k =
lambda_i lambda_j for every output k, so their copies are the product
route.  For each model, ``Statement.first_failure`` must give the same
status, detail and witness for the copy and for the check in
``kring.reports`` (or both must raise the same error).  The models are
every builder at g = 2 and 3, theta(4), the perturbed documents of
``tests/test_failure_paths.py`` and a deterministic sweep of single-entry
``mul`` and ``fm`` edits of the g = 2 documents (and ``mul`` constant
edits at g = 3): an edit that breaks a product is where a wrong table walk
would hide a failure.  The two table walks also run on the ``TENSORS``
products and their ``basis_change`` conjugates, whose tables are denser.
The oracle (``tests/oracle.py``) checks values, not the first failure of
a walk order.
"""

import json
from fractions import Fraction

import pytest

from kring import (
    adams,
    euler_char,
    fourier,
    gamma_images,
    gamma_series,
    modelio,
    pullback,
    pushforward,
    rank,
    reports,
    star_product,
)
from kring.adams import ADAMS_KINDS
from tests.conftest import (
    TENSORS,
    document,
    edits,
    fm00,
    mul1,
    outcome,
    presented_model,
    rename_e1,
)

BUILDERS = ("theta", "antisym", "pathological", "violator")


def _old_fm_iso(run):
    model, basis, labels = run.model, run.basis, run.model.labels
    inversion = pullback(model, -1)
    sign = Fraction((-1) ** run.g)
    for i, e in enumerate(basis):
        if fourier(fourier(e)) != sign * inversion.apply(e):
            yield "square law", labels[i]
    for i in range(model.dim):
        for j in range(i, model.dim):
            lhs = fourier(star_product(basis[i], basis[j]))
            if lhs != fourier(basis[i]) * fourier(basis[j]):
                yield "multiplicativity", f"({labels[i]}, {labels[j]})"
    for i, e in enumerate(basis):
        if euler_char(e) != rank(fourier(e)):
            yield "augmentation exchange", labels[i]
        if star_product(model.star_unit(), e) != e:
            yield "origin class is not the unit", labels[i]


def _old_fm_composite(run):
    model, g = run.model, run.g
    for m in range(-2, 3):
        for n in range(-2, 3):
            for i, e in enumerate(run.basis):
                x = pushforward(model, n).apply(e)
                lhs = pullback(model, m).apply(fourier(fourier(x)))
                if lhs != Fraction((-1) ** g) * pullback(model, -m).apply(x):
                    yield f"(m, n)=({m}, {n})", model.labels[i]
                    break


def _old_exchange(run):
    for n in range(-3, 4):
        for i, e in enumerate(run.basis):
            lhs = fourier(pushforward(run.model, n).apply(e))
            if lhs != pullback(run.model, n).apply(fourier(e)):
                yield f"n={n}", run.model.labels[i]


def _old_omega(run):
    model, basis, labels = run.model, run.basis, run.model.labels
    for n in range(1, 5):
        for i in range(model.dim):
            for j in range(i, model.dim):
                x, y = basis[i], basis[j]
                for kind in ("composed", "pi_star"):
                    if adams(model, kind, n, x * y) != adams(model, kind, n, x) * adams(
                        model, kind, n, y
                    ):
                        yield f"{kind}, n={n}", f"({labels[i]}, {labels[j]})"
        for e in basis:
            if rank(adams(model, "pi_star", n, e)) != rank(e):
                yield f"rank preservation, n={n}", ""
            if adams(model, "composed", n, e).beauville_component(0) != (
                e.beauville_component(0)
            ):
                yield f"index-0 augmentation preservation, n={n}", ""


def _old_push_star_hom(run):
    model, basis, labels = run.model, run.basis, run.model.labels
    for m in range(-2, 3):
        push = pushforward(model, m)
        for i in range(model.dim):
            for j in range(i, model.dim):
                lhs = push.apply(star_product(basis[i], basis[j]))
                if lhs != star_product(push.apply(basis[i]), push.apply(basis[j])):
                    yield f"m={m}", f"({labels[i]}, {labels[j]})"


def _old_star_push_commute(run):
    model, g = run.model, run.g
    elements = list(run.basis) + reports._sample_elements(model)
    for m in range(-2, 3):
        push = pushforward(model, m)
        for x in elements:
            lhs_all = gamma_images(model, "star", push.apply(x), g + 1)
            rhs_all = gamma_images(model, "star", x, g + 1)
            for n in range(g + 2):
                if lhs_all[n] != push.apply(rhs_all[n]):
                    yield f"m={m}, n={n}", str(x)


def _old_addition_law(run):
    model, order = run.model, run.order
    samples = reports._sample_elements(model, 2)
    pairs = [(run.basis[0], run.basis[-1]), (samples[0], samples[1])]
    for kind in ADAMS_KINDS:
        for x, y in pairs:
            left = gamma_series(model, kind, x + y, order)
            right = gamma_series(model, kind, x, order) * gamma_series(
                model, kind, y, order
            )
            if left != right:
                yield kind, str(x + y)


# statement id -> (plain loop, check under test)
CHECKS = {
    "prop-F_qmF_pn": (_old_fm_composite, reports._fm_composite),
    "thm-fm-iso": (_old_fm_iso, reports._fm_iso),
    "exchange-law": (_old_exchange, reports._exchange),
    "prop-omega-n": (_old_omega, reports._omega),
    "pushforward-star-hom": (_old_push_star_hom, reports._push_star_hom),
    "star-pushforward-commute": (_old_star_push_commute, reports._star_push_commute),
    "gamma-addition-law": (_old_addition_law, reports._addition_law),
}


def _assert_same_outcomes(model):
    statuses = {}
    for sid, (old, new) in CHECKS.items():
        want = outcome(sid, old, model)
        assert outcome(sid, new, model) == want, sid
        statuses[sid] = want[0]
    return statuses


@pytest.mark.parametrize(
    "builder,g", [(b, g) for g in (2, 3) for b in BUILDERS] + [("theta", 4)]
)
def test_bundled_models(builder, g):
    statuses = _assert_same_outcomes(modelio.build_model(builder, g))
    assert set(statuses.values()) == {"pass"}


@pytest.mark.parametrize(
    "builder,edit",
    [("pathological", fm00), ("theta", mul1), ("theta", fm00), ("theta", rename_e1)],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_perturbed_documents(builder, edit):
    doc = document(builder, 2)
    edit(doc)
    _assert_same_outcomes(modelio.import_model(json.dumps(doc)))


# the g = 3 constant edits add models whose addition law holds for the
# ``usual`` family but fails for ``composed``: a gamma-series key that
# ignored the Adams weights would hide that failure
@pytest.mark.parametrize(
    "g,where", [(2, "mul"), (2, "new-mul"), (2, "fm"), (3, "mul")]
)
@pytest.mark.parametrize("builder", BUILDERS)
def test_single_entry_edits(builder, g, where):
    base = document(builder, g)
    failing = 0
    for edit in edits(base, where):
        doc = json.loads(json.dumps(base))
        edit(doc)
        statuses = _assert_same_outcomes(modelio.import_model(json.dumps(doc)))
        failing += "fail" in statuses.values()
    # the sweep reaches failures, so a hidden one would show
    assert failing


# the basis_change conjugates have non-permutation Fourier matrices, and
# their product tables have more entries, some with several outputs k
@pytest.mark.parametrize("sid", ["prop-omega-n", "pushforward-star-hom"])
@pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "conj"])
@pytest.mark.parametrize("spec", TENSORS, ids=[f"{a[0]}{a[1]}x{b[0]}{b[1]}" for a, b in TENSORS])
def test_table_walks_on_tensor_products(spec, conjugated, sid):
    model = presented_model(spec, conjugated)
    old, new = CHECKS[sid]
    assert outcome(sid, new, model) == outcome(sid, old, model)


@pytest.mark.parametrize("builder,g", [("theta", 4), ("violator", 3), ("antisym", 2)])
def test_fourier_images_are_taken_once(builder, g, monkeypatch):
    # prop-F_qmF_pn takes F F pushforward(n) e once per n and basis vector,
    # for five n; exchange-law takes F e once and F pushforward(n) e for
    # seven n
    model = modelio.build_model(builder, g)
    calls = []

    def counted(x):
        calls.append(x)
        return fourier(x)

    monkeypatch.setattr(reports, "fourier", counted)
    for sid, per_vector in (("prop-F_qmF_pn", 10), ("exchange-law", 8)):
        calls.clear()
        assert outcome(sid, CHECKS[sid][1], model) == ("pass", "", "")
        assert len(calls) == per_vector * model.dim
