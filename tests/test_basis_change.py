"""Basis-change invariance: a model rebuilt in another basis of each
bidegree block is isomorphic to the original, so every suite verdict and
every filtration dimension must stay the same.

The conjugates of ``tests.conftest.basis_change`` have denser product and
Fourier tables than the bundled builders, which is where the partner
masks, the capped weight n_max and the ``verify`` reuse keys are least
likely to fire.  The tensor products of ``tests.conftest.tensor`` have
bidegree blocks several vectors wide, so their conjugates are the densest.
Besides that fixed P, ``hypothesis`` draws block-diagonal ones.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kring import export_model, fingerprint, import_model, reports, validate
from tests import oracle
from tests.conftest import (
    TENSORS,
    VIOLATOR_PRODUCT,
    basis_change,
    bundled_models,
    conjugate,
    spec_model,
)

CASES = [pytest.param((name, g), id=f"{name}-{g}") for name, g in bundled_models(4)] + [
    pytest.param((a, b), id=f"{a[0]}{a[1]}x{b[0]}{b[1]}") for a, b in TENSORS
]


@lru_cache(maxsize=None)
def _verdicts(m):
    """The statuses of ``verify`` and ``conjecture`` and every statement of
    the filtration tables on ``m``."""
    verify, conj, tables = (
        run(m, "model").statements
        for run in (reports.run_verify_suite, reports.run_conjecture_suite, reports.run_filtration_tables)
    )
    return {s.id: s.status for s in verify}, {s.id: s.status for s in conj}, [
        (s.id, s.status, s.detail) for s in tables
    ]


def _assert_same_verdicts(m, c, witnesses=True):
    """``c``, a conjugate of ``m``, validates, keeps its fingerprint through
    export and import, and reaches ``m``'s verdicts and filtration tables
    (their augmentation witnesses too, unless ``witnesses`` is false); returns
    the two statuses of ``lem-conjecture-equivalences``, left out here."""
    assert validate(m).ok and validate(c).ok
    assert fingerprint(import_model(export_model(c))) == fingerprint(c)
    (verify, conj, tables), (got_verify, got_conj, got_tables) = _verdicts(m), _verdicts(c)
    assert list(got_verify.items()) == list(verify.items())
    if not witnesses:
        tables, got_tables = (
            [(sid, status, detail.partition(" (witness ")[0]) for sid, status, detail in t]
            for t in (tables, got_tables)
        )
    assert got_tables == tables
    want, got = dict(conj), dict(got_conj)
    sid = "lem-conjecture-equivalences"
    equivalences = want.pop(sid), got.pop(sid)
    assert list(got.items()) == list(want.items())
    return equivalences


@pytest.mark.parametrize("spec", CASES)
def test_conjugate_keeps_every_verdict(spec):
    m = spec_model(spec)
    want, got = _assert_same_verdicts(m, conjugate(m, basis_change(m)))
    if spec == VIOLATOR_PRODUCT:
        # the violator factor's positive- and negative-index product survives
        assert _verdicts(m)[1]["conj-2-products"] == "fail"
        # lem-conjecture-equivalences tests basis classes only, and its
        # criteria are not linear in the class: on this model, which breaks
        # the lemma's hypotheses, the basis class w*e1 in K^1_1 has (1)
        # false and (2) - (4) true, while the conjugate's class there mixes
        # w*e1 with v*e0 and all four agree; the verdict follows the basis
        assert (want, got) == ("fail", "pass")
    else:
        assert got == want


PATHOLOGICAL_PRODUCT = (("pathological", 2), ("theta", 1))


@pytest.mark.parametrize(
    "spec", TENSORS + [PATHOLOGICAL_PRODUCT],
    ids=[f"{a[0]}{a[1]}x{b[0]}{b[1]}" for a, b in TENSORS + [PATHOLOGICAL_PRODUCT]],
)
def test_verdicts_follow_the_factors(spec):
    # the proved identities hold on every product; the conjecture fails
    # exactly when a factor breaks it, and on every statement that factor
    # fails on its own
    verify, conj, _ = _verdicts(spec_model(spec))
    assert "fail" not in verify.values()
    failing = {sid for sid, status in conj.items() if status == "fail"}
    bad = [f for f in spec if f[0] in ("violator", "pathological")]
    assert bool(failing) == bool(bad)
    for factor in bad:
        alone = _verdicts(spec_model(factor))[1]
        assert {sid for sid, status in alone.items() if status == "fail"} <= failing


entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)).map(Fraction)


@st.composite
def drawn_conjugates(draw):
    """A bundled or tensor model and a block-diagonal P that keeps the unit,
    the origin class and ``e1`` and mixes the other vectors of each
    bidegree block, with rational entries, into an invertible block."""
    spec = draw(st.sampled_from(bundled_models(4) + TENSORS))
    m = spec_model(spec)
    keep = {m.unit_index, m.star_unit_index} | ({m.index_of("e1")} if "e1" in m.labels else set())
    P = [[Fraction(int(i == k)) for k in range(m.dim)] for i in range(m.dim)]
    for bidegree in dict.fromkeys(m.bidegrees):
        block = [i for i in range(m.dim) if m.bidegrees[i] == bidegree]
        moving = [i for i in block if i not in keep]
        for i in moving:
            for k in block:
                P[i][k] = draw(entry)
        # the kept rows are unit vectors, so P is invertible when the
        # moving rows are on the moving columns
        square = [[P[i][k] for k in moving] for i in moving]
        assume(len(oracle.rref(square, len(moving))[1]) == len(moving))
    return spec, P


@settings(max_examples=12, deadline=None)
@given(drawn_conjugates())
def test_drawn_conjugates_keep_every_verdict(case):
    spec, P = case
    m = spec_model(spec)
    # a P that permutes a block moves the first failing pair of the walk
    want, got = _assert_same_verdicts(m, conjugate(m, P), witnesses=False)
    # on a model with a violator factor the equivalence verdict follows the
    # basis (see test_conjugate_keeps_every_verdict)
    if "violator" not in str(spec):
        assert got == want
