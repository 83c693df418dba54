"""Basis-change invariance: a model rebuilt in another basis of each
bidegree block is isomorphic to the original, so every suite verdict and
every filtration dimension must stay the same.

The conjugates of ``tests.conftest.basis_change`` have denser product and
Fourier tables than the bundled builders, which is where the partner
masks, the weight >= n_max bucket and the ``verify`` reuse keys are least
likely to fire.  The tensor products of ``tests.conftest.tensor`` have
bidegree blocks several vectors wide, so their conjugates are the densest.
"""

from functools import lru_cache

import pytest

from kring import reports, validate
from tests.conftest import basis_change, bundled_models, conjugate, model, tensor

VIOLATOR_PRODUCT = (("violator", 2), ("theta", 1))
TENSORS = [
    (("theta", 1), ("theta", 1)),
    (("theta", 2), ("theta", 1)),
    (("theta", 2), ("theta", 2)),
    (("antisym", 2), ("theta", 1)),
    VIOLATOR_PRODUCT,
]

CASES = [pytest.param((name, g), id=f"{name}-{g}") for name, g in bundled_models(4)] + [
    pytest.param((a, b), id=f"{a[0]}{a[1]}x{b[0]}{b[1]}") for a, b in TENSORS
]


@lru_cache(maxsize=None)
def _model(spec):
    """A bundled model (name, g), or the tensor product of two of them."""
    if isinstance(spec[0], tuple):
        return tensor(model(*spec[0]), model(*spec[1]))
    return model(*spec)


def _statuses(report) -> list[tuple[str, str]]:
    return [(s.id, s.status) for s in report.statements]


@pytest.mark.parametrize("spec", CASES)
def test_conjugate_keeps_every_verdict(spec):
    m, name = _model(spec), str(spec)
    c = conjugate(m, basis_change(m))
    assert validate(m).ok and validate(c).ok
    assert _statuses(reports.run_verify_suite(c, name)) == _statuses(
        reports.run_verify_suite(m, name)
    )
    want = dict(_statuses(reports.run_conjecture_suite(m, name)))
    got = dict(_statuses(reports.run_conjecture_suite(c, name)))
    if spec == VIOLATOR_PRODUCT:
        # the violator factor's positive- and negative-index product survives
        assert want["conj-2-products"] == "fail"
        # lem-conjecture-equivalences tests basis classes only, and its
        # criteria are not linear in the class: on this model, which breaks
        # the lemma's hypotheses, the basis class w*e1 in K^1_1 has (1)
        # false and (2) - (4) true, while the conjugate's class there mixes
        # w*e1 with v*e0 and all four agree; the verdict follows the basis
        sid = "lem-conjecture-equivalences"
        assert (want.pop(sid), got.pop(sid)) == ("fail", "pass")
    assert list(got.items()) == list(want.items())
    tables = [
        [(s.id, s.status, s.detail) for s in reports.run_filtration_tables(x, name).statements]
        for x in (m, c)
    ]
    assert tables[0] == tables[1]
