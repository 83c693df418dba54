"""Basis-change invariance: a model rebuilt in another basis of each
bidegree block is isomorphic to the original, so every suite verdict and
every filtration dimension must stay the same.

The conjugates of ``tests.conftest.basis_change`` have denser product and
Fourier tables than the bundled builders, which is where the partner
masks, the weight >= n_max bucket and the ``verify`` reuse keys are least
likely to fire.
"""

import pytest

from kring import reports, validate
from tests.conftest import basis_change, bundled_models, conjugate, model


def _statuses(report) -> list[tuple[str, str]]:
    return [(s.id, s.status) for s in report.statements]


@pytest.mark.parametrize("name,g", bundled_models(4))
def test_conjugate_keeps_every_verdict(name, g):
    m = model(name, g)
    c = conjugate(m, basis_change(m))
    assert validate(c).ok
    for run in (reports.run_verify_suite, reports.run_conjecture_suite):
        assert _statuses(run(c, name)) == _statuses(run(m, name))
    tables = [
        [(s.id, s.status, s.detail) for s in reports.run_filtration_tables(x, name).statements]
        for x in (m, c)
    ]
    assert tables[0] == tables[1]
