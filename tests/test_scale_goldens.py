"""Byte-level guard at larger g, where exact denominators grow: the SHA-256
of these structured reports was recorded with the ``Fraction``-coordinate
kernel and must not move when the arithmetic underneath changes."""

import hashlib
import json
from pathlib import Path

import pytest

from kring import modelio, reports

SCALE_GOLDENS = json.loads(
    (Path(__file__).resolve().parent / "scale_goldens.json").read_text()
)

RUNNERS = {
    "verify": reports.run_verify_suite,
    "conjecture": reports.run_conjecture_suite,
    "filtration": reports.run_filtration_tables,
}


@pytest.mark.parametrize("key", sorted(SCALE_GOLDENS))
def test_scale_report_hash(key):
    suite, builder, g = key.split("/")
    model = modelio.build_model(builder, int(g))
    report = RUNNERS[suite](
        model, f"{builder}(g={g})", order=None, seed=0, max_rounds=8
    )
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == SCALE_GOLDENS[key]
