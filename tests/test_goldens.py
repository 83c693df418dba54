"""Byte-level guard: builder fingerprints and structured report hashes must
equal the goldens the benchmark checks against (``bench/goldens.json``)."""

import hashlib
import json
from pathlib import Path

import pytest

from kring import modelio, reports

GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "goldens.json").read_text()
)


def _report_sha(runner, builder: str, g: int) -> str:
    model = modelio.build_model(builder, g)
    report = runner(model, f"{builder}(g={g})", order=None, seed=0, max_rounds=8)
    return hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()


# every builder at every legal g <= 6: 21 models
BUILT = [
    (builder, g)
    for builder in sorted(modelio.BUILDERS)
    for g in range(1 if builder == "theta" else 2, 7)
]


@pytest.mark.parametrize("builder,g", BUILT)
def test_builder_fingerprint(builder, g):
    model = modelio.build_model(builder, g)
    assert modelio.fingerprint(model) == GOLDENS["fingerprints"][f"{builder}/{g}"]


@pytest.mark.parametrize("builder", sorted(modelio.BUILDERS))
def test_verify_report_hash(builder):
    want = GOLDENS["reports"][f"verify/{builder}/2/seed0"]
    assert _report_sha(reports.run_verify_suite, builder, 2) == want


def test_conjecture_violator_report_hash():
    want = GOLDENS["reports"]["conjecture/violator/3/seed0"]
    assert _report_sha(reports.run_conjecture_suite, "violator", 3) == want
