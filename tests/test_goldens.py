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


def _report_sha(suite: str, builder: str, g: int) -> str:
    """The hash of a report called with the keywords the benchmark's job
    passes: timed model suites, and every kind by both methods at the
    default n_max for the tables; the laps are dropped before hashing."""
    model = modelio.build_model(builder, g)
    source, common = f"{builder}(g={g})", {"order": None, "seed": 0, "max_rounds": 8}
    if suite == "filtration":
        report = reports.run_filtration_tables(
            model, source, kinds=("gamma", "star", "pi", "Gamma"),
            methods=("saturation", "eigen_sum"), n_max=None, **common,
        )
    else:
        runner = {
            "verify": reports.run_verify_suite,
            "conjecture": reports.run_conjecture_suite,
        }[suite]
        report = runner(model, source, with_timings=True, **common)
        assert report.timings
    report.timings = None
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


def _assert_golden(suite: str, builder: str, g: int) -> None:
    want = GOLDENS["reports"][f"{suite}/{builder}/{g}/seed0"]
    assert _report_sha(suite, builder, g) == want


@pytest.mark.parametrize("builder", sorted(modelio.BUILDERS))
def test_verify_report_hash(builder):
    _assert_golden("verify", builder, 2)


def test_conjecture_violator_report_hash():
    _assert_golden("conjecture", "violator", 3)


# the other seed-0 jobs of the benchmark's workloads
BENCHMARK_JOBS = [
    ("verify", "theta", 4),
    ("verify", "antisym", 3),
    ("verify", "violator", 3),
    ("conjecture", "antisym", 3),
    ("conjecture", "pathological", 3),
    ("filtration", "antisym", 4),
    ("filtration", "violator", 4),
]


@pytest.mark.parametrize(
    "suite,builder,g", BENCHMARK_JOBS,
    ids=[f"{s}-{b}-{g}" for s, b, g in BENCHMARK_JOBS],
)
def test_benchmark_job_report_hash(suite, builder, g):
    _assert_golden(suite, builder, g)
