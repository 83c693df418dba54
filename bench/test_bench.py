"""Smoke tests of the benchmark harness at tiny size (theta, g = 2).

    python3 -m pytest bench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
from expected import expected_statuses  # noqa: E402
from spans import LAYER_METRICS, combine  # noqa: E402


def _job(trace_out=None, seed=3):
    spec = {
        "suite": "verify", "builder": "theta", "g": 2, "sat_seed": seed,
        "order_seed": 0, "trace_out": trace_out,
    }
    record = run.launch(spec, run.child_env())
    assert "error" not in record, record.get("error")
    return record


def test_job_matches_cli_bytes_and_table():
    record = _job()
    (job,) = record["jobs"]
    assert [tuple(s) for s in job["statuses"]] == expected_statuses("verify", "theta")
    cli = subprocess.run(
        [sys.executable, "-m", "kring", "verify", "--builder", "theta", "--g", "2",
         "--seed", "3", "--format", "structured"],
        capture_output=True, env=run.child_env(), check=True,
    )
    assert job["sha"] == hashlib.sha256(cli.stdout).hexdigest()
    assert 0 < record["setup_s"] and job["t0"] < job["t1"] <= record["t_done"]
    assert 0 < job["ref_s"] < record["wall_s"] and record["probe_s"] > 0


def test_traced_job_is_byte_identical_and_counts_layers(tmp_path):
    plain = _job()["jobs"][0]
    out = tmp_path / "spans.json"
    traced = _job(trace_out=str(out))
    assert traced["jobs"][0]["sha"] == plain["sha"]
    metrics = combine([traced["layers"]])
    assert set(metrics) == {name for name, _ in LAYER_METRICS}
    for name in ("model.Element.calls", "model.multiply.self_s", "series.exp.self_s",
                 "operators.star_product.calls", "linalg.span.rows_in",
                 "model.validate.calls", "reports.suite.total_s"):
        assert metrics[name] > 0, name
    assert 0 < metrics["reports.timed_frac"] <= 1
    assert 0 < metrics["linalg.span.rank_ratio"] <= 1
    spans = json.loads(out.read_text())
    assert spans["fields"] == ["name", "start", "end", "parent"]
    assert "reports.suite" in spans["names"] and spans["spans"]


def test_percentiles_come_from_per_kind_medians():
    times = {"a": [1.0, 1.2, 9.0], "b": [2.0, 2.1, 2.2], "c": [5.0, 5.5, 6.0]}
    passes = []
    for i in range(3):
        p = run.Pass(traced=False)
        p.setups, p.wall_s, p.maxrss_kb, p.probe_s = [("m", 0.1)], 1.0, 1024, [0.001]
        p.jobs = [{"name": k, "ref_s": v[i]} for k, v in times.items()]
        passes.append(p)
    metrics, _ = run.end_to_end(passes, run.Pass(traced=False))
    assert metrics["job_s.p50"]["value"] == 2.1
    assert metrics["job_s.tail"]["value"] == 5.5


def test_reference_clock_scales_by_probe_speed_and_skips_probes():
    ref = speed.REF_PROBE_S
    # three probes at the reference speed, then four at half of it
    probes = [(t, t + ref) for t in (0.0, 1.0, 2.0)]
    probes += [(t, t + 2 * ref) for t in (3.0, 4.0, 5.0, 6.0)]
    clock = speed.ReferenceClock(probes)

    def close(a, b):
        return abs(a - b) < 1e-9

    assert close(clock(0.5) - clock(ref), 0.5 - ref)
    assert clock(1.0 + ref / 2) == clock(1.0)
    assert close(clock(5.5) - clock(5.0 + 2 * ref), (0.5 - 2 * ref) / 2)
    assert close(clock(7.0) - clock(6.0), (1.0 - 2 * ref) / 2)
    assert close(clock(-1.0), -1.0)


def test_failed_verdict_is_counted():
    job = _job()["jobs"][0]
    job["statuses"][0][1] = "fail"
    assert run.check_job(job, {}, 3)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_dominant_map_names_known_metrics_for_every_workload():
    names = {name for name, _ in LAYER_METRICS}
    assert set(run.DOMINANT) == set(run.WORKLOADS)
    for workload, metrics in run.DOMINANT.items():
        assert set(metrics) <= names, workload
