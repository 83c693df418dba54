"""kring benchmark: cold CLI suite jobs, every verdict checked.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a kring checkout.  A closed loop with one client: one
job process is alive at a time.  On ``verify``, ``conjecture`` and
``filtration`` every job is a fresh interpreter that imports kring, builds
its model and runs one suite, as ``kring <suite> --builder B --g G`` does, so
the module-level caches start empty.  On ``model-churn`` one process serves
a whole pass.  Passes repeat until the next one would end after
``--seconds``; at least one pass runs.

Times are in reference seconds: each job process runs a fixed speed probe
every 40 ms, and ``speed.py`` scales the wall time between probes by the
probe's speed, so that a phase in which a shared host runs the vCPU at half
speed does not double the figures.  The wall time of a pass is printed
beside ``wall_s``.

The workload seed shuffles the job order of each pass and picks the
saturation seed, ``seed % 8``.  Every report must carry the statuses of
``expected.py`` and match, byte for byte, the SHA-256 recorded in
``goldens.json`` for its job and saturation seed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of ``spans.py``
and the tracing overhead.  Spans of the last traced pass of each job go to
``.bench_out/traces/``.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-goldens`` rewrites ``goldens.json`` from the current tree.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from expected import expected_statuses
from spans import LAYER_METRICS, combine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
TRACES = ROOT / ".bench_out" / "traces"

SATURATION_SEEDS = 8
SETUP_SAMPLES = 24
JOB_TIMEOUT_S = 150

WORKLOADS = {
    "verify": [("verify", "theta", 4), ("verify", "antisym", 3), ("verify", "violator", 3)],
    "conjecture": [
        ("conjecture", "violator", 3),
        ("conjecture", "pathological", 3),
        ("conjecture", "antisym", 3),
    ],
    "filtration": [("filtration", "violator", 4), ("filtration", "antisym", 4)],
    "model-churn": [("churn", None, None)],
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_s.p50", "s"),
    ("job_s.tail", "s"),
    ("peak_rss_mb", "MiB"),
)

# Per-layer metrics that must read nonzero on the workload they dominate;
# a zero means a wrapper missed its binding site.
DOMINANT = {
    "verify": (
        "series.exp.self_s", "series.mul.self_s", "model.Element.calls",
        "model.multiply.self_s", "operators.star_product.self_s",
        "operators.fourier.self_s", "model.validate.self_s", "reports.timed_frac",
    ),
    "conjecture": (
        "adams.complete_chern.self_s", "adams.gamma_series.self_s",
        "model.Element.calls", "model.multiply.self_s", "model.validate.self_s",
        "linalg.intersect.self_s",
    ),
    "filtration": (
        "linalg.span.self_s", "linalg.span.rows_in", "linalg.reduce.self_s",
        "filtration.compute.self_s", "filtration.saturation_rounds",
        "operators.star_product.self_s", "model.multiply.self_s",
        "adams.gamma_images.self_s", "model.validate.self_s",
    ),
    "model-churn": (
        "model.validate.self_s", "modelio.export.self_s", "modelio.import.self_s",
        "modelio.fingerprint.self_s", "adams.adams_operator.cache_size",
        "operators.cache_size", "model.Element.calls",
    ),
}


def child_env() -> dict:
    env = dict(os.environ)
    # Job processes load kring from bytecode, as an installed CLI does; the
    # unmeasured compile in ``measure`` writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def launch(spec: dict, env: dict) -> dict:
    """Run one job process to completion; returns its record, with the set-up
    time measured from just before the launch, in reference seconds."""
    start = time.perf_counter()
    spec = dict(spec, launched=start)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "job.py"), json.dumps(spec)],
            capture_output=True, text=True, env=env, timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {JOB_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["setup_ref_s"]
    record["wall_s"] = record["wall_ref_s"]
    record["raw_wall_s"] = record["t_done"] - record["t_built"]
    return record


class Pass:
    """The outcome of one pass over a workload's job list."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.setups: list[tuple[str, float]] = []  # (model, set-up time)
        self.jobs: list[dict] = []
        self.wall_s = 0.0
        self.raw_wall_s = 0.0
        self.probe_s: list[float] = []
        self.maxrss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.layers: list[dict] = []
        self.fingerprints: dict[str, str] = {}

    def count(self, errors: list[str]) -> None:
        """Count one checked operation, failed when it has errors."""
        self.attempted += 1
        self.failed += bool(errors)
        self.errors += errors


def check_job(job: dict, goldens: dict, sat_seed: int) -> list[str]:
    suite, builder, _ = job["name"].split("/")
    want = expected_statuses(suite, builder)
    errors = []
    if [tuple(s) for s in job["statuses"]] != want:
        got = {k: v for k, v in job["statuses"]}
        diff = [f"{k}: {got.get(k)} != {v}" for k, v in want if got.get(k) != v]
        errors.append(f"{job['name']}: statuses differ from the table ({diff or 'ids'})")
    if job["ok"] != all(status != "fail" for _, status in want):
        errors.append(f"{job['name']}: ok is {job['ok']}")
    golden = goldens.get("reports", {}).get(f"{job['name']}/seed{sat_seed}")
    if goldens and job["sha"] != golden:
        errors.append(f"{job['name']}: report bytes differ from the golden")
    return errors


def run_pass(workload: str, rng: random.Random, sat_seed: int, goldens: dict,
             env: dict, trace_tag: str | None) -> Pass:
    jobs = list(WORKLOADS[workload])
    rng.shuffle(jobs)
    result = Pass(trace_tag is not None)
    for suite, builder, g in jobs:
        spec = {
            "suite": suite, "builder": builder, "g": g, "sat_seed": sat_seed,
            "order_seed": rng.randrange(2**32), "trace_out": None,
        }
        if trace_tag is not None:
            TRACES.mkdir(parents=True, exist_ok=True)
            label = f"{suite}-{builder}-{g}" if builder else suite
            spec["trace_out"] = str(TRACES / f"{trace_tag}-{label}.json")
        record = launch(spec, env)
        if "error" in record:
            result.attempted += 1
            result.failed += 1
            result.errors.append(f"{suite}/{builder}/{g}: {record['error']}")
            continue
        result.setups.append((f"{builder}/{g}" if builder else suite, record["setup_s"]))
        result.wall_s += record["wall_s"]
        result.raw_wall_s += record["raw_wall_s"]
        result.probe_s.append(record["probe_s"])
        result.maxrss_kb = max(result.maxrss_kb, record["maxrss_kb"])
        for job in record["jobs"]:
            result.jobs.append(job)
            result.count(check_job(job, goldens, sat_seed))
        for model in record["models"]:
            result.fingerprints[model["name"]] = model["fingerprint"]
            want = goldens.get("fingerprints", {}).get(model["name"])
            if not model["valid"]:
                result.count([f"model {model['name']}: validate failed"])
            elif goldens and model["fingerprint"] != want:
                result.count([f"model {model['name']}: fingerprint differs"])
            else:
                result.count([])
        if "layers" in record:
            result.layers.append(record["layers"])
    return result


def setup_samples(workload: str, env: dict) -> Pass:
    """Before the first pass, ``SETUP_SAMPLES`` processes that only import
    kring and build a job's model, each job's model equally often.  They warm
    the page cache, and their set-up times join those of the passes in
    ``setup_s``.  Not on ``model-churn``, where every pass sets up all the
    models in one process."""
    result = Pass(traced=False)
    if workload == "model-churn":
        return result
    jobs = WORKLOADS[workload]
    for i in range(SETUP_SAMPLES):
        _, builder, g = jobs[i % len(jobs)]
        spec = {
            "suite": "setup", "builder": builder, "g": g, "sat_seed": 0,
            "order_seed": 0, "trace_out": None,
        }
        record = launch(spec, env)
        if "error" in record:
            result.count([f"setup/{builder}/{g}: {record['error']}"])
        else:
            result.setups.append((f"{builder}/{g}", record["setup_s"]))
            result.count([])
    return result


def kind_medians(jobs: list[dict]) -> list[tuple[float, str, int]]:
    """Per kind of job (same name), the median suite time in reference
    seconds, its name and its sample count, fastest kind first."""
    by_kind: dict[str, list[float]] = {}
    for job in jobs:
        by_kind.setdefault(job["name"], []).append(job["ref_s"])
    return sorted((statistics.median(v), k, len(v)) for k, v in by_kind.items())


def end_to_end(passes: list[Pass], warm: Pass) -> tuple[dict, dict]:
    # Models differ in set-up cost, so a median over a mix of them would
    # fall in the gap between two models' times; take each model's median.
    by_model: dict[str, list[float]] = {}
    for model, took in warm.setups + [s for p in passes for s in p.setups]:
        by_model.setdefault(model, []).append(took)
    setups = [t for v in by_model.values() for t in v]
    jobs = [j for p in passes for j in p.jobs]
    kinds = kind_medians(jobs)
    slowest, slowest_name, slowest_n = kinds[-1]
    raw_wall = statistics.median(p.raw_wall_s for p in passes)
    probe_ms = 1000 * statistics.median(t for p in passes for t in p.probe_s)
    values = {
        "setup_s": (
            statistics.fmean(statistics.median(v) for v in by_model.values()),
            f"mean over {len(by_model)} models of the median set-up, "
            f"{len(setups)} processes",
        ),
        "wall_s": (
            statistics.median(p.wall_s for p in passes),
            f"median of {len(passes)} passes; {raw_wall:.4g} s of wall time, "
            f"probe {probe_ms:.3f} ms",
        ),
        "job_s.p50": (
            statistics.median(m for m, _, _ in kinds),
            f"median of the medians of {len(kinds)} job kinds, {len(jobs)} jobs",
        ),
        "job_s.tail": (slowest, f"median of the slowest kind, {slowest_name}, {slowest_n} jobs"),
        "peak_rss_mb": (
            max(p.maxrss_kb for p in passes) / 1024,
            f"max over {sum(len(p.setups) for p in passes)} job processes",
        ),
    }
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
    notes = {name: values[name][1] for name in values}
    return metrics, notes


def per_layer(passes: list[Pass]) -> tuple[dict, dict]:
    traced = [combine(p.layers) for p in passes if p.traced]
    plain = [p.wall_s for p in passes if not p.traced]
    metrics, notes = {}, {}
    for name, unit in LAYER_METRICS:
        metrics[name] = {"value": statistics.median(t[name] for t in traced), "unit": unit}
        notes[name] = f"median of {len(traced)} traced passes"
    overhead = (
        statistics.median(p.wall_s for p in passes if p.traced) / statistics.median(plain) - 1
    )
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    notes["trace.overhead"] = (
        f"traced wall_s / untraced wall_s - 1, {len(traced)} and {len(plain)} passes"
    )
    return metrics, notes


def check_traced(workload: str, passes: list[Pass], metrics: dict) -> list[str]:
    """The tracing self-check: dominant layers read nonzero and traced
    reports are byte-identical to untraced ones."""
    errors = [
        f"{name} reads zero on {workload}"
        for name in DOMINANT[workload] if not metrics[name]["value"]
    ]
    plain = {j["name"]: j["sha"] for p in passes if not p.traced for j in p.jobs}
    for p in passes:
        if p.traced:
            errors += [
                f"{j['name']}: traced report differs from the untraced one"
                for j in p.jobs if plain.get(j["name"]) != j["sha"]
            ]
    return errors


def measure(workload: str, seed: int, seconds: float, trace: bool, goldens: dict) -> int:
    env = child_env()
    # compile once so no timed process pays for writing bytecode
    subprocess.run([sys.executable, "-c", "import kring, spans, speed"], env=env, check=True)
    rng = random.Random(seed)
    sat_seed = seed % SATURATION_SEEDS
    warm = Pass(traced=False) if trace else setup_samples(workload, env)
    deadline = time.perf_counter() + seconds
    passes: list[Pass] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        start = time.perf_counter()
        passes.append(run_pass(
            workload, rng, sat_seed, goldens, env,
            f"{workload}-seed{seed}" if traced else None,
        ))
        took = time.perf_counter() - start
        if passes[-1].errors and not passes[-1].jobs:
            break
        enough = not trace or len(passes) >= 2
        if enough and time.perf_counter() + took > deadline:
            break
    errors = warm.errors + [e for p in passes for e in p.errors]
    attempted = warm.attempted + sum(p.attempted for p in passes)
    failed = warm.failed + sum(p.failed for p in passes)
    print(f"workload {workload}: seed {seed}, saturation seed {sat_seed}, "
          f"{len(passes)} passes, {attempted} checks")
    metrics: dict = {}
    if all(p.jobs for p in passes) and not warm.failed:
        if trace:
            metrics, notes = per_layer(passes)
            trace_errors = check_traced(workload, passes, metrics)
            failed = min(attempted, failed + len(trace_errors))
            errors += trace_errors
        else:
            metrics, notes = end_to_end(passes, warm)
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:<14.6g} {m['unit']:6s} {notes[name]}")
    print(f"  {'failed_frac':36s} {failed / max(attempted, 1):<14.6g} ratio  "
          f"{failed} failed of {attempted} attempted")
    for error in errors:
        print(f"  FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": max(attempted, 1),
        "failed": max(failed, int(bool(errors))),
        "metrics": metrics,
    }))
    return 0


def record_goldens() -> int:
    """Run every job at every saturation seed and record its report SHA-256,
    after checking its statuses against the table and that reports of one
    job differ across seeds only in ``config.seed``."""
    env = child_env()
    goldens: dict = {"reports": {}, "fingerprints": {}}
    seedless: dict = {}
    errors: list[str] = []
    for workload in WORKLOADS:
        for sat_seed in range(SATURATION_SEEDS):
            result = run_pass(workload, random.Random(sat_seed), sat_seed, {}, env, None)
            errors += result.errors
            for job in result.jobs:
                goldens["reports"][f"{job['name']}/seed{sat_seed}"] = job["sha"]
                if seedless.setdefault(job["name"], job["seedless_sha"]) != job["seedless_sha"]:
                    errors.append(f"{job['name']}: report depends on the seed")
            for name, fp in result.fingerprints.items():
                if goldens["fingerprints"].setdefault(name, fp) != fp:
                    errors.append(f"model {name}: fingerprint depends on the seed")
            print(f"{workload} seed {sat_seed}: {len(result.jobs)} jobs", flush=True)
    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    if errors:
        return 1
    goldens["reports"] = dict(sorted(goldens["reports"].items()))
    goldens["fingerprints"] = dict(sorted(goldens["fingerprints"].items()))
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "kring" / "__init__.py").is_file():
        print(f"error: no kring sources at {SRC}; run from a kring checkout",
              file=sys.stderr)
        return 2
    if args.record_goldens:
        return record_goldens()
    if args.workload is None:
        parser.error("--workload is required")
    if not GOLDENS.is_file():
        print(f"error: {GOLDENS} is missing; record it with --record-goldens",
              file=sys.stderr)
        return 2
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    return measure(args.workload, args.seed, args.seconds, bool(args.trace), goldens)


if __name__ == "__main__":
    sys.exit(main())
