"""One benchmark job, run in a fresh interpreter as a kring CLI call is.

    python3 bench/job.py '<spec JSON>'

The spec names the suite (``verify``, ``conjecture``, ``filtration``,
``churn`` for one model-churn pass, or ``setup`` to build the model and stop),
the builder and g, the saturation seed,
the seed that orders a churn pass, and the file to write spans to (null for
an untraced job).  kring must be importable (``src`` on PYTHONPATH).
The last line of standard output is a JSON record with ``time.perf_counter``
stamps (a system-wide monotonic clock, so the parent can subtract its own
launch stamp), the SHA-256 and statement statuses of each structured report,
the peak RSS, and, when traced, the raw per-layer values.  Every duration
in the record is also given in reference seconds (``speed.py``): the probe
starts before kring is imported, and ``launched``, the parent's stamp from
just before it started this process, begins the set-up interval.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time

import speed

speed.start()  # before kring is imported, so the import is probed too

import kring  # noqa: E402
from kring import modelio, reports  # noqa: E402

FILTRATION_KINDS = ("gamma", "star", "pi", "Gamma")


def run_suite(suite: str, model, source: str, seed: int, timed: bool):
    """Call ``reports.run_*`` as the CLI does; returns the report bytes, the
    report, and the sum of its timing laps (0 when ``timed`` is false)."""
    if suite == "filtration":
        report = reports.run_filtration_tables(
            model, source, kinds=FILTRATION_KINDS,
            methods=("saturation", "eigen_sum"), n_max=None, order=None,
            seed=seed, max_rounds=8,
        )
    else:
        runner = (
            reports.run_verify_suite if suite == "verify"
            else reports.run_conjecture_suite
        )
        report = runner(
            model, source, order=None, seed=seed, max_rounds=8, with_timings=timed,
        )
    laps = report.timings or {}
    # the conjecture suite's "total" lap overlaps its statement laps
    timed_s = sum(v for k, v in laps.items() if k != "total")
    report.timings = None
    return report.to_json().encode("utf-8"), report, timed_s


def job_record(name: str, suite: str, model, source: str, seed: int, timed: bool) -> dict:
    t0 = time.perf_counter()
    data, report, timed_s = run_suite(suite, model, source, seed, timed)
    t1 = time.perf_counter()
    doc = report.to_dict()
    del doc["config"]["seed"]
    return {
        "name": name,
        "t0": t0,
        "t1": t1,
        "sha": hashlib.sha256(data).hexdigest(),
        "seedless_sha": hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode("utf-8")
        ).hexdigest(),
        "ok": report.ok,
        "statuses": [[s.id, s.status] for s in report.statements],
        "timed_s": timed_s,
    }


def suite_job(spec: dict, timed: bool) -> dict:
    builder, g = spec["builder"], spec["g"]
    model = modelio.build_model(builder, g)
    t_built = time.perf_counter()
    if spec["suite"] == "setup":  # a set-up sample: build the model, run nothing
        return {"t_built": t_built, "jobs": [], "models": []}
    job = job_record(
        f"{spec['suite']}/{builder}/{g}", spec["suite"], model,
        f"{builder}(g={g})", spec["sat_seed"], timed,
    )
    return {"t_built": t_built, "jobs": [job], "models": []}


def churn_pass(spec: dict, timed: bool) -> dict:
    """Build every builder at every legal g <= 6, then validate, export,
    re-import and fingerprint each model, and verify the four g = 2 models."""
    rng = random.Random(spec["order_seed"])
    names = [
        (builder, g)
        for builder in sorted(modelio.BUILDERS)
        for g in range(1 if builder == "theta" else 2, 7)
    ]
    rng.shuffle(names)
    models = {name: modelio.build_model(*name) for name in names}
    t_built = time.perf_counter()
    checks = []
    for builder, g in names:
        model = models[(builder, g)]
        valid = kring.validate(model).ok
        reloaded = modelio.import_model(modelio.export_model(model))
        checks.append({
            "name": f"{builder}/{g}",
            "valid": valid,
            "fingerprint": modelio.fingerprint(reloaded),
        })
    small = sorted(modelio.BUILDERS)
    rng.shuffle(small)
    jobs = [
        job_record(
            f"verify/{builder}/2", "verify", models[(builder, 2)],
            f"{builder}(g=2)", spec["sat_seed"], timed,
        )
        for builder in small
    ]
    return {"t_built": t_built, "jobs": jobs, "models": checks}


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace_out"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    work = churn_pass if spec["suite"] == "churn" else suite_job
    record = work(spec, timed=tracer is not None)
    record["t_done"] = time.perf_counter()
    clock = speed.ReferenceClock(speed.stop())
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["setup_ref_s"] = clock(record["t_built"]) - clock(spec["launched"])
    record["wall_ref_s"] = clock(record["t_done"]) - clock(record["t_built"])
    for job in record["jobs"]:
        job["ref_s"] = clock(job["t1"]) - clock(job["t0"])
    record["probe_s"] = clock.probe_s()
    if tracer is not None:
        record["layers"] = tracer.raw_metrics(
            sum(job["timed_s"] for job in record["jobs"]), clock
        )
        tracer.write(spec["trace_out"])
    print(json.dumps(record))


if __name__ == "__main__":
    main()
