"""Span tracing of kring's layers from outside the package.

``Tracer.install`` replaces the public functions of ``kring.model``,
``operators``, ``series``, ``adams``, ``linalg``, ``filtration``,
``reports`` and ``modelio`` by wrappers that record one span (name, start,
end, parent) per call.  A module that did ``from .x import y`` holds its own
reference to ``y``, so every kring module attribute that is the original
function is rebound; methods and the ``Subspace.span`` classmethod are
replaced on their class.  ``Element`` constructions are only counted, as a
span per coordinate vector would cost more than the work it measures.

Spans stay in memory until ``write`` and ``raw_metrics`` read them.  The
written spans carry ``time.perf_counter()`` stamps; the self times of
``raw_metrics`` are in reference seconds (``speed.py``), so the time of the
speed probes that interrupt a span is not counted in it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute or Class.method, span name)
TARGETS = (
    ("kring.model", "ModelAlgebra.multiply", "model.multiply"),
    ("kring.model", "validate", "model.validate"),
    ("kring.operators", "star_product", "operators.star_product"),
    ("kring.operators", "fourier", "operators.fourier"),
    ("kring.series", "TruncatedSeries.exp", "series.exp"),
    ("kring.series", "TruncatedSeries.__mul__", "series.mul"),
    ("kring.series", "TruncatedSeries.substitute_gamma", "series.substitute_gamma"),
    ("kring.adams", "gamma_series", "adams.gamma_series"),
    ("kring.adams", "gamma_images", "adams.gamma_images"),
    ("kring.adams", "complete_chern", "adams.complete_chern"),
    ("kring.linalg", "Subspace.span", "linalg.span"),
    ("kring.linalg", "Subspace.reduce", "linalg.reduce"),
    ("kring.linalg", "Subspace.intersect", "linalg.intersect"),
    ("kring.filtration", "compute_filtration", "filtration.compute"),
    ("kring.reports", "run_verify_suite", "reports.suite"),
    ("kring.reports", "run_conjecture_suite", "reports.suite"),
    ("kring.reports", "run_filtration_tables", "reports.suite"),
    ("kring.modelio", "export_model", "modelio.export"),
    ("kring.modelio", "import_model", "modelio.import"),
    ("kring.modelio", "fingerprint", "modelio.fingerprint"),
)

# the per-layer metrics a traced run reports, in output order
LAYER_METRICS = (
    ("model.Element.calls", "count"),
    ("model.multiply.calls", "count"),
    ("model.multiply.self_s", "s"),
    ("model.validate.calls", "count"),
    ("model.validate.self_s", "s"),
    ("operators.star_product.calls", "count"),
    ("operators.star_product.self_s", "s"),
    ("operators.fourier.calls", "count"),
    ("operators.fourier.self_s", "s"),
    ("operators.cache_size", "count"),
    ("series.exp.calls", "count"),
    ("series.exp.self_s", "s"),
    ("series.exp.order_sum", "count"),
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.substitute_gamma.self_s", "s"),
    ("adams.gamma_series.calls", "count"),
    ("adams.gamma_series.self_s", "s"),
    ("adams.gamma_images.calls", "count"),
    ("adams.gamma_images.self_s", "s"),
    ("adams.complete_chern.calls", "count"),
    ("adams.complete_chern.self_s", "s"),
    ("adams.universal_coeffs.hit_ratio", "ratio"),
    ("adams.adams_operator.cache_size", "count"),
    ("linalg.span.calls", "count"),
    ("linalg.span.self_s", "s"),
    ("linalg.span.rows_in", "count"),
    ("linalg.span.rank_ratio", "ratio"),
    ("linalg.reduce.calls", "count"),
    ("linalg.reduce.self_s", "s"),
    ("linalg.intersect.self_s", "s"),
    ("filtration.compute.calls", "count"),
    ("filtration.compute.self_s", "s"),
    ("filtration.saturation_rounds", "count"),
    ("reports.suite.total_s", "s"),
    ("reports.timed_frac", "ratio"),
    ("modelio.export.self_s", "s"),
    ("modelio.import.self_s", "s"),
    ("modelio.fingerprint.calls", "count"),
    ("modelio.fingerprint.self_s", "s"),
)


def _kring_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if name == "kring" or name.startswith("kring.")
    ]


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list = []

    def _wrap(self, name: str, fn, before=None, after=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            record = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at every binding site; kring must be imported."""
        counts = self.counts

        def exp_before(args, kwargs):
            counts["series.exp.order_sum"] += args[0].order
            return args, kwargs

        def span_before(args, kwargs):
            # materialise the rows once so a generator argument still counts
            if len(args) > 2:
                vectors = list(args[2])
                args = args[:2] + (vectors,) + args[3:]
            else:
                vectors = kwargs["vectors"] = list(kwargs["vectors"])
            counts["linalg.span.rows_in"] += len(vectors)
            return args, kwargs

        def span_after(args, kwargs, result):
            counts["linalg.span.rank_out"] += result.dim

        def compute_after(args, kwargs, result):
            if result.method == "saturation":
                counts["filtration.saturation_rounds"] += len(result.rounds)

        hooks = {
            "series.exp": (exp_before, None),
            "linalg.span": (span_before, span_after),
            "filtration.compute": (None, compute_after),
        }
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            before, after = hooks.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, before, after))
                else:
                    wrapped = self._wrap(name, raw, before, after)
                setattr(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, before, after)
            self._originals.append(original)
            for mod in _kring_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

        element = importlib.import_module("kring.model").Element
        init = element.__init__

        def counted_init(self_, *args, **kwargs):
            counts["model.Element.calls"] += 1
            init(self_, *args, **kwargs)

        element.__init__ = counted_init
        self.check_installed()

    def check_installed(self) -> None:
        """Fail if any kring module still binds an unwrapped target."""
        for mod in _kring_modules():
            for key, value in vars(mod).items():
                if any(value is original for original in self._originals):
                    raise RuntimeError(f"{mod.__name__}.{key} is not wrapped")

    def self_times(self, clock) -> tuple[dict, dict, dict, Counter]:
        """Per span name: total self time and total duration in reference
        seconds, total duration in wall seconds, and call count; ``clock``
        maps a stamp to reference seconds (``speed.ReferenceClock``)."""
        ref = [clock(end) - clock(start) for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += ref[i]
        self_s: dict[str, float] = {}
        total: dict[str, float] = {}
        wall: dict[str, float] = {}
        calls: Counter = Counter()
        for i, (name_id, start, end, _) in enumerate(self.spans):
            name = self.names[name_id]
            self_s[name] = self_s.get(name, 0.0) + ref[i] - child[i]
            total[name] = total.get(name, 0.0) + ref[i]
            wall[name] = wall.get(name, 0.0) + end - start
            calls[name] += 1
        return self_s, total, wall, calls

    def raw_metrics(self, timed_s: float, clock) -> dict[str, float]:
        """This process's counts, self times and cache sizes, and the parts of
        the ratio metrics; ``timed_s`` is the sum of the suites' timing laps,
        in wall seconds.  ``combine`` turns the values of a pass's processes
        into metrics."""
        adams = importlib.import_module("kring.adams")
        operators = importlib.import_module("kring.operators")
        self_s, total, wall, calls = self.self_times(clock)
        coeffs = adams.universal_gamma_coefficients.cache_info()
        raw = {
            "operators.cache_size": operators.pullback.cache_info().currsize
            + operators.pushforward.cache_info().currsize,
            "adams.adams_operator.cache_size": adams.adams_operator.cache_info().currsize,
            "adams.universal_coeffs.hits": coeffs.hits,
            "adams.universal_coeffs.lookups": coeffs.hits + coeffs.misses,
            "reports.suite.total_s": total.get("reports.suite", 0.0),
            "reports.suite.wall_s": wall.get("reports.suite", 0.0),
            "reports.timed_s": timed_s,
        }
        raw.update(self.counts)
        for metric, _ in LAYER_METRICS:
            stem, _, field = metric.rpartition(".")
            if field == "calls" and metric not in raw:
                raw[metric] = calls[stem]
            elif field == "self_s":
                raw[metric] = self_s.get(stem, 0.0)
        return raw

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def combine(processes: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one pass from the raw values of its processes:
    cache sizes are the largest any process reached, ratios are taken over
    the pass's totals, and everything else is summed."""
    total: Counter = Counter()
    for raw in processes:
        total.update(raw)
    out = {}
    for metric, _ in LAYER_METRICS:
        if metric.endswith(".cache_size"):
            out[metric] = max(raw[metric] for raw in processes)
        else:
            out[metric] = total[metric]
    out["adams.universal_coeffs.hit_ratio"] = _ratio(
        total["adams.universal_coeffs.hits"], total["adams.universal_coeffs.lookups"]
    )
    out["linalg.span.rank_ratio"] = _ratio(
        total["linalg.span.rank_out"], total["linalg.span.rows_in"]
    )
    out["reports.timed_frac"] = _ratio(
        total["reports.timed_s"], total["reports.suite.wall_s"]
    )
    return out
