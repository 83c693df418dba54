"""The benchmark's tracer still finds every kring function it wraps.

``bench/spans.py`` rebinds kring's public functions at every module that
binds them and reads the module-level caches.  A refactor that renames a
target, binds a product at import time, or moves a cache out of reach would
leave a traced benchmark run silently reading zeros.  The tracer mutates
kring's modules, so it runs in a child interpreter; nothing under ``bench/``
is changed.
"""

import json
from pathlib import Path

from tests.conftest import run_python

BENCH = Path(__file__).resolve().parent.parent / "bench"

CHILD = """
import json
import sys

sys.dont_write_bytecode = True  # leave no cache files in bench/
sys.path.insert(0, sys.argv[1])
import kring
from kring import modelio, reports
from spans import TARGETS, Tracer

tracer = Tracer()
tracer.install()
model = modelio.build_model("violator", 2)
reports.run_verify_suite(model, "violator(g=2)")
reports.run_conjecture_suite(model, "violator(g=2)")
reports.run_filtration_tables(model, "violator(g=2)")
reloaded = modelio.import_model(modelio.export_model(model))
modelio.fingerprint(reloaded)

clock = lambda stamp: stamp
calls = tracer.self_times(clock)[3]
names = tracer.names
parents = sorted({
    (names[name_id], names[tracer.spans[parent][0]])
    for name_id, _, _, parent in tracer.spans
    if parent >= 0
})
# the layers each suite calls directly, in call order: verify, conjecture,
# filtration
suites = [i for i, span in enumerate(tracer.spans) if names[span[0]] == "reports.suite"]
direct = [
    sorted({names[span[0]] for span in tracer.spans if span[3] == i}) for i in suites
]
print(json.dumps({
    "targets": sorted({name for _, _, name in TARGETS}),
    "direct": direct,
    "calls": dict(calls),
    "raw": tracer.raw_metrics(0.0, clock),
    "parents": parents,
}))
"""


def test_tracer_records_every_target_and_cache():
    res = run_python("-c", CHILD, str(BENCH))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout.splitlines()[-1])
    missing = [name for name in doc["targets"] if doc["calls"].get(name, 0) < 1]
    assert not missing
    raw = doc["raw"]
    assert raw["operators.cache_size"] > 0
    assert raw["adams.adams_operator.cache_size"] > 0
    assert raw["adams.universal_coeffs.lookups"] > 0
    assert raw["model.Element.calls"] > 0
    assert raw["series.exp.order_sum"] > 0
    # the series engine's ring products run on the accumulation kernel that
    # kind_ring names, traced or not: no traced product is their caller
    parents = {tuple(pair) for pair in doc["parents"]}
    products = {"model.multiply", "operators.star_product"}
    assert not {(p, s) for p in products for s in ("series.exp", "series.mul")} & parents
    # the suites' checks call the traced layers through module globals: a
    # check table that captured one at import time would bypass its wrapper
    for layer in ("filtration.compute", "operators.fourier", "operators.star_product"):
        assert (layer, "reports.suite") in parents
    verify, conjecture, tables = map(set, doc["direct"])
    assert verify >= {
        "filtration.compute", "operators.fourier", "operators.star_product",
        "model.validate", "adams.gamma_series", "adams.gamma_images",
    }
    assert "filtration.compute" in conjecture & tables


def test_verify_checks_call_fourier_through_the_module_global():
    # every Fourier image of the suites is taken by a check itself, through
    # the rebound module global, so the suite is the nearest traced frame of
    # every operators.fourier span
    res = run_python("-c", CHILD, str(BENCH))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout.splitlines()[-1])
    callers = {parent for child, parent in doc["parents"] if child == "operators.fourier"}
    assert callers == {"reports.suite"}
