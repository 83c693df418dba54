"""Command-line behaviour: exit codes, determinism, and model round-trips."""

import json
from pathlib import Path

import pytest

from kring import (
    antisym_model, export_model, fingerprint, import_model, theta_model, validate,
)
from kring.cli import MAX_COEFF_INDEX, MAX_ORDER, MAX_SERIES_ORDER
from kring.errors import ModelParseError
from kring.modelio import BUILDERS, MAX_G, MAX_MODEL_DIM
from tests.conftest import (
    TENSORS, THETA1_POWER5, THETA1_POWER6, presented_model, run_cli, spec_id,
)


def test_verify_theta_passes():
    res = run_cli("verify", "--builder", "theta", "--g", "2")
    assert res.returncode == 0
    assert "RESULT: PASS" in res.stdout


def test_conjecture_pathological_fails_with_witness():
    res = run_cli("conjecture", "--builder", "pathological", "--g", "2")
    assert res.returncode == 1
    assert "conj-pi-subset-gamma" in res.stdout
    assert "q in [2]" in res.stdout
    assert "witness: v" in res.stdout
    assert "model-validation failure" in res.stdout


def test_conjecture_violator_trips_index_products():
    res = run_cli("conjecture", "--builder", "violator", "--g", "2")
    assert res.returncode == 1
    assert "conj-2-products" in res.stdout
    assert "(a, v)" in res.stdout
    assert "hypothesis violated" in res.stdout


def test_usage_error_exit_code():
    res = run_cli("verify", "--builder", "theta")  # missing --g
    assert res.returncode == 2
    res = run_cli("verify", "--nonsense")
    assert res.returncode == 2
    res = run_cli("series", "--order", "0")  # not silently replaced by 5
    assert res.returncode == 2


def test_order_below_minimum_is_usage_error():
    res = run_cli("verify", "--builder", "theta", "--g", "2", "--order", "2")
    assert res.returncode == 2
    assert "order" in res.stderr
    # g + 1 is still below the deepest stage g + 2 every suite computes
    for command in ("verify", "conjecture", "filtration"):
        res = run_cli(command, "--builder", "theta", "--g", "2", "--order", "3")
        assert res.returncode == 2
        assert "--order must be at least 4" in res.stderr


def test_filtration_order_minimum_follows_n_max():
    args = ("filtration", "--builder", "theta", "--g", "2", "--kind", "pi")
    res = run_cli(*args, "--n-max", "2", "--order", "2")
    assert res.returncode == 0
    assert "dims [3, 2, 1]" in res.stdout
    res = run_cli(*args, "--n-max", "3", "--order", "2")
    assert res.returncode == 2
    assert "--order must be at least 3" in res.stderr


def test_inadmissible_model_file_fails_validation(tmp_path):
    doc = json.loads(export_model(theta_model(2)))
    doc["fm"][1] = ["0/1", "2/1", "0/1"]  # breaks the Fourier square law
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    res = run_cli("model", "--model-file", str(path))
    assert res.returncode == 1
    assert "fm-involution" in res.stdout


def test_nonassociative_model_file_fails_validation():
    # commutative, and (e_i e_j) e_k = e_i (e_j e_k) for all i <= j <= k,
    # yet (a.c).b != a.(c.b)
    path = Path(__file__).parent / "fixtures" / "commutative_nonassociative.json"
    res = run_cli("model", "--model-file", str(path))
    assert res.returncode == 1
    assert "mul-associativity: (a * c) * b != a * (c * b)" in res.stdout


@pytest.mark.parametrize("flag", ["--seed", "--max-rounds"])
def test_saturation_flags_are_gone(flag):
    # the saturation is exact, so its seed and round budget are no options
    for command in ("verify", "conjecture", "filtration"):
        res = run_cli(command, "--builder", "theta", "--g", "2", flag, "1")
        assert res.returncode == 2
        assert flag in res.stderr


@pytest.mark.parametrize(
    "args,cap,name",
    [
        pytest.param(
            ("verify", "--builder", "theta", "--g", str(MAX_G + 1)),
            MAX_G, "MAX_G", id="g",
        ),
        pytest.param(
            ("conjecture", "--builder", "theta", "--g", "2",
             "--order", str(MAX_ORDER + 1)),
            MAX_ORDER, "MAX_ORDER", id="order",
        ),
        pytest.param(
            ("series", "--order", str(MAX_SERIES_ORDER + 1)),
            MAX_SERIES_ORDER, "MAX_SERIES_ORDER", id="series-order",
        ),
        pytest.param(
            ("series", "--j", str(-MAX_G - 1)), MAX_G, "MAX_G", id="series-j",
        ),
        pytest.param(
            ("gamma-coeffs", "--d", str(MAX_COEFF_INDEX + 1), "--i", "1"),
            MAX_COEFF_INDEX, "MAX_COEFF_INDEX", id="d",
        ),
        pytest.param(
            ("gamma-coeffs", "--d", "1", "--i", str(MAX_COEFF_INDEX + 1)),
            MAX_COEFF_INDEX, "MAX_COEFF_INDEX", id="i",
        ),
        pytest.param(
            ("gamma-coeffs", "--d", "1", "--i", "1",
             "--m-max", str(MAX_COEFF_INDEX + 1)),
            MAX_COEFF_INDEX, "MAX_COEFF_INDEX", id="m-max",
        ),
    ],
)
def test_inputs_above_their_cap_are_usage_errors(args, cap, name):
    res = run_cli(*args)
    assert res.returncode == 2
    assert f"at most {cap}" in res.stderr and name in res.stderr


def test_model_documents_above_the_caps_are_rejected(tmp_path):
    doc = json.loads(export_model(theta_model(2)))
    doc["g"] = MAX_G + 1
    path = tmp_path / "big_g.json"
    path.write_text(json.dumps(doc))
    res = run_cli("verify", "--model-file", str(path))
    assert res.returncode == 2
    assert "error [g]" in res.stderr and "MAX_G" in res.stderr

    doc = json.loads(export_model(theta_model(2)))
    doc["basis"] = [
        {"label": f"b{n}", "p": 0, "q": 2} for n in range(MAX_MODEL_DIM + 1)
    ]
    with pytest.raises(ModelParseError) as info:
        import_model(json.dumps(doc))
    assert info.value.field == "basis"
    assert f"at most {MAX_MODEL_DIM}" in str(info.value)


def test_structured_output_is_byte_deterministic():
    args = (
        "conjecture", "--builder", "antisym", "--g", "2", "--format", "structured"
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert doc["schema"] == "kring-report/1"
    assert "timings" not in doc


def test_model_export_import_export_identity(tmp_path):
    out = tmp_path / "antisym2.json"
    res = run_cli(
        "model", "--builder", "antisym", "--g", "2", "--out", str(out)
    )
    assert res.returncode == 0
    first = out.read_text()
    reloaded = import_model(first)
    assert validate(reloaded).ok
    assert export_model(reloaded) == first
    assert fingerprint(reloaded) in res.stdout


def test_verify_from_model_file(tmp_path):
    path = tmp_path / "theta2.json"
    path.write_text(export_model(theta_model(2)))
    res = run_cli("verify", "--model-file", str(path))
    assert res.returncode == 0


def test_model_parse_error_names_field(tmp_path):
    path = tmp_path / "broken.json"
    doc = json.loads(export_model(theta_model(2)))
    doc["mul"][0][3] = "2/4"  # not lowest terms
    path.write_text(json.dumps(doc))
    res = run_cli("verify", "--model-file", str(path))
    assert res.returncode == 2
    assert "mul[0]" in res.stderr

    with pytest.raises(ModelParseError):
        import_model("{not json")


THETA2 = export_model(theta_model(2))


@pytest.mark.parametrize(
    "content,field",
    [
        pytest.param(b"\xff\xfe" + THETA2.encode(), "document", id="not-utf-8"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "document", id="nested-100000-deep"),
        pytest.param(THETA2.replace('"g": 2', '"g": 1' + "0" * 4300).encode(), "document",
                     id="integer-of-4301-digits"),
        pytest.param(THETA2.replace('"1/1"', f'"{"1" * 4301}/1"', 1).encode(), "mul[0]",
                     id="rational-of-4301-digits"),
    ],
)
def test_unreadable_documents_are_parse_errors(tmp_path, content, field):
    # each failed in the decoder or int() with a traceback and exit 1
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    res = run_cli("verify", "--model-file", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith(f"error [{field}]: ") and "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "path,value,field",
    [
        pytest.param(("g",), "2", "g", id="g-string"),
        pytest.param(("g",), 2.7, "g", id="g-float"),
        pytest.param(("g",), True, "g", id="g-bool"),
        pytest.param(("unit",), False, "unit", id="unit-bool"),
        pytest.param(("star_unit",), True, "star_unit", id="star_unit-bool"),
        pytest.param(("basis", 1, "p"), "1", "basis[1].p", id="p-string"),
        pytest.param(("basis", 1, "q"), 1.0, "basis[1].q", id="q-float"),
        pytest.param(("mul", 0, 0), False, "mul[0]", id="mul-i-bool"),
        pytest.param(("mul", 0, 2), True, "mul[0]", id="mul-k-bool"),
    ],
)
def test_import_requires_json_integers(path, value, field):
    doc = json.loads(export_model(theta_model(2)))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ModelParseError) as info:
        import_model(json.dumps(doc))
    assert info.value.field == field


@pytest.mark.parametrize("value", [5, True, None], ids=["int", "bool", "null"])
def test_import_requires_string_labels(value):
    doc = json.loads(export_model(theta_model(2)))
    doc["basis"][1]["label"] = value
    with pytest.raises(ModelParseError) as info:
        import_model(json.dumps(doc))
    assert info.value.field == "basis[1].label"


@pytest.mark.parametrize(
    "text", ["-1/1\n", "\u0661/\u0661", "01/2", "-0/1", "1/" + "1" * 4301],
    ids=["trailing-newline", "unicode-digits", "leading-zero", "negative-zero",
         "denominator-of-4301-digits"],
)
def test_import_requires_canonical_rationals(text):
    doc = json.loads(export_model(theta_model(2)))
    doc["mul"][0][3] = text
    with pytest.raises(ModelParseError) as info:
        import_model(json.dumps(doc))
    assert info.value.field == "mul[0]"


@pytest.mark.parametrize(
    "value", ["0/2", "-0/1", "00/1", "0/01", "0/1 ", 0],
    ids=["unreduced", "negative", "numerator-zero-padded", "denominator-zero-padded",
         "trailing-space", "json-int"],
)
@pytest.mark.parametrize("where", ["fm", "mul"])
def test_import_reads_only_the_exact_zero_text_as_zero(where, value):
    # "0/1" is read without the regex; every other spelling of zero still
    # meets the canonical check and is refused, naming its field
    doc = json.loads(export_model(theta_model(2)))
    if where == "fm":
        assert doc["fm"][1][0] == "0/1"
        doc["fm"][1][0], field = value, "fm[1]"
    else:
        doc["mul"][0][3], field = value, "mul[0]"
    with pytest.raises(ModelParseError) as info:
        import_model(json.dumps(doc))
    assert info.value.field == field


# every builder at g <= 6, and tensor products up to dim 64, conjugated up
# to dim 32 (rational entries in both tables)
ROUND_TRIPS = (
    [
        ((name, g), False)
        for name in sorted(BUILDERS)
        for g in range(1 if name == "theta" else 2, 7)
    ]
    + [(spec, conjugated) for spec in TENSORS + [THETA1_POWER5] for conjugated in (False, True)]
    + [(THETA1_POWER6, False)]
)


@pytest.mark.parametrize(
    "spec,conjugated", ROUND_TRIPS,
    ids=[spec_id(spec) + ("-conjugated" if c else "") for spec, c in ROUND_TRIPS],
)
def test_export_import_export_is_byte_identical(spec, conjugated):
    text = export_model(presented_model(spec, conjugated))
    assert export_model(import_model(text)) == text


def test_import_rejects_a_repeated_mul_triple():
    doc = json.loads(export_model(theta_model(2)))
    i, j, k, _ = doc["mul"][1]
    doc["mul"].insert(2, [i, j, k, "5/1"])
    with pytest.raises(ModelParseError) as info:
        import_model(json.dumps(doc))
    assert info.value.field == "mul[2]"
    assert f"({i}, {j}, {k})" in str(info.value)


@pytest.mark.parametrize("g", [0, -1])
def test_documents_below_g_one_are_rejected_before_any_suite(tmp_path, g):
    doc = json.loads(export_model(theta_model(2)))
    doc["g"] = g
    path = tmp_path / "small_g.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "conjecture", "filtration", "model"):
        res = run_cli(command, "--model-file", str(path), "--format", "structured")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "error [g]" in res.stderr and "at least 1" in res.stderr


# basis[1] of theta(2) has bidegree (0, 1); a p or q outside 0..g would give
# an operator a negative weight, so 0 to a negative power
@pytest.mark.parametrize("key,value", [("q", 4), ("q", -1), ("p", 3), ("p", -2)])
def test_documents_with_a_bidegree_outside_0_to_g_are_rejected_before_any_suite(
    tmp_path, key, value
):
    doc = json.loads(export_model(theta_model(2)))
    doc["basis"][1][key] = value
    path = tmp_path / "bidegree.json"
    path.write_text(json.dumps(doc))
    field = f"basis[1].{key}"
    for command in ("verify", "conjecture", "filtration", "model"):
        res = run_cli(command, "--model-file", str(path), "--format", "structured")
        assert res.returncode == 2
        assert res.stdout == ""
        assert f"error [{field}]" in res.stderr and "0..g" in res.stderr
    with pytest.raises(ModelParseError) as info:
        import_model(json.dumps(doc))
    assert info.value.field == field


def test_verify_timings_cover_statements_and_filtrations():
    res = run_cli(
        "verify", "--builder", "theta", "--g", "2", "--format", "structured",
        "--timings",
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    laps = doc["timings"]
    # one lap per statement and per filtration in run order: the filtrations
    # follow the twelve statements of the first check table; total ends it
    assert list(laps) == [
        *(s["id"] for s in doc["statements"][:12]),
        *(f"filtration-{kind}" for kind in ("gamma", "star", "pi", "Gamma")),
        *(s["id"] for s in doc["statements"][12:]),
        "total",
    ]
    total = laps.pop("total")
    assert sum(laps.values()) >= 0.95 * total


def test_conjecture_timings_cover_the_total():
    # violator(4) runs for about 20 ms, long enough that host noise outside
    # the laps stays well under the 5% the bound leaves
    res = run_cli(
        "conjecture", "--builder", "violator", "--g", "4", "--format", "structured",
        "--timings",
    )
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    laps = doc["timings"]
    # one lap per filtration, then one per statement in report order; one
    # gamma filtration serves both the containment check and the criteria
    assert list(laps) == [
        "filtration-pi", "filtration-gamma", "filtration-Gamma",
        *(s["id"] for s in doc["statements"]),
        "total",
    ]
    assert len(doc["statements"]) == 10
    total = laps.pop("total")
    assert sum(laps.values()) >= 0.95 * total


def test_filtration_timings_cover_the_total():
    args = ("filtration", "--builder", "violator", "--g", "3", "--format", "structured")
    plain, timed = run_cli(*args), run_cli(*args, "--timings")
    assert plain.returncode == timed.returncode == 0
    doc = json.loads(timed.stdout)
    laps = doc.pop("timings")
    # without its laps the report is the one the flag leaves out
    assert json.dumps(doc, indent=1) + "\n" == plain.stdout
    # one augmentation lap per kind, then one lap per statement of that kind
    # in report order; total ends it
    want = []
    for kind in ("gamma", "star", "pi", "Gamma"):
        want += [f"augmentation-{kind}"] + [
            f"filtration-{kind}-{x}" for x in ("saturation", "eigen_sum", "method-comparison")
        ]
    assert list(laps) == want + ["total"]
    assert [s["id"] for s in doc["statements"]] == [
        lap for lap in want if not lap.startswith("augmentation-")
    ]
    total = laps.pop("total")
    assert sum(laps.values()) >= 0.95 * total


@pytest.mark.parametrize("command", ["verify", "filtration"])
def test_singular_fourier_matrix_is_named(tmp_path, command):
    doc = json.loads(export_model(antisym_model(2)))
    doc["fm"][1][1] = "0/1"
    path = tmp_path / "singular_fm.json"
    path.write_text(json.dumps(doc))
    assert run_cli("model", "--model-file", str(path)).returncode == 1
    res = run_cli(command, "--model-file", str(path))
    assert res.returncode == 2
    assert "Fourier matrix is singular" in res.stderr
    assert "convolution product" in res.stderr


def test_model_file_with_string_g_is_usage_error(tmp_path):
    doc = json.loads(export_model(theta_model(2)))
    doc["g"] = "2"
    path = tmp_path / "string_g.json"
    path.write_text(json.dumps(doc))
    res = run_cli("model", "--model-file", str(path))
    assert res.returncode == 2
    assert "error [g]" in res.stderr


def test_gamma_coeffs_subcommand():
    res = run_cli("gamma-coeffs", "--d", "3", "--i", "2", "--m-max", "2")
    assert res.returncode == 0
    assert "a(2;3,1) = -3" in res.stdout


def test_series_subcommand_reports_both_normalizations():
    res = run_cli("series", "--order", "5")
    assert res.returncode == 0
    assert "series-standard" in res.stdout
    assert "series-unscaled" in res.stdout
    assert "1, 3, 11, 50, 274" in res.stdout
    assert "matching normalizations: none" in res.stdout


def test_filtration_tables():
    res = run_cli(
        "filtration", "--builder", "theta", "--g", "2", "--kind", "pi",
        "--n-max", "4", "--method", "saturation",
    )
    assert res.returncode == 0
    assert "dims [3, 2, 1, 0, 0]" in res.stdout


def test_filtration_at_n_max_zero_has_one_stage_by_both_methods():
    res = run_cli(
        "filtration", "--builder", "theta", "--g", "2", "--kind", "gamma", "--n-max", "0"
    )
    assert res.returncode == 0
    assert "filtration-gamma-saturation         PASS  (dims [3])" in res.stdout
    assert "filtration-gamma-eigen_sum          PASS  (dims [3])" in res.stdout
    assert "saturation within eigen_sum: True; equal: True" in res.stdout


def test_filtration_method_comparison_reports_containment():
    res = run_cli(
        "filtration", "--builder", "pathological", "--g", "2", "--kind", "gamma"
    )
    assert res.returncode == 0
    assert "saturation within eigen_sum: False" in res.stdout


def test_model_structured_prints_document():
    res = run_cli("model", "--builder", "theta", "--g", "1", "--format", "structured")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["schema"] == "bigraded-model/1"
    assert doc["g"] == 1
