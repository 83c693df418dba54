"""Model persistence: a canonical structured-text (JSON) document.

The document carries g, the labelled bidegreed basis, the unit and origin
indices, the multiplication table as sparse triples (i, j, k, "num/den")
with i <= j, and the Fourier matrix as dense rows of "num/den" strings.
Export is canonical (fixed key order, sorted triples, lowest-terms
rationals with an explicit denominator), so export -> import -> export is
byte-identical and the SHA-256 of the exported bytes serves as the model
fingerprint.  Import reads the exact text "0/1", most of the dense Fourier
entries, as one shared zero without the regex; every other spelling of a
rational meets the canonical check.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

from .errors import ModelParseError
from .model import ModelAlgebra, antisym_model, pathological_model, theta_model, violator_model

SCHEMA = "bigraded-model/1"

BUILDERS = {
    "theta": theta_model,
    "antisym": antisym_model,
    "pathological": pathological_model,
    "violator": violator_model,
}

_RATIONAL_RE = re.compile(r"^(-?\d+)/(\d+)$")
_ZERO = Fraction(0)

# Size caps on documents (MAX_G also bounds the CLI's --g): the bundled
# builders reach dim 17 at g = 6, the largest size the tests and the
# benchmark build; the default series order g^2 + 2 grows with g.
MAX_G = 8
MAX_MODEL_DIM = 64


def build_model(name: str, g: int) -> ModelAlgebra:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ModelParseError(
            f"unknown builder {name!r}; expected one of {sorted(BUILDERS)}",
            field="builder",
        ) from None
    return builder(g)


def _strict_int(value, field: str) -> int:
    """A JSON integer; ``bool`` is an ``int`` subclass, so check the type."""
    if type(value) is not int:
        raise ModelParseError(f"{field}: expected a JSON integer, got {value!r}", field)
    return value


def _format_rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_rational(text: str, field: str) -> Fraction:
    if text == "0/1":
        return _ZERO
    if not isinstance(text, str):
        raise ModelParseError(f"{field}: rational must be a 'num/den' string", field)
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ModelParseError(f"{field}: malformed rational {text!r}", field)
    try:
        value = Fraction(int(m.group(1)), int(m.group(2)))
    except ZeroDivisionError:
        raise ModelParseError(f"{field}: zero denominator", field) from None
    except ValueError:  # more digits than int() converts from text
        raise ModelParseError(f"{field}: rational has too many digits", field) from None
    # only the spelling export writes: lowest terms, ASCII digits, no
    # leading zeros, no "-0", nothing after the denominator
    if text != _format_rational(value):
        raise ModelParseError(
            f"{field}: rational {text!r} is not in canonical 'num/den' form", field
        )
    return value


def _dense_fm(model: ModelAlgebra) -> list[list[str]]:
    """The Fourier operator as dense rows of "num/den" strings: only the
    nonzero entries of ``model._fm`` are formatted, the rest read "0/1"."""
    rows, den = model._fm
    out = []
    for row in rows:
        dense = ["0/1"] * model.dim
        for j, c in row:
            dense[j] = _format_rational(Fraction(c, den))
        out.append(dense)
    return out


def export_model(model: ModelAlgebra) -> str:
    triples = []
    for (i, j), entries in model._mul.items():
        if i > j:
            continue
        for k, c in entries:
            triples.append([i, j, k, _format_rational(c)])
    triples.sort(key=lambda t: (t[0], t[1], t[2]))
    doc = {
        "schema": SCHEMA,
        "g": model.g,
        "basis": [
            {"label": label, "p": bd.p, "q": bd.q}
            for label, bd in zip(model.labels, model.bidegrees)
        ],
        "unit": model.unit_index,
        "star_unit": model.star_unit_index,
        "mul": triples,
        "fm": _dense_fm(model),
    }
    return json.dumps(doc, indent=1) + "\n"


def import_model(text: str) -> ModelAlgebra:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise ModelParseError(f"not valid JSON: {exc}", field="document") from None
    if not isinstance(doc, dict):
        raise ModelParseError("document must be a JSON object", field="document")
    if doc.get("schema") != SCHEMA:
        raise ModelParseError(
            f"unsupported schema {doc.get('schema')!r}", field="schema"
        )
    g = _strict_int(doc.get("g"), "g")
    if g < 1:
        raise ModelParseError("g must be at least 1", field="g")
    if g > MAX_G:
        raise ModelParseError(f"g must be at most {MAX_G} (the cap MAX_G)", field="g")
    basis_raw = doc.get("basis")
    if not isinstance(basis_raw, list) or not basis_raw:
        raise ModelParseError("missing or empty 'basis'", field="basis")
    if len(basis_raw) > MAX_MODEL_DIM:
        raise ModelParseError(
            f"dim must be at most {MAX_MODEL_DIM} (the cap MAX_MODEL_DIM)",
            field="basis",
        )
    basis = []
    for n, entry in enumerate(basis_raw):
        if not (isinstance(entry, dict) and "label" in entry):
            raise ModelParseError(f"basis entry {n} is malformed", field=f"basis[{n}]")
        label = entry["label"]
        if type(label) is not str:
            field = f"basis[{n}].label"
            raise ModelParseError(f"{field}: expected a JSON string, got {label!r}", field)
        p, q = (_strict_int(entry.get(k), f"basis[{n}].{k}") for k in ("p", "q"))
        # with p, q in 0..g every pullback and pushforward weight g -+ (p - q)
        # is >= 0, so no operator raises 0 to a negative power
        for key, value in (("p", p), ("q", q)):
            if not 0 <= value <= g:
                field = f"basis[{n}].{key}"
                raise ModelParseError(f"{field}: must lie in 0..g = 0..{g}, got {value}", field)
        basis.append((label, (p, q)))
    dim = len(basis)
    for key in ("unit", "star_unit"):
        if not 0 <= _strict_int(doc.get(key), key) < dim:
            raise ModelParseError(f"out-of-range '{key}'", field=key)
    mul_raw = doc.get("mul")
    if not isinstance(mul_raw, list):
        raise ModelParseError("missing 'mul'", field="mul")
    mul: dict[tuple[int, int], dict[int, Fraction]] = {}
    for n, triple in enumerate(mul_raw):
        field = f"mul[{n}]"
        if not (isinstance(triple, list) and len(triple) == 4):
            raise ModelParseError(f"{field}: expected [i, j, k, rational]", field)
        i, j, k, raw = triple
        for idx in (i, j, k):
            if not 0 <= _strict_int(idx, field) < dim:
                raise ModelParseError(f"{field}: index out of range", field)
        if i > j:
            raise ModelParseError(f"{field}: triples must have i <= j", field)
        c = _parse_rational(raw, field)
        if k in mul.get((i, j), {}):
            raise ModelParseError(f"{field}: repeats the triple ({i}, {j}, {k})", field)
        mul.setdefault((i, j), {})[k] = c
        if i != j:
            mul.setdefault((j, i), {})[k] = c
    fm_raw = doc.get("fm")
    if not (isinstance(fm_raw, list) and len(fm_raw) == dim):
        raise ModelParseError("missing or wrongly sized 'fm'", field="fm")
    fm_rows = []
    for r, row in enumerate(fm_raw):
        field = f"fm[{r}]"
        if not (isinstance(row, list) and len(row) == dim):
            raise ModelParseError(f"fm row {r} has the wrong length", field=field)
        fm_rows.append([_parse_rational(c, field) for c in row])
    return ModelAlgebra(
        g, basis, mul, fm_rows, unit_index=doc["unit"], star_unit_index=doc["star_unit"]
    )


def fingerprint(model: ModelAlgebra) -> str:
    return hashlib.sha256(export_model(model).encode("utf-8")).hexdigest()


def load_model(path: str | Path) -> ModelAlgebra:
    try:
        return import_model(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ModelParseError(f"not UTF-8 text: {exc}", field="document") from None
