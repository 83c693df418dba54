"""Shared fixtures: bundled, tensor and conjugated models, cached
filtration results, and the edited documents several modules read.

Filtrations are the expensive objects; computing each (model, kind) pair
once and sharing it across test modules keeps the whole suite fast.  No
test module imports from another: what two of them share lives here or,
for the reference arithmetic, in ``tests/oracle.py``.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import kring
from kring import ModelAlgebra, build_model, compute_filtration, modelio, reports, theta_model
from kring.reports import Statement
from tests.oracle import fm_rows, inverse

# the directory this kring was imported from, for child interpreters
SRC = str(Path(kring.__file__).resolve().parent.parent)


def run_python(*args, timeout: int = 300):
    """Run a child interpreter that imports the same kring as the tests,
    whether or not PYTHONPATH names it."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(*args, timeout: int = 300):
    """Run ``python -m kring`` in a child interpreter (see ``run_python``)."""
    return run_python("-m", "kring", *args, timeout=timeout)


@lru_cache(maxsize=None)
def model(name: str, g: int):
    return build_model(name, g)


@lru_cache(maxsize=None)
def filtration(name: str, g: int, kind: str, n_max: int, method: str = "saturation"):
    return compute_filtration(model(name, g), kind, n_max, method)


@lru_cache(maxsize=None)
def conjecture(name: str, g: int) -> dict:
    """The ``conjecture`` statements on a bundled model, by id."""
    report = kring.run_conjecture_suite(model(name, g), f"{name}(g={g})")
    return {s.id: s for s in report.statements}


def series_values(weight: int, order: int) -> dict:
    """The values the ``series`` report states, read back from its details:
    ``targets``, the scaled harmonic numbers, and per normalization
    (``standard``, ``unscaled``) its log-gamma coefficients, its n!-scaled
    numerators (both as ``Fraction``s) and whether they match the targets;
    ``matching`` is the finding's list of matching normalizations."""
    details = {s.id: s.detail for s in kring.run_series_report(weight, order).statements}

    def fractions(text: str) -> tuple[Fraction, ...]:
        return tuple(Fraction(c) for c in text.split(", "))

    out = {"targets": fractions(details["series-targets"].removeprefix("scaled harmonic numbers "))}
    for name in ("standard", "unscaled"):
        log_c, nums, matches = details[f"series-{name}"].split("; ")
        out[name] = (
            fractions(log_c.removeprefix("log-gamma coefficients [").removesuffix("]")),
            fractions(nums.removeprefix("n!-scaled numerators [").removesuffix("]")),
            {"matches targets: True": True, "matches targets: False": False}[matches],
        )
    finding = details["series-normalization-finding"].removeprefix("matching normalizations: ")
    out["matching"] = () if finding == "none" else tuple(finding.split(", "))
    return out


def basis_change(m) -> list[list[Fraction]]:
    """A fixed invertible rational P, block-diagonal over the bidegree
    blocks of ``m``, that keeps the unit, the origin class and ``e1`` and
    rescales and mixes every other basis vector.

    Within a block, list the kept vectors first and then the others in
    index order; row t of a vector that moves is s_t e_t plus a multiple of
    every vector listed before it.  So the block is lower triangular in that
    order with nonzero diagonal, and P is invertible.
    """
    keep = {m.unit_index, m.star_unit_index}
    if "e1" in m.labels:
        keep.add(m.index_of("e1"))
    P = [[Fraction(int(i == k)) for k in range(m.dim)] for i in range(m.dim)]
    for bidegree in dict.fromkeys(m.bidegrees):
        block = [i for i in range(m.dim) if m.bidegrees[i] == bidegree]
        order = [i for i in block if i in keep] + [i for i in block if i not in keep]
        for t, i in enumerate(order):
            if i in keep:
                continue
            P[i][i] = (-1) ** t * Fraction(t + 2, t + 3)
            for u, k in enumerate(order[:t]):
                P[i][k] = Fraction((-1) ** u, u + 2)
    return P


def conjugate(m, P) -> ModelAlgebra:
    """``m`` rebuilt in the basis f_i = sum_k P[i][k] e_k, with the same
    labels, bidegrees, unit and origin indices (P must keep those two
    vectors and each bidegree block)."""
    n = m.dim
    Q = inverse(P)  # e_c = sum_l Q[c][l] f_l

    def in_f(x: list[Fraction]) -> list[Fraction]:
        terms = [(c, xc) for c, xc in enumerate(x) if xc]
        return [sum(xc * Q[c][l] for c, xc in terms) for l in range(n)]

    nonzero = [[(a, c) for a, c in enumerate(row) if c] for row in P]
    mul = {}
    for i in range(n):
        for j in range(n):
            x = [Fraction(0)] * n
            for a, pa in nonzero[i]:
                for b, pb in nonzero[j]:
                    for c, coeff in m.mul_basis(a, b):
                        x[c] += pa * pb * coeff
            y = in_f(x)
            if any(y):
                mul[(i, j)] = {l: c for l, c in enumerate(y) if c}
    F = fm_rows(m)
    fm = [in_f([sum(P[i][a] * F[a][c] for a in range(n)) for c in range(n)]) for i in range(n)]
    basis = list(zip(m.labels, m.bidegrees))
    return ModelAlgebra(m.g, basis, mul, fm, m.unit_index, m.star_unit_index)


def tensor(A, B) -> ModelAlgebra:
    """The model of a product of abelian varieties from models of the
    factors: basis e_a (x) f_b at index a * B.dim + b, labelled ``a*b``, g and
    the bidegrees add, both products and the Fourier operator are tensor
    products of the factors' (Mukai 1981; Beauville 1986), and the unit and
    the origin class are the pairs of the factors' ones."""
    nb = B.dim
    basis = [
        (f"{la}*{lb}", (pa + pb, qa + qb))
        for la, (pa, qa) in zip(A.labels, A.bidegrees)
        for lb, (pb, qb) in zip(B.labels, B.bidegrees)
    ]
    mul = {}
    for a in range(A.dim):
        for c in range(A.dim):
            ac = A.mul_basis(a, c)
            for b in range(nb):
                for d in range(nb):
                    bd = B.mul_basis(b, d)
                    if ac and bd:
                        mul[(a * nb + b, c * nb + d)] = {
                            k * nb + l: x * y for k, x in ac for l, y in bd
                        }
    FA, FB = fm_rows(A), fm_rows(B)
    fm = [
        [FA[a][c] * FB[b][d] for c in range(A.dim) for d in range(nb)]
        for a in range(A.dim)
        for b in range(nb)
    ]
    return ModelAlgebra(
        A.g + B.g, basis, mul, fm,
        A.unit_index * nb + B.unit_index, A.star_unit_index * nb + B.star_unit_index,
    )


# tensor products of bundled models, (name, g) pairs, with total g <= 4
VIOLATOR_PRODUCT = (("violator", 2), ("theta", 1))
TENSORS = [
    (("theta", 1), ("theta", 1)),
    (("theta", 2), ("theta", 1)),
    (("theta", 2), ("theta", 2)),
    (("antisym", 2), ("theta", 1)),
    VIOLATOR_PRODUCT,
]
# theta(1)^⊗5 and theta(1)^⊗6, of dim 32 and 64, as nested pairs
THETA1 = ("theta", 1)
THETA1_POWER5 = (((THETA1, THETA1), (THETA1, THETA1)), THETA1)
THETA1_POWER6 = (((THETA1, THETA1), (THETA1, THETA1)), (THETA1, THETA1))


@lru_cache(maxsize=None)
def spec_model(spec):
    """A bundled model (name, g), or the tensor product of two specs."""
    if isinstance(spec[0], tuple):
        return tensor(spec_model(spec[0]), spec_model(spec[1]))
    return model(*spec)


def spec_id(spec) -> str:
    """``theta2`` for ("theta", 2), ``theta2xtheta1`` for a product."""
    if isinstance(spec[0], tuple):
        return "x".join(map(spec_id, spec))
    return f"{spec[0]}{spec[1]}"


@lru_cache(maxsize=None)
def presented_model(spec, conjugated):
    """``spec_model(spec)``, or its ``basis_change`` conjugate."""
    m = spec_model(spec)
    return conjugate(m, basis_change(m)) if conjugated else m


def raw_tables(m):
    """The constructor arguments (basis, mul, fm) of ``m``, as editable
    lists and dicts."""
    mul = {(i, j): dict(m.mul_basis(i, j)) for i in range(m.dim) for j in range(m.dim)}
    basis = [(label, tuple(bd)) for label, bd in zip(m.labels, m.bidegrees)]
    return basis, mul, fm_rows(m)


def theta_raw(g):
    return raw_tables(theta_model(g))


# -- documents and their single-entry edits ------------------------------------


def document(builder, g) -> dict:
    return json.loads(modelio.export_model(modelio.build_model(builder, g)))


def fm00(doc: dict) -> None:
    doc["fm"][0][0] = "2/1"


def mul1(doc: dict) -> None:
    doc["mul"][1][3] = "2/1"


def rename_e1(doc: dict) -> None:
    for entry in doc["basis"]:
        if entry["label"] == "e1":
            entry["label"] = "h"


def rational_text(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def edits(doc, where):
    """Single-entry edits of ``doc``: each mul constant or fm entry raised
    by one, or one mul triple added to a pair i <= j that has none."""
    if where == "mul":
        for n, (_, _, _, raw) in enumerate(doc["mul"]):
            yield lambda d, n=n, raw=raw: d["mul"][n].__setitem__(
                3, rational_text(Fraction(raw) + 1)
            )
    elif where == "new-mul":
        dim = len(doc["basis"])
        present = {(i, j) for i, j, _, _ in doc["mul"]}
        for i in range(dim):
            for j in range(i, dim):
                if (i, j) not in present:
                    k = (i + j) % dim
                    yield lambda d, t=[i, j, k, "1/1"]: d["mul"].append(t)
    else:
        for r, row in enumerate(doc["fm"]):
            for c, raw in enumerate(row):
                yield lambda d, r=r, c=c, raw=raw: d["fm"][r].__setitem__(
                    c, rational_text(Fraction(raw) + 1)
                )


def outcome(sid, check, model):
    """(status, detail, witness) of a suite check on ``model``, or (error, message)."""
    run = reports._Run(model, model.default_series_order)
    try:
        s = Statement.first_failure(sid, check(run))
    except Exception as exc:  # both versions must fail the same way
        return type(exc).__name__, str(exc)
    return s.status, s.detail, s.witness


def bundled_models(g_max: int = 4):
    out = [("theta", g) for g in range(1, g_max + 1)]
    for name in ("antisym", "pathological", "violator"):
        out.extend((name, g) for g in range(2, g_max + 1))
    return out


@pytest.fixture
def theta2():
    return model("theta", 2)


@pytest.fixture
def antisym2():
    return model("antisym", 2)


@pytest.fixture
def pathological2():
    return model("pathological", 2)


@pytest.fixture
def violator2():
    return model("violator", 2)
