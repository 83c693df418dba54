"""Shared fixtures: bundled models and cached filtration results.

Filtrations are the expensive objects; computing each (model, kind) pair
once and sharing it across test modules keeps the whole suite fast.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import kring
from kring import build_model, compute_filtration, export_model

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


def fm_rows(m) -> list[list[Fraction]]:
    """The dense Fourier rows of ``m`` as ``Fraction``s, read from its
    exported document (row i = image of e_i)."""
    return [[Fraction(c) for c in row] for row in json.loads(export_model(m))["fm"]]


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
