"""Verification suites and machine/human-readable reports.

A report is a list of statements, each pass/fail/skipped with witnesses,
keyed by stable identifiers, plus the model fingerprint and the run
configuration.  Structured output is deterministic: two runs with the same
model document and configuration produce byte-identical JSON (timings are
opt-in precisely because they would break that).

Statements are built only here: the library modules return values and
records, which the suite checks and the report runners below judge,
the four-way equivalence criterion of ``conjecture`` among them.

Both model suites, ``verify`` and ``conjecture``, are ordered tables of
``(id, check, skip)``, and the table order is the report order.  ``verify``
computes its four filtrations between its two tables, so only the checks
of the second read them; ``conjecture`` computes the pi, gamma and Gamma
filtrations first and then runs one table.  A check is a generator over
the suite's ``_Run``: it yields a ``(detail, witness)`` pair for each
failure and may return a pass detail; ``Statement.first_failure`` keeps
the first pair and never resumes the check.  A check computes each
distinct value once (a product, a Fourier image, a gamma series).  Whether
a diagonal operator respects a product (``prop-omega-n``,
``pushforward-star-hom``) is read off the product table with no product
made: one walk of its entries (i, j), j >= i, tests lambda_k = lambda_i
lambda_j for every output k.  ``thm-fm-iso`` multiplies every pair, because
its zero right-hand sides are part of what it proves.  A skip is data:
``skip(run)`` returns the reason a statement does not apply (negative-index
classes, no class labelled ``e1``, a violated index-product hypothesis) or
``None``.  Each entry and each filtration is one ``--timings`` lap, and
``total`` covers them all; the ``filtration`` tables lap each statement,
after one ``augmentation-{kind}`` lap per kind.  Checks call the traced
layers (``fourier``, ``star_product``, ``gamma_images``, ``validate``, ...)
through this module's globals, which a tracer may rebind.

The model suites still accept ``seed`` and ``max_rounds`` and quote them in
the report's ``config``, so recorded reports keep their bytes; the
filtrations are exact and deterministic, and read neither value.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Callable, Iterator, NamedTuple, Sequence

from . import modelio
from .adams import (
    ADAMS_KINDS,
    adams,
    adams_operator,
    adams_weight,
    complete_chern,
    gamma_images,
    gamma_series,
    exp_class,
    kind_ring,
    lambda_series,
    log_class,
    universal_gamma_coefficients,
)
from .errors import DomainError
from .filtration import (
    FILTRATION_KINDS,
    FiltrationResult,
    FiltrationSpec,
    compute_filtration,
)
from .linalg import Subspace, vandermonde_det
from .model import Element, ModelAlgebra, validate
from .operators import (
    euler_char,
    fourier,
    identity_expansion_coefficients,
    pullback,
    pushforward,
    rank,
    star_product,
)
from .series import harmonic_firstkind, stirling2

REPORT_SCHEMA = "kring-report/1"

# a check's failures: one (detail, witness) pair each, then its pass detail
Failures = Iterator[tuple[str, str]]


class Statement(NamedTuple):
    """One verdict of a report, keyed by a stable identifier."""

    id: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""
    witness: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    @classmethod
    def first_failure(cls, id: str, failures: Failures) -> "Statement":
        """The verdict of a check written as a generator that yields a
        (detail, witness) pair per failure and returns its pass detail:
        fail with the first pair, without advancing past it, or pass with
        the returned detail ("" if none)."""
        try:
            detail, witness = next(failures)
        except StopIteration as done:
            return cls(id, "pass", detail=done.value or "")
        return cls(id, "fail", detail=detail, witness=witness)


class VerificationReport:
    def __init__(
        self,
        command: str,
        model: dict,
        config: dict,
        statements: list[Statement] | None = None,
        timings: dict | None = None,
    ):
        self.command = command
        self.model = model
        self.config = config
        self.statements = [] if statements is None else statements
        self.timings = timings

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.statements)

    def add(self, statement: Statement) -> None:
        self.statements.append(statement)

    def to_dict(self) -> dict:
        doc = {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "model": self.model,
            "config": self.config,
            "ok": self.ok,
            "statements": [
                {
                    "id": s.id,
                    "status": s.status,
                    "detail": s.detail,
                    "witness": s.witness,
                }
                for s in self.statements
            ],
        }
        if self.timings is not None:
            doc["timings"] = self.timings
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1) + "\n"

    def to_text(self) -> str:
        lines = [f"# {self.command} report"]
        for key, value in self.model.items():
            lines.append(f"model.{key}: {value}")
        for key, value in self.config.items():
            lines.append(f"config.{key}: {value}")
        lines.append("")
        width = max((len(s.id) for s in self.statements), default=0)
        for s in self.statements:
            line = f"{s.id.ljust(width)}  {s.status.upper()}"
            if s.witness:
                line += f"  witness: {s.witness}"
            if s.detail:
                line += f"  ({s.detail})"
            lines.append(line)
        lines.append("")
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines) + "\n"


def _model_descriptor(model: ModelAlgebra, source: str) -> dict:
    return {
        "source": source,
        "g": model.g,
        "dim": model.dim,
        "fingerprint": modelio.fingerprint(model),
    }


def _sample_elements(model: ModelAlgebra, count: int = 2) -> list:
    """A small deterministic family of mixed elements for pointwise checks."""
    import random

    rng = random.Random(481)
    out = []
    for _ in range(count):
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(model.dim)]
        out.append(model.from_coords(coords))
    return out


class _Run:
    """What a suite check reads: the model, the series order, its basis
    elements, and the filtrations the suite has computed so far, by kind;
    and what a suite fills: its report and its wall-clock laps by name, in
    the order they end."""

    def __init__(self, model: ModelAlgebra, order: int, report: VerificationReport | None = None):
        self.model = model
        self.order = order
        self.report = report
        self.laps: dict[str, float] = {}
        self.fil: dict[str, FiltrationResult] = {}

    @contextmanager
    def lap(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        yield
        self.laps[name] = round(time.perf_counter() - start, 6)

    @cached_property
    def basis(self) -> tuple[Element, ...]:
        return self.model.basis_elements()

    @property
    def g(self) -> int:
        return self.model.g


@contextmanager
def _suite(
    command: str, model: ModelAlgebra, source: str, order: int | None,
    with_timings: bool, **config,
) -> Iterator[_Run]:
    """The frame of a report runner: default the series order, open the
    report with ``order`` first in its config, and lap the body as
    ``total``; the laps reach the report only ``with_timings``."""
    if order is None:
        order = model.default_series_order
    config = {"order": order, **config}
    run = _Run(model, order, VerificationReport(command, _model_descriptor(model, source), config))
    with run.lap("total"):
        yield run
    if with_timings:
        run.report.timings = run.laps


def _filtration(run: _Run, kind: str, n_max: int) -> None:
    with run.lap(f"filtration-{kind}"):
        run.fil[kind] = compute_filtration(run.model, kind, n_max, order=run.order)


def _model_validate(run: _Run) -> Failures:
    v = validate(run.model)
    if not v.ok:
        yield str(v), ""


def _identity_expansion(run: _Run) -> Failures:
    """The identity is sum_m (-1)^m C(2g+1, m+1) pushforward(-m), m = 0..2g:
    on each eigenvalue (-m)^d, d = 0..2g, and on each basis vector."""
    model, g = run.model, run.g
    coeffs = identity_expansion_coefficients(g)
    for d in range(2 * g + 1):
        if sum(c * (-m) ** d for m, c in enumerate(coeffs)) != 1:
            yield "", ""
    pushes = [pushforward(model, -m) for m in range(2 * g + 1)]
    ring = kind_ring(model, "usual")
    for e in run.basis:
        if ring.sum([(c, push.apply(e)) for c, push in zip(coeffs, pushes)]) != e:
            yield "", ""


def _vandermonde(run: _Run) -> Failures:
    det = vandermonde_det(run.g)
    if det == 0:
        yield "", ""
    return f"det={det}"


def _fm_composite(run: _Run) -> Failures:
    """pullback(m) F F pushforward(n) = (-1)^g pullback(-m) pushforward(n) on
    every basis vector: the composite of the twisted Fourier transforms
    attached to the n-th and m-th powers of the kernel class."""
    model, sign = run.model, Fraction((-1) ** run.g)
    twists = range(-2, 3)
    pushed = {n: [pushforward(model, n).apply(e) for e in run.basis] for n in twists}
    twice = {n: [fourier(fourier(x)) for x in xs] for n, xs in pushed.items()}
    for m in twists:
        pull_m, pull_neg_m = pullback(model, m), pullback(model, -m)
        for n in twists:
            for i, x in enumerate(pushed[n]):
                if pull_m.apply(twice[n][i]) != sign * pull_neg_m.apply(x):
                    yield f"(m, n)=({m}, {n})", model.labels[i]


def _fm_iso(run: _Run) -> Failures:
    model, basis, labels = run.model, run.basis, run.model.labels
    inversion = pullback(model, -1)
    sign = Fraction((-1) ** run.g)
    images = [fourier(e) for e in basis]
    for i, e in enumerate(basis):
        if fourier(images[i]) != sign * inversion.apply(e):
            yield "square law", labels[i]
    # every pair: a zero right-hand side is part of what the law proves
    for i in range(model.dim):
        for j in range(i, model.dim):
            if fourier(star_product(basis[i], basis[j])) != images[i] * images[j]:
                yield "multiplicativity", f"({labels[i]}, {labels[j]})"
    origin = model.star_unit()
    for i, e in enumerate(basis):
        if euler_char(e) != rank(images[i]):
            yield "augmentation exchange", labels[i]
        if star_product(origin, e) != e:
            yield "origin class is not the unit", labels[i]


def _exchange(run: _Run) -> Failures:
    images = [fourier(e) for e in run.basis]
    for n in range(-3, 4):
        push = pushforward(run.model, n)
        pull = pullback(run.model, n)
        for i, e in enumerate(run.basis):
            if fourier(push.apply(e)) != pull.apply(images[i]):
                yield f"n={n}", run.model.labels[i]


def _adams_semigroup(run: _Run) -> Failures:
    model = run.model
    for kind in ADAMS_KINDS:
        for n in range(1, 7):
            for m in range(1, 7):
                lhs = adams_operator(model, kind, n).compose(adams_operator(model, kind, m))
                if lhs != adams_operator(model, kind, n * m):
                    yield f"{kind}, n={n}, m={m}", ""
    for k in range(-3, 4):
        for l in range(-3, 4):
            for name, family in (("pullback", pullback), ("pushforward", pushforward)):
                if family(model, k).compose(family(model, l)) != family(model, k * l):
                    yield f"{name}, {k}*{l}", ""


def _omega(run: _Run) -> Failures:
    model, basis, labels = run.model, run.basis, run.model.labels
    table = model.usual.table
    for n in range(1, 5):
        ops = [(kind, adams_operator(model, kind, n)) for kind in ("composed", "pi_star")]
        for i, j, entries in table.upper_entries():
            for kind, op in ops:
                if not op.respects(i, j, entries):
                    yield f"{kind}, n={n}", f"({labels[i]}, {labels[j]})"
        for e in basis:
            if rank(adams(model, "pi_star", n, e)) != rank(e):
                yield f"rank preservation, n={n}", ""
            if adams(model, "composed", n, e).beauville_component(0) != (
                e.beauville_component(0)
            ):
                yield f"index-0 augmentation preservation, n={n}", ""


def _push_star_hom(run: _Run) -> Failures:
    model, labels = run.model, run.model.labels
    for m in range(-2, 3):
        push = pushforward(model, m)
        for i, j, entries in model.star_table.upper_entries():
            if not push.respects(i, j, entries):
                yield f"m={m}", f"({labels[i]}, {labels[j]})"


def _push_automorphism(run: _Run) -> Failures:
    for n in (1, -1, 2, -2, 3, -3):
        if not all(pushforward(run.model, n).nums):
            yield f"n={n}", ""


def _star_push_commute(run: _Run) -> Failures:
    model, g = run.model, run.g
    elements = list(run.basis) + _sample_elements(model)
    cache: dict = {}

    def star_gammas(z: Element) -> list[Element]:
        key = (z.nums, z.den)
        if key not in cache:
            cache[key] = gamma_images(model, "star", z, g + 1)
        return cache[key]

    for m in range(-2, 3):
        push = pushforward(model, m)
        for x in elements:
            lhs_all, rhs_all = star_gammas(push.apply(x)), star_gammas(x)
            for n in range(g + 2):
                if lhs_all[n] != push.apply(rhs_all[n]):
                    yield f"m={m}, n={n}", str(x)


def _addition_law(run: _Run) -> Failures:
    model, order, g = run.model, run.order, run.g
    a, b = _sample_elements(model, 2)
    pairs = [(x, y, x + y) for x, y in ((run.basis[0], run.basis[-1]), (a, b))]
    cache: dict = {}
    passed = set()

    def key(kind: str, x: Element):
        # the family enters only through its ring and the weights of x's
        # nonzero coordinates, so the key is exact
        weights = tuple(
            adams_weight(kind, *model.bidegrees[i], g) for i, n in enumerate(x.nums) if n
        )
        return kind == "star", weights, x.nums, x.den

    def series(kind: str, x: Element, k):
        if k not in cache:
            cache[k] = gamma_series(model, kind, x, order)
        return cache[k]

    for kind in ADAMS_KINDS:
        for x, y, total in pairs:
            # a triple of keys that has passed once passes again
            keys = key(kind, x), key(kind, y), key(kind, total)
            if keys in passed:
                continue
            sx, sy, st = (series(kind, v, k) for v, k in zip((x, y, total), keys))
            if st != sx * sy:
                yield kind, str(total)
            else:
                passed.add(keys)


def _vanishing(kind: str) -> Callable[[_Run], Failures]:
    """Stages g + 1 and g + 2 of the ``kind`` filtration are zero."""

    def check(run: _Run) -> Failures:
        for n in range(run.g + 1, run.g + 3):
            if run.fil[kind].stage(n).dim != 0:
                yield f"stage {n}", ""

    return check


def _monotone(run: _Run) -> Failures:
    for kind, result in run.fil.items():
        if not FiltrationSpec(kind).augmentation_is_morphism(run.model)[0]:
            continue
        for n in range(len(result.stages) - 1):
            if not result.stage(n + 1).is_subspace_of(result.stage(n)):
                yield f"{kind}, stage {n + 1}", ""


def _fm_mirror(run: _Run) -> Failures:
    star, gamma = run.fil["star"], run.fil["gamma"]
    for n in range(len(star.stages)):
        image = Subspace.span(
            run.model.dim,
            [fourier(Element(run.model, nums, den)) for nums, den in star.stage(n).rows],
        )
        if image != gamma.stage(n):
            yield f"stage {n}", ""


def _line_bundles(run: _Run) -> Failures:
    model, g = run.model, run.g
    e1 = model.basis_element(model.index_of("e1"))
    L = exp_class(e1)
    if log_class(L) != e1:
        yield "log/exp inversion", ""
    chi = euler_char(L)
    for n in range(1, 6):
        if euler_char(exp_class(n * e1)) != Fraction(n) ** g * chi:
            yield f"Euler scaling, n={n}", ""
        lhs = adams(model, "star", n, L)
        if lhs != Fraction(n) ** g * exp_class(Fraction(1, n) * e1):
            yield f"convolution Adams, n={n}", ""
    if Fraction(1, factorial(g)) * (L - model.one()) ** g != chi * model.star_unit():
        yield "top self-intersection", ""
    if "a" in model.labels:
        La = model.one() + model.basis_element(model.index_of("a"))
        if euler_char(La) != 0:
            yield "anti-symmetric Euler", ""
        for n in range(1, 5):
            if adams(model, "star", n, La) != Fraction(n) ** g * La:
                yield f"anti-symmetric convolution Adams, n={n}", ""


def _coeff_stirling(run: _Run) -> Failures:
    tables = {d: universal_gamma_coefficients(d, 6, 1) for d in range(1, 7)}
    for i in range(1, 7):
        for d in range(1, 7):
            want = Fraction((-1) ** (i - 1) * factorial(i - 1) * stirling2(d, i))
            if tables[d][i][1] != want:
                yield f"i={i}, d={d}", ""


def _if_negative_index(reason: str) -> Callable[[_Run], str | None]:
    """A skip that gives ``reason`` on a model with negative-index classes."""

    def skip(run: _Run) -> str | None:
        model = run.model
        negative = any(model.beauville_index_of(i) < 0 for i in range(model.dim))
        return reason if negative else None

    return skip


def _without_e1(run: _Run) -> str | None:
    return None if "e1" in run.model.labels else "no degree-one class"


# (id, check, skip) in report order; the filtrations are computed between
# the two tables
_BEFORE_FILTRATIONS = (
    ("model-validate", _model_validate, None),
    ("identity-expansion", _identity_expansion, None),
    ("vandermonde-independence", _vandermonde, None),
    ("prop-F_qmF_pn", _fm_composite, None),
    ("thm-fm-iso", _fm_iso, None),
    ("exchange-law", _exchange, None),
    ("adams-semigroup", _adams_semigroup, None),
    ("prop-omega-n", _omega, None),
    ("pushforward-star-hom", _push_star_hom, None),
    ("pushforward-automorphism", _push_automorphism, None),
    ("star-pushforward-commute", _star_push_commute, None),
    ("gamma-addition-law", _addition_law, None),
)
_AFTER_FILTRATIONS = (
    (
        "cor-star-vanishing",
        _vanishing("star"),
        _if_negative_index(
            "model carries negative-index classes; the convolution "
            "filtration mirrors the ordinary one, which need not "
            "vanish above g on such models"
        ),
    ),
    ("lem-pi-vanishing", _vanishing("pi"), None),
    (
        "gamma-vanishing",
        _vanishing("gamma"),
        _if_negative_index("model carries negative-index classes"),
    ),
    ("fil-monotone", _monotone, None),
    ("thm-fm-iso-filtration", _fm_mirror, None),
    ("line-bundle-suite", _line_bundles, _without_e1),
    ("gamma-coeff-stirling", _coeff_stirling, None),
)


def _run_checks(run: _Run, table) -> None:
    for sid, check, skip in table:
        with run.lap(sid):
            reason = skip(run) if skip else None
            if reason:
                run.report.add(Statement(sid, "skipped", detail=reason))
            else:
                run.report.add(Statement.first_failure(sid, check(run)))


def run_verify_suite(
    model: ModelAlgebra,
    source: str,
    *,
    order: int | None = None,
    seed: int = 0,
    max_rounds: int = 8,
    with_timings: bool = False,
) -> VerificationReport:
    """Every identity the theory proves, checked exactly on one model."""
    with _suite(
        "verify", model, source, order, with_timings, seed=seed, max_rounds=max_rounds
    ) as run:
        _run_checks(run, _BEFORE_FILTRATIONS)
        for kind in FILTRATION_KINDS:
            _filtration(run, kind, model.g + 2)
        _run_checks(run, _AFTER_FILTRATIONS)
    return run.report


def _pi_outside_gamma(run: _Run, stages: Sequence[int]) -> Iterator[tuple[int, Element]]:
    """(q, x) for each q in ``stages`` whose pi stage is not inside gamma
    stage q, x the first basis vector of the pi stage that lies outside."""
    pi, gamma = run.fil["pi"], run.fil["gamma"]
    for q in stages:
        for nums, den in pi.stage(q).rows:
            if not gamma.stage(q).contains(nums):
                yield q, Element(run.model, nums, den)
                break


def _pi_subset_gamma(run: _Run) -> Failures:
    failing = list(_pi_outside_gamma(run, range(run.g + 1)))
    if failing:
        yield f"fails at q in {[q for q, _ in failing]}", str(failing[0][1])


def _proved_cases(run: _Run) -> Failures:
    """The stages q = 0, 1, g - 1, g of the inclusion are proved; a failure
    there means the model violates the one-dimensionality facts the proof
    rests on."""
    proved = sorted({0, 1, run.g - 1, run.g})
    for q, x in _pi_outside_gamma(run, proved):
        yield (
            "model-validation failure: provable stage "
            f"q={q} fails, so the model violates the "
            "one-dimensionality geometry behind those cases"
        ), str(x)
    return f"stages {proved}"


def _equivalences(run: _Run) -> Failures:
    """The four criteria agree on each basis class x in K^p_q with p > 0
    and q < g: (1) p >= g - q; (2) the i-th pi-gamma operation of x lies in
    gamma stage i for all i up to the series order; (3) the same at
    i = g - q; (4) the same at i = p + 1, true past the order."""
    model, g, order, gamma = run.model, run.g, run.order, run.fil["gamma"]
    for i, (p, q) in enumerate(model.bidegrees):
        if p <= 0 or g - q <= 0:
            continue
        images = gamma_images(model, "pi", run.basis[i], order)
        in_stage = [gamma.stage(n).contains(images[n]) for n in range(order + 1)]
        statements = {
            1: p >= g - q,
            2: all(in_stage[1:]),
            3: in_stage[g - q],
            4: in_stage[p + 1] if p + 1 <= order else True,
        }
        if len(set(statements.values())) > 1:
            yield f"statements {statements}", model.labels[i]


def _pair(model: ModelAlgebra, i: int, j: int) -> str:
    return f"({model.labels[i]}, {model.labels[j]})"


def _index_products(run: _Run) -> Failures:
    # e_i . e_k is nonzero exactly when (i, k) has an entry in the table
    model = run.model
    for i in range(model.dim):
        ji = model.beauville_index_of(i)
        if ji <= 0:
            continue
        for k in range(model.dim):
            jk = model.beauville_index_of(k)
            if jk < 0 and model.usual.partners[i] >> k & 1:
                yield f"index {ji} class times index {jk} class is nonzero", _pair(model, i, k)


def _bloch_products(run: _Run) -> Failures:
    model, g = run.model, run.g
    for i in range(model.dim):
        p1, q1 = model.bidegrees[i]
        if q1 != g or p1 < 1:
            continue
        for k in range(model.dim):
            if p1 >= model.bidegrees[k].q + 1 and model.usual.partners[i] >> k & 1:
                yield "a K^r_g class with r > n meets a K^s_n class", _pair(model, i, k)


def _epsilon_morphism(run: _Run) -> Failures:
    """For each basis class x with index-0 projection y, lambda^i(x) of the
    composed structure projects to y (y-1) ... (y-i+1) / i!, i = 1 .. g,
    all read off one lambda series of order g."""
    model, one = run.model, run.model.one()
    morphism_ok, pair = FiltrationSpec("Gamma").augmentation_is_morphism(model)
    if not morphism_ok:
        yield "", pair or ""
    for i, x in enumerate(run.basis):
        series = lambda_series(model, "composed", x, model.g)
        y = x.beauville_component(0)
        falling = one  # y (y-1) ... (y-idx+1)
        for idx in range(1, model.g + 1):
            falling = falling * (y - (idx - 1) * one)
            lhs = series.coefficient(idx).beauville_component(0)
            if lhs != Fraction(1, factorial(idx)) * falling:
                yield "", f"{model.labels[i]} at i={idx}"


def _if_index_products(run: _Run) -> str | None:
    """The epsilon statement's hypothesis: no nonzero product of a
    positive- and a negative-index class."""
    if next(_index_products(run), None) is None:
        return None
    return (
        "hypothesis violated: nonzero product of positive- and negative-index "
        "classes, so the index-0 projection is not a ring morphism"
    )


def _fil1(run: _Run) -> Failures:
    # stage 1 of the composed filtration sits inside the rank kernel
    model = run.model
    kernel_gamma = Subspace.coordinate(model.dim, FiltrationSpec("gamma").kernel_indices(model))
    if not run.fil["Gamma"].stage(1).is_subspace_of(kernel_gamma):
        yield "", ""


def _fil2(run: _Run) -> Failures:
    # index blocks lie deep in the filtration: K[j] in stage r for j<0 or j>=r
    model, stages = run.model, run.fil["Gamma"].stages
    for j in range(-model.g, model.g + 1):
        idx = model.indices_by_index(j)
        if not idx:
            continue
        block = Subspace.coordinate(model.dim, idx)
        for r in range(model.g + 3):
            if (j < 0 or j >= r) and not block.is_subspace_of(stages[r]):
                yield "", f"index {j} block at stage {r}"


def _with_pairwise_sums(vectors: Sequence[Element]) -> list[Element]:
    return list(vectors) + [
        vectors[i] + vectors[j]
        for i in range(len(vectors))
        for j in range(i + 1, len(vectors))
    ]


def _kernel_c(run: _Run) -> Failures:
    """The complete-Chern kernel, computed two independent ways."""
    model, g, stages = run.model, run.g, run.fil["Gamma"].stages
    intersection = stages[0]
    for s in stages[1:]:
        intersection = intersection.intersect(s)
    stabilised = stages[g + 1] == stages[g + 2]

    base = [run.basis[i] for i in FiltrationSpec("Gamma").kernel_indices(model)]
    survivors = [
        x for x in _with_pairwise_sums(base) if complete_chern(model, x, stages).is_zero
    ]
    searched = Subspace.span(model.dim, survivors)

    detail = (
        f"intersection dim {intersection.dim}, spanning-search dim "
        f"{searched.dim}, stage {g + 1} dim {stages[g + 1].dim}, "
        f"stages {g + 1} and {g + 2} "
        + ("stabilised" if stabilised else "did not stabilise")
    )
    if not (searched == intersection and stabilised and intersection == stages[g + 1]):
        yield detail, ""
    return detail


def _top_stage(run: _Run) -> Failures:
    top = run.fil["Gamma"].stage(run.g + 1)
    if top.dim:
        yield "", str(Element(run.model, *top.rows[0]))


# (id, check, skip) in report order; the pi, gamma and Gamma filtrations
# are computed before the table
_CONJECTURE = (
    ("conj-pi-subset-gamma", _pi_subset_gamma, None),
    ("rem-conj-proved-cases", _proved_cases, None),
    ("lem-conjecture-equivalences", _equivalences, None),
    ("conj-2-products", _index_products, None),
    ("lem-epsilon-gamma-morphism", _epsilon_morphism, _if_index_products),
    ("lem-fil1", _fil1, None),
    ("lem-fil2", _fil2, None),
    ("prop-kernel-c", _kernel_c, None),
    ("conj-3-vanishing", _top_stage, None),
    ("bloch-products", _bloch_products, None),
)


def run_conjecture_suite(
    model: ModelAlgebra,
    source: str,
    *,
    order: int | None = None,
    seed: int = 0,
    max_rounds: int = 8,
    with_timings: bool = False,
) -> VerificationReport:
    """The conjecture checkers and the conditional composed-structure suite."""
    with _suite(
        "conjecture", model, source, order, with_timings, seed=seed, max_rounds=max_rounds
    ) as run:
        # stages 0..g do not depend on n_max, so one gamma filtration serves
        # both the containment check (q <= g) and the equivalence criteria
        # (i <= order)
        for kind, n_max in (("pi", run.g), ("gamma", run.order), ("Gamma", run.g + 2)):
            _filtration(run, kind, n_max)
        _run_checks(run, _CONJECTURE)
    return run.report


def run_filtration_tables(
    model: ModelAlgebra,
    source: str,
    *,
    kinds: tuple[str, ...] = ("gamma", "star", "pi", "Gamma"),
    methods: tuple[str, ...] = ("saturation", "eigen_sum"),
    n_max: int | None = None,
    order: int | None = None,
    seed: int = 0,
    max_rounds: int = 8,
    with_timings: bool = False,
) -> VerificationReport:
    """Dimension tables per kind and method, plus the containment comparison."""
    if n_max is None:
        n_max = model.g + 2
    with _suite(
        "filtration", model, source, order, with_timings,
        seed=seed, max_rounds=max_rounds, n_max=n_max,
    ) as run:
        for kind in kinds:
            with run.lap(f"augmentation-{kind}"):
                morphism_ok, witness = FiltrationSpec(kind).augmentation_is_morphism(model)
            note = f"; augmentation is not a ring morphism here (witness {witness})"
            results = {}
            for method in methods:
                sid = f"filtration-{kind}-{method}"
                with run.lap(sid):
                    res = compute_filtration(model, kind, n_max, method, order=run.order)
                    results[method] = res
                    detail = f"dims {list(res.dims)}" + ("" if morphism_ok else note)
                    run.report.add(Statement(sid, "pass", detail=detail))
            if len(results) == 2:
                sid = f"filtration-{kind}-method-comparison"
                with run.lap(sid):
                    sat, eig = results["saturation"], results["eigen_sum"]
                    contained = all(
                        s.is_subspace_of(e) for s, e in zip(sat.stages, eig.stages)
                    )
                    equal = sat.stages == eig.stages
                    detail = f"saturation within eigen_sum: {contained}; equal: {equal}"
                    run.report.add(Statement(sid, "pass", detail=detail))
    return run.report


# the model descriptor of a report that runs on no model
_UNIVERSAL = {"source": "universal", "g": 0, "dim": 0, "fingerprint": ""}


def run_gamma_coeff_report(i_max: int, d_max: int, m_max: int) -> VerificationReport:
    report = VerificationReport(
        "gamma-coeffs", dict(_UNIVERSAL), {"i_max": i_max, "d_max": d_max, "m_max": m_max}
    )
    for d in range(1, d_max + 1):
        table = universal_gamma_coefficients(d, i_max, m_max)
        for i in range(1, i_max + 1):
            values = ", ".join(
                f"a({i};{d},{m}) = {table[i][m]}" for m in range(1, m_max + 1)
            )
            report.add(Statement(f"gamma-coeff-d{d}-i{i}", "pass", detail=values))
    return report


def run_series_report(weight: int, order: int) -> VerificationReport:
    """Expand Gamma_t(x) for a square-zero eigenvector x of the composed
    structure with derived index ``weight``, under the standard logarithm
    (coefficient (-1)^{n-1} n^{weight-1}) and the unscaled variant
    (coefficient (-1)^{n-1} n^{weight}), and compare the n!-scaled
    coefficients of log Gamma_t(x) with the scaled harmonic numbers."""
    if order < 1:
        raise DomainError("order must be at least 1")
    targets = [harmonic_firstkind(n) for n in range(1, order + 1)]
    report = VerificationReport("series", dict(_UNIVERSAL), {"weight": weight, "order": order})
    report.add(
        Statement(
            "series-targets",
            "pass",
            detail="scaled harmonic numbers " + ", ".join(map(str, targets)),
        )
    )
    matching = []
    for name, shift in (("standard", -1), ("unscaled", 0)):
        # log Gamma_t(x) = S(t) x, S the substituted logarithm of exponent
        # weight + shift: column m = 1 of the table at d = weight + shift + 1
        table = universal_gamma_coefficients(weight + shift + 1, order, 1)
        log_gamma = [table[n][1] for n in range(1, order + 1)]
        numerators = [c * factorial(n) for n, c in enumerate(log_gamma, start=1)]
        matches = numerators == targets
        if matches:
            matching.append(name)
        log_c = ", ".join(map(str, log_gamma))
        nums = ", ".join(map(str, numerators))
        report.add(
            Statement(
                f"series-{name}",
                "pass",
                detail=(
                    f"log-gamma coefficients [{log_c}]; "
                    f"n!-scaled numerators [{nums}]; "
                    f"matches targets: {matches}"
                ),
            )
        )
    report.add(
        Statement(
            "series-normalization-finding",
            "pass",
            detail=(
                "matching normalizations: "
                + (", ".join(matching) if matching else "none")
            ),
        )
    )
    return report
