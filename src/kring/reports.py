"""Verification suites and machine/human-readable reports.

A report is a list of statements, each pass/fail/skipped with witnesses,
keyed by stable identifiers, plus the model fingerprint and the run
configuration.  Structured output is deterministic: two runs with the same
model document and configuration produce byte-identical JSON (timings are
opt-in precisely because they would break that).

The ``verify`` suite is two ordered tables of ``(id, check, skip)``, and
the table order is the report order.  The four filtrations are computed
between the two tables, so only the checks of the second read them.  A
check is a generator over the suite's ``_Run``: it yields a
``(detail, witness)`` pair for each failure and may return a pass detail;
``Statement.first_failure`` keeps the first pair and never resumes the
check.  A check computes each distinct value once (a product, a Fourier
image, a gamma series) and may leave out a basis pair that has no entry
in the product table it tests: there both sides of a diagonal operator's
multiplicativity are zero.  ``thm-fm-iso`` walks every pair, because its
zero right-hand sides are part of what it proves.  A skip is data:
``skip(run)`` returns the reason a statement does not apply
(negative-index classes, no class labelled ``e1``) or ``None``.
Each entry and each filtration is one ``--timings`` lap, and ``total``
covers them all.  Checks call the traced layers (``fourier``,
``star_product``, ``validate``, ...) through this module's globals, which
a tracer may rebind.

The model suites still accept ``seed`` and ``max_rounds`` and quote them in
the report's ``config``, so recorded reports keep their bytes; the
filtrations are exact and deterministic, and read neither value.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator

from . import modelio
from .adams import (
    ADAMS_KINDS,
    adams,
    adams_operator,
    adams_weight,
    gamma_images,
    gamma_normalization_report,
    gamma_series,
    exp_class,
    log_class,
    universal_gamma_coefficients,
)
from .filtration import (
    FILTRATION_KINDS,
    Failures,
    FiltrationResult,
    FiltrationSpec,
    PiGammaReport,
    Statement,
    check_composed_structure,
    check_lemma_equivalences,
    check_pi_subset_gamma,
    compute_filtration,
)
from .linalg import Subspace, vandermonde_det
from .model import Element, ModelAlgebra, validate
from .operators import (
    euler_char,
    fm_composite_check,
    fourier,
    pullback,
    pushforward,
    pushforward_identity_check,
    rank,
    star_product,
)
from .series import stirling2

REPORT_SCHEMA = "kring-report/1"


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


class _Timer:
    """Wall-clock laps by name, in the order they end."""

    def __init__(self):
        self.laps: dict[str, float] = {}

    @contextmanager
    def lap(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        yield
        self.laps[name] = round(time.perf_counter() - start, 6)


def _filtration(
    timer: _Timer, model: ModelAlgebra, kind: str, n_max: int, order: int
) -> FiltrationResult:
    with timer.lap(f"filtration-{kind}"):
        return compute_filtration(model, kind, n_max, order=order)


class _Run:
    """What a ``verify`` check reads: the model, its basis elements, the
    series order, and the filtrations computed between the two tables."""

    def __init__(self, model: ModelAlgebra, order: int, basis: tuple[Element, ...]):
        self.model = model
        self.order = order
        self.basis = basis
        self.fil: dict[str, FiltrationResult] = {}

    @property
    def g(self) -> int:
        return self.model.g



def _model_validate(run: _Run) -> Failures:
    v = validate(run.model)
    if not v.ok:
        yield str(v), ""


def _identity_expansion(run: _Run) -> Failures:
    if not pushforward_identity_check(run.g, run.model):
        yield "", ""


def _vandermonde(run: _Run) -> Failures:
    det = vandermonde_det(run.g)
    if det == 0:
        yield "", ""
    return f"det={det}"


def _fm_composite(run: _Run) -> Failures:
    for m in range(-2, 3):
        for n in range(-2, 3):
            res = fm_composite_check(run.model, m, n)
            if not res.ok:
                yield f"(m, n)=({m}, {n})", res.witness or ""


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
    for n in range(-3, 4):
        push = pushforward(run.model, n)
        pull = pullback(run.model, n)
        for i, e in enumerate(run.basis):
            if fourier(push.apply(e)) != pull.apply(fourier(e)):
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


def _entry_products(
    run: _Run, partners: tuple[int, ...], mul: Callable[[Element, Element], Element]
) -> list[tuple[int, int, Element]]:
    """(i, j, mul(e_i, e_j)) for the pairs i <= j with an entry in the table
    that ``partners`` masks.  Any other pair multiplies to zero, and so do
    its images under a diagonal operator, so a multiplicativity check of a
    diagonal operator cannot fail on it."""
    basis, dim = run.basis, run.model.dim
    return [
        (i, j, mul(basis[i], basis[j]))
        for i in range(dim)
        for j in range(i, dim)
        if partners[i] >> j & 1
    ]


def _omega(run: _Run) -> Failures:
    model, basis, labels = run.model, run.basis, run.model.labels
    products = _entry_products(run, model.mul_partners, model.multiply)
    for n in range(1, 5):
        for i, j, xy in products:
            for kind in ("composed", "pi_star"):
                if adams(model, kind, n, xy) != adams(model, kind, n, basis[i]) * adams(
                    model, kind, n, basis[j]
                ):
                    yield f"{kind}, n={n}", f"({labels[i]}, {labels[j]})"
        for e in basis:
            if rank(adams(model, "pi_star", n, e)) != rank(e):
                yield f"rank preservation, n={n}", ""
            if adams(model, "composed", n, e).beauville_component(0) != (
                e.beauville_component(0)
            ):
                yield f"index-0 augmentation preservation, n={n}", ""


def _push_star_hom(run: _Run) -> Failures:
    model, basis, labels = run.model, run.basis, run.model.labels
    products = _entry_products(run, model.star_partners, star_product)
    for m in range(-2, 3):
        push = pushforward(model, m)
        images = [push.apply(e) for e in basis]
        for i, j, z in products:
            if push.apply(z) != star_product(images[i], images[j]):
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

    def series(kind: str, x: Element):
        # the family enters only through its ring and the weights of x's
        # nonzero coordinates, so the key is exact
        weights = tuple(
            adams_weight(kind, *model.bidegrees[i], g) for i, n in enumerate(x.nums) if n
        )
        key = (kind == "star", weights, x.nums, x.den)
        if key not in cache:
            cache[key] = gamma_series(model, kind, x, order)
        return cache[key]

    for kind in ADAMS_KINDS:
        for x, y, total in pairs:
            if series(kind, total) != series(kind, x) * series(kind, y):
                yield kind, str(total)


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


def _run_checks(report: VerificationReport, timer: _Timer, run: _Run, table) -> None:
    for sid, check, skip in table:
        with timer.lap(sid):
            reason = skip(run) if skip else None
            if reason:
                report.add(Statement(sid, "skipped", detail=reason))
            else:
                report.add(Statement.first_failure(sid, check(run)))


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
    if order is None:
        order = model.default_series_order
    report = VerificationReport(
        command="verify",
        model=_model_descriptor(model, source),
        config={"order": order, "seed": seed, "max_rounds": max_rounds},
    )
    timer = _Timer()
    with timer.lap("total"):
        run = _Run(model, order, model.basis_elements())
        _run_checks(report, timer, run, _BEFORE_FILTRATIONS)
        for kind in FILTRATION_KINDS:
            run.fil[kind] = _filtration(timer, model, kind, model.g + 2, order)
        _run_checks(report, timer, run, _AFTER_FILTRATIONS)
    if with_timings:
        report.timings = timer.laps
    return report


def _pi_gamma_failures(pg: PiGammaReport) -> Failures:
    failing = pg.failing_stages()
    if failing:
        witness = pg.verdict(failing[0]).witness
        yield f"fails at q in {list(failing)}", "" if witness is None else str(witness)


def _proved_case_failures(pg: PiGammaReport) -> Failures:
    for bad in pg.proved_failures:
        yield (
            "model-validation failure: provable stage "
            f"q={bad.q} fails, so the model violates the "
            "one-dimensionality geometry behind those cases"
        ), "" if bad.witness is None else str(bad.witness)
    return f"stages {list(pg.proved_stages)}"


def _equivalence_failures(model: ModelAlgebra, gamma: FiltrationResult) -> Failures:
    for i in range(model.dim):
        p, q = model.bidegrees[i]
        if p <= 0 or model.g - q <= 0:
            continue
        res = check_lemma_equivalences(model, model.basis_element(i), gamma_result=gamma)
        if not res.ok:
            yield f"statements {res.statements}", model.labels[i]


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
    g = model.g
    if order is None:
        order = model.default_series_order
    report = VerificationReport(
        command="conjecture",
        model=_model_descriptor(model, source),
        config={"order": order, "seed": seed, "max_rounds": max_rounds},
    )
    timer = _Timer()
    with timer.lap("total"):
        # stages 0..g do not depend on n_max, so one gamma filtration serves
        # both the containment check (q <= g) and the equivalence criteria
        # (i <= order)
        pi_res = _filtration(timer, model, "pi", g, order)
        gamma = _filtration(timer, model, "gamma", order, order)
        with timer.lap("conj-pi-subset-gamma"):
            pg = check_pi_subset_gamma(model, pi_result=pi_res, gamma_result=gamma)
            report.add(Statement.first_failure("conj-pi-subset-gamma", _pi_gamma_failures(pg)))
            report.add(
                Statement.first_failure("rem-conj-proved-cases", _proved_case_failures(pg))
            )
        with timer.lap("lem-conjecture-equivalences"):
            report.add(
                Statement.first_failure(
                    "lem-conjecture-equivalences", _equivalence_failures(model, gamma)
                )
            )
        gamma_big = _filtration(timer, model, "Gamma", g + 2, order)
        with timer.lap("composed-structure"):
            composed = check_composed_structure(model, gamma_big_result=gamma_big)
            report.statements.extend(composed.statements.values())
    if with_timings:
        report.timings = timer.laps
    return report


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
) -> VerificationReport:
    """Dimension tables per kind and method, plus the containment comparison."""
    if n_max is None:
        n_max = model.g + 2
    if order is None:
        order = model.default_series_order
    report = VerificationReport(
        command="filtration",
        model=_model_descriptor(model, source),
        config={
            "order": order,
            "seed": seed,
            "max_rounds": max_rounds,
            "n_max": n_max,
        },
    )
    for kind in kinds:
        results = {}
        for method in methods:
            res = compute_filtration(model, kind, n_max, method, order=order)
            results[method] = res
            detail = f"dims {list(res.dims)}"
            morphism_ok, witness = FiltrationSpec(kind).augmentation_is_morphism(model)
            if not morphism_ok:
                detail += f"; augmentation is not a ring morphism here (witness {witness})"
            report.add(Statement(f"filtration-{kind}-{method}", "pass", detail=detail))
        if len(results) == 2:
            sat, eig = results["saturation"], results["eigen_sum"]
            contained = all(
                s.is_subspace_of(e) for s, e in zip(sat.stages, eig.stages)
            )
            equal = sat.stages == eig.stages
            report.add(
                Statement(
                    f"filtration-{kind}-method-comparison",
                    "pass",
                    detail=(
                        f"saturation within eigen_sum: {contained}; equal: {equal}"
                    ),
                )
            )
    return report


def run_gamma_coeff_report(i_max: int, d_max: int, m_max: int) -> VerificationReport:
    report = VerificationReport(
        command="gamma-coeffs",
        model={"source": "universal", "g": 0, "dim": 0, "fingerprint": ""},
        config={"i_max": i_max, "d_max": d_max, "m_max": m_max},
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
    res = gamma_normalization_report(weight, order)
    report = VerificationReport(
        command="series",
        model={"source": "universal", "g": 0, "dim": 0, "fingerprint": ""},
        config={"weight": weight, "order": order},
    )
    report.add(
        Statement(
            "series-targets",
            "pass",
            detail="scaled harmonic numbers " + ", ".join(map(str, res.targets)),
        )
    )
    for name in ("standard", "unscaled"):
        log_c = ", ".join(str(c) for c in res.log_gamma[name])
        nums = ", ".join(str(c) for c in res.numerators[name])
        report.add(
            Statement(
                f"series-{name}",
                "pass",
                detail=(
                    f"log-gamma coefficients [{log_c}]; "
                    f"n!-scaled numerators [{nums}]; "
                    f"matches targets: {res.matches[name]}"
                ),
            )
        )
    matching = res.matching_normalizations
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
