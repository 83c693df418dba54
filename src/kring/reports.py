"""Verification suites and machine/human-readable reports.

A report is a list of statements, each pass/fail/skipped with witnesses,
keyed by stable identifiers, plus the model fingerprint and the run
configuration.  Structured output is deterministic: two runs with the same
model document and configuration produce byte-identical JSON (timings are
opt-in precisely because they would break that).

The model suites still accept ``seed`` and ``max_rounds`` and quote them in
the report's ``config``, so recorded reports keep their bytes; the
filtrations are exact and deterministic, and read neither value.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Callable

from . import modelio
from .adams import (
    adams,
    gamma_images,
    gamma_normalization_report,
    gamma_series,
    exp_class,
    log_class,
    universal_gamma_coefficients,
)
from .filtration import (
    FiltrationResult,
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


@dataclass
class VerificationReport:
    command: str
    model: dict
    config: dict
    statements: list[Statement] = field(default_factory=list)
    timings: dict | None = None

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

    @classmethod
    def from_dict(cls, doc: dict) -> "VerificationReport":
        report = cls(
            command=doc["command"],
            model=doc["model"],
            config=doc["config"],
            statements=[
                Statement(s["id"], s["status"], s["detail"], s["witness"])
                for s in doc["statements"]
            ],
            timings=doc.get("timings"),
        )
        return report

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


def _has_negative_index(model: ModelAlgebra) -> bool:
    return any(model.beauville_index_of(i) < 0 for i in range(model.dim))


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
    def __init__(self):
        self.laps: dict[str, float] = {}

    def lap(self, name: str, start: float) -> None:
        self.laps[name] = round(time.perf_counter() - start, 6)


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
    g = model.g
    if order is None:
        order = model.default_series_order
    report = VerificationReport(
        command="verify",
        model=_model_descriptor(model, source),
        config={"order": order, "seed": seed, "max_rounds": max_rounds},
    )
    timer = _Timer()

    def run(stmt_id: str, fn: Callable[[], Statement]) -> None:
        start = time.perf_counter()
        report.add(fn())
        timer.lap(stmt_id, start)

    basis = model.basis_elements()

    def model_validate() -> Statement:
        v = validate(model)
        if v.ok:
            return Statement("model-validate", "pass")
        return Statement("model-validate", "fail", detail=str(v))

    run("model-validate", model_validate)

    def identity_expansion() -> Statement:
        ok = pushforward_identity_check(g, model)
        return Statement("identity-expansion", "pass" if ok else "fail")

    run("identity-expansion", identity_expansion)

    def vandermonde() -> Statement:
        det = vandermonde_det(g)
        if det != 0:
            return Statement("vandermonde-independence", "pass", detail=f"det={det}")
        return Statement("vandermonde-independence", "fail")

    run("vandermonde-independence", vandermonde)

    def composite() -> Statement:
        for m in range(-2, 3):
            for n in range(-2, 3):
                res = fm_composite_check(model, m, n)
                if not res.ok:
                    return Statement(
                        "prop-F_qmF_pn",
                        "fail",
                        detail=f"(m, n)=({m}, {n})",
                        witness=res.witness or "",
                    )
        return Statement("prop-F_qmF_pn", "pass")

    run("prop-F_qmF_pn", composite)

    def fm_iso() -> Statement:
        inversion = pullback(model, -1)
        sign = Fraction((-1) ** g)
        for i, e in enumerate(basis):
            if fourier(fourier(e)) != sign * inversion.apply(e):
                return Statement(
                    "thm-fm-iso", "fail", detail="square law",
                    witness=model.labels[i],
                )
        for i in range(model.dim):
            for j in range(i, model.dim):
                lhs = fourier(star_product(basis[i], basis[j]))
                rhs = fourier(basis[i]) * fourier(basis[j])
                if lhs != rhs:
                    return Statement(
                        "thm-fm-iso", "fail", detail="multiplicativity",
                        witness=f"({model.labels[i]}, {model.labels[j]})",
                    )
        for i, e in enumerate(basis):
            if euler_char(e) != rank(fourier(e)):
                return Statement(
                    "thm-fm-iso", "fail", detail="augmentation exchange",
                    witness=model.labels[i],
                )
            if star_product(model.star_unit(), e) != e:
                return Statement(
                    "thm-fm-iso", "fail", detail="origin class is not the unit",
                    witness=model.labels[i],
                )
        return Statement("thm-fm-iso", "pass")

    run("thm-fm-iso", fm_iso)

    def exchange() -> Statement:
        for n in range(-3, 4):
            push = pushforward(model, n)
            pull = pullback(model, n)
            for i, e in enumerate(basis):
                if fourier(push.apply(e)) != pull.apply(fourier(e)):
                    return Statement(
                        "exchange-law", "fail", detail=f"n={n}",
                        witness=model.labels[i],
                    )
        return Statement("exchange-law", "pass")

    run("exchange-law", exchange)

    def semigroup() -> Statement:
        from .adams import ADAMS_KINDS, adams_operator

        for kind in ADAMS_KINDS:
            for n in range(1, 7):
                for m in range(1, 7):
                    lhs = adams_operator(model, kind, n).compose(
                        adams_operator(model, kind, m)
                    )
                    rhs = adams_operator(model, kind, n * m)
                    if lhs != rhs:
                        return Statement(
                            "adams-semigroup", "fail", detail=f"{kind}, n={n}, m={m}"
                        )
        for k in range(-3, 4):
            for l in range(-3, 4):
                for name, family in (("pullback", pullback), ("pushforward", pushforward)):
                    if family(model, k).compose(family(model, l)) != family(model, k * l):
                        return Statement("adams-semigroup", "fail", detail=f"{name}, {k}*{l}")
        return Statement("adams-semigroup", "pass")

    run("adams-semigroup", semigroup)

    def omega() -> Statement:
        for n in range(1, 5):
            for i in range(model.dim):
                for j in range(i, model.dim):
                    x, y = basis[i], basis[j]
                    if adams(model, "composed", n, x * y) != adams(
                        model, "composed", n, x
                    ) * adams(model, "composed", n, y):
                        return Statement(
                            "prop-omega-n", "fail", detail=f"composed, n={n}",
                            witness=f"({model.labels[i]}, {model.labels[j]})",
                        )
                    if adams(model, "pi_star", n, x * y) != adams(
                        model, "pi_star", n, x
                    ) * adams(model, "pi_star", n, y):
                        return Statement(
                            "prop-omega-n", "fail", detail=f"pi_star, n={n}",
                            witness=f"({model.labels[i]}, {model.labels[j]})",
                        )
            for e in basis:
                if rank(adams(model, "pi_star", n, e)) != rank(e):
                    return Statement(
                        "prop-omega-n", "fail", detail=f"rank preservation, n={n}"
                    )
                if adams(model, "composed", n, e).beauville_component(0) != (
                    e.beauville_component(0)
                ):
                    return Statement(
                        "prop-omega-n", "fail",
                        detail=f"index-0 augmentation preservation, n={n}",
                    )
        return Statement("prop-omega-n", "pass")

    run("prop-omega-n", omega)

    def push_star_hom() -> Statement:
        for m in range(-2, 3):
            push = pushforward(model, m)
            for i in range(model.dim):
                for j in range(i, model.dim):
                    lhs = push.apply(star_product(basis[i], basis[j]))
                    rhs = star_product(push.apply(basis[i]), push.apply(basis[j]))
                    if lhs != rhs:
                        return Statement(
                            "pushforward-star-hom", "fail", detail=f"m={m}",
                            witness=f"({model.labels[i]}, {model.labels[j]})",
                        )
        return Statement("pushforward-star-hom", "pass")

    run("pushforward-star-hom", push_star_hom)

    def push_invertible() -> Statement:
        for n in (1, -1, 2, -2, 3, -3):
            if not all(pushforward(model, n).nums):
                return Statement("pushforward-automorphism", "fail", detail=f"n={n}")
        return Statement("pushforward-automorphism", "pass")

    run("pushforward-automorphism", push_invertible)

    def star_gamma_commute() -> Statement:
        elements = list(basis) + _sample_elements(model)
        for m in range(-2, 3):
            push = pushforward(model, m)
            for x in elements:
                lhs_all = gamma_images(model, "star", push.apply(x), g + 1)
                rhs_all = gamma_images(model, "star", x, g + 1)
                for n in range(g + 2):
                    if lhs_all[n] != push.apply(rhs_all[n]):
                        return Statement(
                            "star-pushforward-commute", "fail",
                            detail=f"m={m}, n={n}", witness=str(x),
                        )
        return Statement("star-pushforward-commute", "pass")

    run("star-pushforward-commute", star_gamma_commute)

    def addition_law() -> Statement:
        from .adams import ADAMS_KINDS

        samples = _sample_elements(model, 2)
        pairs = [(basis[0], basis[-1]), (samples[0], samples[1])]
        for kind in ADAMS_KINDS:
            for x, y in pairs:
                left = gamma_series(model, kind, x + y, order)
                right = gamma_series(model, kind, x, order) * gamma_series(
                    model, kind, y, order
                )
                if left != right:
                    return Statement(
                        "gamma-addition-law", "fail", detail=kind, witness=str(x + y)
                    )
        return Statement("gamma-addition-law", "pass")

    run("gamma-addition-law", addition_law)

    negative = _has_negative_index(model)
    fil: dict[str, FiltrationResult] = {}
    for kind in ("gamma", "star", "pi", "Gamma"):
        start = time.perf_counter()
        fil[kind] = compute_filtration(model, kind, g + 2, order=order)
        timer.lap(f"filtration-{kind}", start)

    def star_vanishing() -> Statement:
        if negative:
            return Statement(
                "cor-star-vanishing", "skipped",
                detail=(
                    "model carries negative-index classes; the convolution "
                    "filtration mirrors the ordinary one, which need not "
                    "vanish above g on such models"
                ),
            )
        for n in range(g + 1, g + 3):
            if fil["star"].stage(n).dim != 0:
                return Statement("cor-star-vanishing", "fail", detail=f"stage {n}")
        return Statement("cor-star-vanishing", "pass")

    run("cor-star-vanishing", star_vanishing)

    def pi_vanishing() -> Statement:
        for n in range(g + 1, g + 3):
            if fil["pi"].stage(n).dim != 0:
                return Statement("lem-pi-vanishing", "fail", detail=f"stage {n}")
        return Statement("lem-pi-vanishing", "pass")

    run("lem-pi-vanishing", pi_vanishing)

    def gamma_vanishing() -> Statement:
        if negative:
            return Statement(
                "gamma-vanishing", "skipped",
                detail="model carries negative-index classes",
            )
        for n in range(g + 1, g + 3):
            if fil["gamma"].stage(n).dim != 0:
                return Statement("gamma-vanishing", "fail", detail=f"stage {n}")
        return Statement("gamma-vanishing", "pass")

    run("gamma-vanishing", gamma_vanishing)

    def monotone() -> Statement:
        for kind, result in fil.items():
            if not result.axiom_ok:
                continue
            for n in range(len(result.stages) - 1):
                if not result.stage(n + 1).is_subspace_of(result.stage(n)):
                    return Statement(
                        "fil-monotone", "fail", detail=f"{kind}, stage {n + 1}"
                    )
        return Statement("fil-monotone", "pass")

    run("fil-monotone", monotone)

    def fm_mirror() -> Statement:
        for n in range(len(fil["star"].stages)):
            image = Subspace.span(
                model.dim,
                [
                    fourier(Element(model, nums, den))
                    for nums, den in fil["star"].stage(n).rows
                ],
            )
            if image != fil["gamma"].stage(n):
                return Statement(
                    "thm-fm-iso-filtration", "fail", detail=f"stage {n}"
                )
        return Statement("thm-fm-iso-filtration", "pass")

    run("thm-fm-iso-filtration", fm_mirror)

    def line_bundles() -> Statement:
        if "e1" not in model.labels:
            return Statement(
                "line-bundle-suite", "skipped", detail="no degree-one class"
            )
        e1 = model.basis_element(model.index_of("e1"))
        L = exp_class(e1)
        if log_class(L) != e1:
            return Statement("line-bundle-suite", "fail", detail="log/exp inversion")
        chi = euler_char(L)
        for n in range(1, 6):
            Ln = exp_class(n * e1)
            if euler_char(Ln) != Fraction(n) ** g * chi:
                return Statement(
                    "line-bundle-suite", "fail", detail=f"Euler scaling, n={n}"
                )
            lhs = adams(model, "star", n, L)
            rhs = Fraction(n) ** g * exp_class(Fraction(1, n) * e1)
            if lhs != rhs:
                return Statement(
                    "line-bundle-suite", "fail", detail=f"convolution Adams, n={n}"
                )
        top = Fraction(1, factorial(g)) * (L - model.one()) ** g
        if top != chi * model.star_unit():
            return Statement(
                "line-bundle-suite", "fail", detail="top self-intersection"
            )
        if "a" in model.labels:
            a = model.basis_element(model.index_of("a"))
            La = model.one() + a
            if euler_char(La) != 0:
                return Statement(
                    "line-bundle-suite", "fail", detail="anti-symmetric Euler"
                )
            for n in range(1, 5):
                if adams(model, "star", n, La) != Fraction(n) ** g * La:
                    return Statement(
                        "line-bundle-suite", "fail",
                        detail=f"anti-symmetric convolution Adams, n={n}",
                    )
        return Statement("line-bundle-suite", "pass")

    run("line-bundle-suite", line_bundles)

    def coeff_table() -> Statement:
        tables = {d: universal_gamma_coefficients(d, 6, 1) for d in range(1, 7)}
        for i in range(1, 7):
            for d in range(1, 7):
                want = Fraction((-1) ** (i - 1) * factorial(i - 1) * stirling2(d, i))
                if tables[d][i][1] != want:
                    return Statement(
                        "gamma-coeff-stirling", "fail", detail=f"i={i}, d={d}"
                    )
        return Statement("gamma-coeff-stirling", "pass")

    run("gamma-coeff-stirling", coeff_table)

    if with_timings:
        report.timings = timer.laps
    return report


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
    start_all = time.perf_counter()

    def filtration(lap: str, kind: str, n_max: int) -> FiltrationResult:
        start = time.perf_counter()
        result = compute_filtration(model, kind, n_max, order=order)
        timer.lap(lap, start)
        return result

    # stages 0..g do not depend on n_max, so one gamma filtration serves both
    # the containment check (q <= g) and the equivalence criteria (i <= order)
    pi_res = filtration("filtration-pi", "pi", g)
    gamma = filtration("filtration-gamma", "gamma", order)
    start = time.perf_counter()
    pg = check_pi_subset_gamma(model, pi_result=pi_res, gamma_result=gamma)
    if pg.ok:
        report.add(Statement("conj-pi-subset-gamma", "pass"))
    else:
        failing = pg.failing_stages()
        witness = pg.verdict(failing[0]).witness
        report.add(
            Statement(
                "conj-pi-subset-gamma",
                "fail",
                detail=f"fails at q in {list(failing)}",
                witness=str(witness) if witness is not None else "",
            )
        )

    if pg.admissibility_ok:
        report.add(Statement("rem-conj-proved-cases", "pass",
                             detail=f"stages {list(pg.proved_stages)}"))
    else:
        bad = pg.proved_failures[0]
        report.add(
            Statement(
                "rem-conj-proved-cases",
                "fail",
                detail=(
                    "model-validation failure: provable stage "
                    f"q={bad.q} fails, so the model violates the "
                    "one-dimensionality geometry behind those cases"
                ),
                witness=str(bad.witness) if bad.witness is not None else "",
            )
        )
    timer.lap("conj-pi-subset-gamma", start)

    def equivalences() -> Statement:
        for i in range(model.dim):
            p, q = model.bidegrees[i]
            if p <= 0 or g - q <= 0:
                continue
            res = check_lemma_equivalences(
                model, model.basis_element(i), gamma_result=gamma
            )
            if not res.ok:
                return Statement(
                    "lem-conjecture-equivalences",
                    "fail",
                    detail=f"statements {res.statements}",
                    witness=model.labels[i],
                )
        return Statement("lem-conjecture-equivalences", "pass")

    start = time.perf_counter()
    report.add(equivalences())
    timer.lap("lem-conjecture-equivalences", start)

    gamma_big = filtration("filtration-Gamma", "Gamma", g + 2)
    start = time.perf_counter()
    composed = check_composed_structure(model, gamma_big_result=gamma_big)
    report.statements.extend(composed.statements.values())
    timer.lap("composed-structure", start)

    timer.lap("total", start_all)
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
            if not res.axiom_ok:
                detail += (
                    "; augmentation is not a ring morphism here "
                    f"(witness {res.axiom_witness})"
                )
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
