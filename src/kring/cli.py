"""Command-line front end.

Subcommands: model (build/validate/export), verify (proved-identity suite),
filtration (dimension tables), conjecture (conjecture checkers),
gamma-coeffs (universal coefficient tables), series (index -1 expansion
under both logarithm normalizations).  The filtrations are exact and
deterministic, so no option seeds them or bounds their rounds.

Exit codes: 0 all requested checks pass (skips do not fail), 1 a check
failed, 2 usage or parse error, including a size above one of the input
caps below.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import modelio, reports
from .errors import KringError, ModelParseError
from .model import validate

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Input caps.  Each lies above every size the tests, the README and the
# benchmark use (builders up to g = 6, default order g^2 + 2 = 38); a larger
# value exits with EXIT_USAGE before any work starts.  --g and series --j
# share modelio.MAX_G with imported documents.
MAX_ORDER = modelio.MAX_G**2 + 2  # the default series order at MAX_G
MAX_SERIES_ORDER = 128  # series --order
MAX_COEFF_INDEX = 32  # gamma-coeffs --d, --i and --m-max


def _add_model_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--builder", choices=sorted(modelio.BUILDERS), help="bundled model family"
    )
    parser.add_argument("--g", type=int, help="dimension parameter g >= 1")
    parser.add_argument("--model-file", type=Path, help="model document to load")


def _add_output(parser: argparse.ArgumentParser, out_help: str | None = None) -> None:
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text", dest="fmt"
    )
    parser.add_argument("--out", type=Path, help=out_help)


def _add_run_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--order", type=int, help="series truncation order override")
    _add_output(parser, "write the report to this file")
    parser.add_argument(
        "--timings", action="store_true",
        help="include wall-clock timings (breaks byte-determinism)",
    )


def _resolve_model(args) -> tuple:
    if args.model_file is not None:
        return modelio.load_model(args.model_file), str(args.model_file)
    if args.builder is None:
        raise ModelParseError("need --builder with --g, or --model-file", "builder")
    if args.g is None or args.g < 1:
        raise ModelParseError("--g must be an integer >= 1", "g")
    _check_cap(args.g, modelio.MAX_G, "--g", "MAX_G")
    return modelio.build_model(args.builder, args.g), f"{args.builder}(g={args.g})"


def _check_cap(value: int, cap: int, what: str, name: str) -> None:
    if value > cap:
        raise ModelParseError(
            f"{what} must be at most {cap} (the input cap {name})",
            what.split()[0].lstrip("-"),
        )


def _check_order(args, deepest: int) -> int | None:
    """``--order`` must reach the deepest filtration stage the command computes."""
    if args.order is None:
        return None
    if args.order < deepest:
        raise ModelParseError(
            f"--order must be at least {deepest}, the deepest filtration stage "
            "this command computes",
            "order",
        )
    _check_cap(args.order, MAX_ORDER, "--order", "MAX_ORDER")
    return args.order


def _emit(args, text: str) -> None:
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_report(args, report) -> int:
    _emit(args, report.to_json() if args.fmt == "structured" else report.to_text())
    return EXIT_PASS if report.ok else EXIT_FAIL


def _cmd_model(args) -> int:
    model, source = _resolve_model(args)
    report = validate(model)
    document = modelio.export_model(model)
    if args.out is not None:
        args.out.write_text(document, encoding="utf-8")
        sys.stdout.write(
            f"model {source}: {'admissible' if report.ok else 'INADMISSIBLE'}; "
            f"fingerprint {modelio.fingerprint(model)}\n"
        )
    elif args.fmt == "structured":
        sys.stdout.write(document)
    else:
        sys.stdout.write(
            f"model {source}: dim {model.dim}, g={model.g}\n"
            f"fingerprint: {modelio.fingerprint(model)}\n"
            f"validation: {report}\n"
        )
    return EXIT_PASS if report.ok else EXIT_FAIL


def _cmd_suite(args) -> int:
    """``verify`` or ``conjecture``: the subcommand's ``args.suite`` runner."""
    model, source = _resolve_model(args)
    report = args.suite(
        model, source,
        order=_check_order(args, model.g + 2), with_timings=args.timings,
    )
    return _emit_report(args, report)


def _cmd_filtration(args) -> int:
    model, source = _resolve_model(args)
    kinds = ("gamma", "star", "pi", "Gamma") if args.kind == "all" else (args.kind,)
    methods = (
        ("saturation", "eigen_sum") if args.method == "both" else (args.method,)
    )
    deepest = model.g + 2 if args.n_max is None else max(args.n_max, 1)
    report = reports.run_filtration_tables(
        model, source, kinds=kinds, methods=methods, n_max=args.n_max,
        order=_check_order(args, deepest), with_timings=args.timings,
    )
    return _emit_report(args, report)


def _cmd_gamma_coeffs(args) -> int:
    if args.d < 1 or args.i < 1 or args.m_max < 1:
        raise ModelParseError("--d, --i and --m-max must be >= 1", "gamma-coeffs")
    for flag, value in (("--d", args.d), ("--i", args.i), ("--m-max", args.m_max)):
        _check_cap(value, MAX_COEFF_INDEX, flag, "MAX_COEFF_INDEX")
    report = reports.run_gamma_coeff_report(args.i, args.d, args.m_max)
    return _emit_report(args, report)


def _cmd_series(args) -> int:
    _check_cap(args.order, MAX_SERIES_ORDER, "--order", "MAX_SERIES_ORDER")
    # a derived index lies in -g..g
    _check_cap(abs(args.j), modelio.MAX_G, "--j in absolute value", "MAX_G")
    report = reports.run_series_report(args.j, args.order)
    return _emit_report(args, report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kring",
        description=(
            "Exact checks for bigraded models of a rational Grothendieck ring"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="build, validate, and export a model")
    _add_model_source(p_model)
    _add_output(p_model)
    p_model.set_defaults(fn=_cmd_model)

    for command, runner, help_text in (
        ("verify", reports.run_verify_suite, "run the proved-identity suite"),
        ("conjecture", reports.run_conjecture_suite, "run the conjecture checkers"),
    ):
        p_suite = sub.add_parser(command, help=help_text)
        _add_model_source(p_suite)
        _add_run_config(p_suite)
        p_suite.set_defaults(fn=_cmd_suite, suite=runner)

    p_fil = sub.add_parser("filtration", help="filtration dimension tables")
    _add_model_source(p_fil)
    _add_run_config(p_fil)
    p_fil.add_argument(
        "--kind", choices=("gamma", "star", "pi", "Gamma", "all"), default="all"
    )
    p_fil.add_argument(
        "--method", choices=("saturation", "eigen_sum", "both"), default="both"
    )
    p_fil.add_argument("--n-max", type=int, default=None)
    p_fil.set_defaults(fn=_cmd_filtration)

    p_gamma = sub.add_parser("gamma-coeffs", help="universal gamma coefficients")
    p_gamma.add_argument("--d", type=int, required=True, help="weight d >= 1")
    p_gamma.add_argument("--i", type=int, required=True, help="largest gamma index")
    p_gamma.add_argument("--m-max", type=int, default=4, help="largest power")
    _add_output(p_gamma)
    p_gamma.set_defaults(fn=_cmd_gamma_coeffs)

    p_series = sub.add_parser(
        "series", help="index-j gamma expansion under both normalizations"
    )
    p_series.add_argument("--j", type=int, default=-1, help="derived index of the class")
    p_series.add_argument("--order", type=int, default=5)
    _add_output(p_series)
    p_series.set_defaults(fn=_cmd_series)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.fn(args)
    except ModelParseError as exc:
        sys.stderr.write(f"error [{exc.field}]: {exc}\n")
        return EXIT_USAGE
    except (OSError, KringError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
