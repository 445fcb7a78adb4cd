"""Command-line front end.

Subcommands: check-kernel, construct, simulate, verify, report. Exit
codes: 0 success / admissible / all tests pass, 1 verification failure,
2 not admissible or construction failure, 3 indeterminate, 64 config
error. Each subcommand takes only the flags it reads (`_FLAGS`); those
can also be set through LEVYEMM_* environment variables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import pipeline
from .errors import (
    ConfigError,
    LevyEmmError,
    TruncationViolated,
    ZetaOutOfRange,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NOT_ADMISSIBLE = 2
EXIT_INDETERMINATE = 3
EXIT_CONFIG = 64

_PROFILES = {
    # path-count caps applied on top of the scenario's own n_paths
    "smoke": 2000,
    "full": None,
}


def _profile(name: str) -> str:
    if name not in _PROFILES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(sorted(_PROFILES))})")
    return name


# the flags each subcommand reads, besides --scenario / --builtin
_FLAGS = {"check-kernel": ("out",), "construct": ("out",),
          "simulate": ("seed", "n-paths", "out", "profile"),
          "verify": ("seed", "n-paths", "out", "profile", "workers"),
          "report": ("out",)}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="levyemm",
        description="EMM construction and verification for Levy-driven "
                    "moving averages",
    )
    # argparse applies type to a string default, so a bad LEVYEMM_*
    # value gives the same usage error as the flag would
    env = os.environ.get
    flags = {
        "seed": dict(type=int, default=env("LEVYEMM_SEED")),
        "n-paths": dict(type=int, default=env("LEVYEMM_N_PATHS")),
        "out": dict(default=env("LEVYEMM_OUT") or "out"),
        "profile": dict(type=_profile, default=env("LEVYEMM_PROFILE") or "full"),
        "workers": dict(type=int, default=env("LEVYEMM_WORKERS") or "1"),
    }
    sub = p.add_subparsers(dest="command", required=True)
    for name, takes in _FLAGS.items():
        sp = sub.add_parser(name)
        if name != "report":
            g = sp.add_mutually_exclusive_group(required=True)
            g.add_argument("--scenario", help="scenario YAML path")
            g.add_argument("--builtin", help="named builtin scenario")
        for flag in takes:
            sp.add_argument(f"--{flag}", **flags[flag])
    return p


def _load(args) -> pipeline.Model:
    """The scenario's model; then --out is made, before any run starts."""
    if args.builtin:
        model = pipeline.builtin_scenario(args.builtin)
    else:
        model = pipeline.load_scenario(args.scenario)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {args.out}: {exc}") from None
    return model


def _effective_n(model, args):
    n = args.n_paths if args.n_paths is not None else int(model.sim["n_paths"])
    cap = _PROFILES[args.profile]
    return min(n, cap) if cap is not None else n


def _emit(doc: dict, out_dir: str, stem: str) -> None:
    pipeline.write_report_files(doc, out_dir, stem)
    pipeline.dump_json(doc, sys.stdout)
    sys.stdout.write("\n")


def cmd_check_kernel(args) -> int:
    model = _load(args)
    doc = pipeline.run_check_kernel(model)
    _emit(doc, args.out, f"{model.name}_check_kernel")
    status = doc["classification"]["status"]
    return {
        "admissible": EXIT_OK,
        "not-admissible": EXIT_NOT_ADMISSIBLE,
        "indeterminate": EXIT_INDETERMINATE,
    }[status]


def cmd_construct(args) -> int:
    model = _load(args)
    try:
        doc = pipeline.run_construct(model)
    except (TruncationViolated, ZetaOutOfRange) as exc:
        doc = {
            "schema_version": pipeline.REPORT_SCHEMA_VERSION,
            "scenario": model.name,
            "error": type(exc).__name__,
            "message": str(exc),
        }
        _emit(doc, args.out, f"{model.name}_construct")
        return EXIT_NOT_ADMISSIBLE
    _emit(doc, args.out, f"{model.name}_construct")
    if doc["validation"]["ok"]:
        return EXIT_OK
    # zeta leaving the admissible range means the drift to absorb exceeds
    # what the tail can carry: not admissible rather than a numeric failure
    if doc["validation"]["failures"]:
        return EXIT_NOT_ADMISSIBLE
    return EXIT_FAIL


def cmd_simulate(args) -> int:
    model = _load(args)
    doc = pipeline.run_simulate(
        model, args.out, n_paths=_effective_n(model, args), seed=args.seed
    )
    pipeline.dump_json(doc, sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    model = _load(args)
    doc = pipeline.run_verify(
        model, n_paths=_effective_n(model, args), seed=args.seed,
        workers=args.workers,
    )
    _emit(doc, args.out, f"{model.name}_verify")
    return EXIT_OK if doc["overall"] == "pass" else EXIT_FAIL


def cmd_report(args) -> int:
    """Summarize every *_verify.json report found under --out."""
    rows = []
    overall_ok = True
    for name in sorted(os.listdir(args.out)) if os.path.isdir(args.out) else []:
        if not name.endswith("_verify.json"):
            continue
        path = os.path.join(args.out, name)
        # no JSON (a ValueError, as is UnicodeError), no mapping, no key or
        # a value of another type
        try:
            with open(path) as fh:
                doc = json.load(fh)
            scenario, verdict = doc["scenario"], doc["overall"]
            reports = doc.get("reports", [])
            if not (isinstance(scenario, str) and isinstance(verdict, str)
                    and isinstance(reports, list)):
                raise TypeError("scenario and overall must be strings and "
                                "reports a list")
        except (OSError, ValueError, LookupError, TypeError) as exc:
            raise ConfigError(f"{path}: not a verify report: {exc!r}") from None
        rows.append((scenario, verdict, len(reports)))
        overall_ok = overall_ok and verdict == "pass"
    if not rows:
        print("no verification reports found in", args.out)
        return EXIT_CONFIG
    for scenario, verdict, n in rows:
        print(f"{scenario:40s} {verdict:6s} ({n} tests)")
    return EXIT_OK if overall_ok else EXIT_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error(f"argument --workers: must be at least 1, not {args.workers}")
    handler = {
        "check-kernel": cmd_check_kernel,
        "construct": cmd_construct,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "report": cmd_report,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LevyEmmError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE


if __name__ == "__main__":
    sys.exit(main())
