"""Command-line front end: one subcommand per experiment kind plus `all`.

Exit codes: 0 pass, 1 threshold fail, 2 invalid input, 3 runtime failure.
A laboratory error carries its code as `MkdvLabError.exit_code`; ValueError,
KeyError, TypeError, OSError and YAML errors are invalid input, and any other
exception is a runtime failure.  Failures print one line, never a traceback.
"""

from __future__ import annotations

import argparse
import sys

import yaml

from .errors import MkdvLabError
from .lab import EXPERIMENT_KINDS, parse_scenario, run_experiment

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_RUNTIME = 3


def _slot(node, part: str, key: str):
    """Index that one dotted-path part addresses in a mapping or a list."""
    if isinstance(node, dict):
        return part
    if isinstance(node, list) and part.isdecimal() and int(part) < len(node):
        return int(part)
    raise ValueError(f"override {key!r}: {part!r} does not address a {type(node).__name__}")


def _apply_overrides(text: str, overrides: list[str]) -> str:
    """Apply dotted-path key=value overrides to the raw scenario document.

    Numeric parts index into lists; a path through a scalar or past the end
    of a list is invalid input.
    """
    doc = yaml.safe_load(text)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override must look like key=value, got {item!r}")
        key, _, raw = item.partition("=")
        *path, last = key.split(".")
        node = doc
        for part in path:
            i = _slot(node, part, key)
            node = node.setdefault(i, {}) if isinstance(node, dict) else node[i]
        node[_slot(node, last, key)] = yaml.safe_load(raw)
    return yaml.safe_dump(doc)


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, MkdvLabError):
        return exc.exit_code
    if isinstance(exc, (ValueError, KeyError, TypeError, OSError, yaml.YAMLError)):
        return EXIT_INVALID
    return EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkdvlab",
        description="Numerical laboratory for multi-soliton/breather dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS + ("all",):
        p = sub.add_parser(kind, help=f"run the {kind} experiment(s)")
        p.add_argument("--scenario", required=True, help="path to the scenario YAML file")
        p.add_argument("--out", default=None, help="output directory for artifacts")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="K=V",
            help="override a scenario field (dotted path), e.g. evolution.dt=1e-3",
        )
    return parser


def _report_failure(exc: Exception, where: str = "") -> int:
    """Print the one-line message for a failure and return its exit code."""
    code = _exit_code(exc)
    label = "invalid input" if code == EXIT_INVALID else "runtime failure"
    message = " ".join(str(exc).split()) or type(exc).__name__
    print(f"{where}{label}: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run the requested kinds and return the largest exit code among them.

    A scenario that does not parse stops before any kind runs; under `all`, a
    kind that fails is reported and the remaining kinds still run.
    """
    args = build_parser().parse_args(argv)
    kinds = EXPERIMENT_KINDS if args.command == "all" else (args.command,)
    try:
        with open(args.scenario) as f:
            text = f.read()
        if args.override:
            text = _apply_overrides(text, args.override)
        scenario = parse_scenario(text)
    except Exception as exc:
        return _report_failure(exc)
    worst = EXIT_PASS
    for kind in kinds:
        try:
            report = run_experiment(scenario, kind, out_dir=args.out)
        except Exception as exc:
            worst = max(worst, _report_failure(exc, f"{kind}: "))
            continue
        print(f"{kind}: {'PASS' if report.passed else 'FAIL'}")
        if not report.passed:
            worst = max(worst, EXIT_FAIL)
    return worst


if __name__ == "__main__":
    sys.exit(main())
