"""CLI for the static-analysis pass.

Usage (from the repo root)::

    python -m repro.analysis                     # lint the repo layout
    python -m repro.analysis --list-rules
    python -m repro.analysis --verify-programs   # packed-program verifier
    python -m repro.analysis path/to/file.py --profile tests

Exit codes: 0 clean, 1 any finding no inline suppression covers, 2
usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.diagnostics import iter_rules
from repro.analysis.linter import lint_paths


def _find_root(start: Path) -> Path:
    """Nearest ancestor that looks like the repo root (has src/repro);
    falls back to the package's own checkout layout."""
    for candidate in [start, *start.parents]:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return Path(__file__).resolve().parents[3]


def _verify_shipped_programs() -> int:
    """Compile every shipped EC protocol's programs; the build-time
    verifier raises on any invalid stream, so success == all clean."""
    from repro.codes.shor9 import ShorNineCode
    from repro.codes.steane import SteaneCode
    from repro.ft.exrec import ShorECProtocol, SteaneECProtocol
    from repro.noise.models import circuit_level

    noise = circuit_level(1e-3)
    built = []
    SteaneECProtocol(noise)
    built.append("SteaneECProtocol(factory+extraction)")
    ShorECProtocol(SteaneCode(), noise)
    built.append("ShorECProtocol[Steane](factory+extraction)")
    ShorECProtocol(ShorNineCode(), noise)
    built.append("ShorECProtocol[Shor9](factory+extraction)")
    for name in built:
        print(f"verified: {name}")
    print(f"{len(built)} protocol program sets verified clean")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files to lint (default: the whole repo layout)",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repo root (default: auto-detected from cwd)",
    )
    parser.add_argument(
        "--profile", choices=("auto", "src", "tests"), default="auto",
        help="rule profile (default: auto — tests/ relaxed, all else strict)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the RPL catalog and exit"
    )
    parser.add_argument(
        "--verify-programs", action="store_true",
        help="build every shipped protocol's compiled programs and run the "
        "packed-program verifier over them",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in iter_rules():
            print(f"{rule.code}  [{rule.family:>11}]  {rule.summary}")
        return 0
    if args.verify_programs:
        return _verify_shipped_programs()

    root = (args.root or _find_root(Path.cwd())).resolve()
    profile = None if args.profile == "auto" else args.profile
    try:
        report = lint_paths(root, paths=args.paths or None, profile_override=profile)
    except (OSError, SyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(
            json.dumps(
                {
                    "files": report.files,
                    "findings": [d.__dict__ for d in report.findings],
                    "suppressed": len(report.suppressed),
                },
                indent=1,
            )
        )
    else:
        for diag in report.findings:
            print(diag.format())
        print(
            f"{report.files} file(s): {len(report.findings)} finding(s), "
            f"{len(report.suppressed)} suppressed"
        )
    return 1 if report.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
