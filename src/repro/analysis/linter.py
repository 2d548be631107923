"""Driver for the AST linter: file collection and profiles.

Stdlib-``ast`` only — the pass must run in CI before anything heavier
than ``python`` itself is guaranteed, and it must never import the code
it lints (a module with a module-level ``default_rng()`` call would
otherwise draw entropy just to be inspected).

Profiles
--------
* ``"src"`` — the full rule catalog; applied to everything outside
  ``tests/``: ``src/``, ``examples/``, ``scripts/``, ``benchmarks/`` and
  the repo-root driver scripts.
* ``"tests"`` — the RNG family only (RPL101–RPL104): tests legitimately
  poke pickling and concurrency internals, but a test drawing unseeded
  randomness is flaky *by construction* and may not land.

Every finding fails the run unless an inline
``# repro: disable=RPL### -- reason`` covers it; new code lands clean or
carries its suppression with a reason.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.analysis import rules_concurrency, rules_pickle, rules_rng
from repro.analysis.diagnostics import Diagnostic, parse_suppressions

__all__ = [
    "FileContext",
    "LintReport",
    "PROFILES",
    "collect_targets",
    "lint_paths",
    "lint_source",
]

_RULE_MODULES = (rules_rng, rules_pickle, rules_concurrency)

# Rule families active per profile.  ``None`` means "every rule".
PROFILES: dict[str, frozenset[str] | None] = {
    "src": None,
    "tests": frozenset({"RPL101", "RPL102", "RPL103", "RPL104"}),
}


@dataclass
class FileContext:
    """Everything a rule module needs about one file under analysis."""

    path: str  # repo-relative, what diagnostics report
    tree: ast.Module


@dataclass
class LintReport:
    """Outcome of a lint run, split by inline suppression."""

    findings: list[Diagnostic]  # actionable: not suppressed
    suppressed: list[Diagnostic]
    files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def lint_source(
    source: str, path: str = "<string>", profile: str = "src"
) -> list[Diagnostic]:
    """Lint one source blob; suppressed findings are flagged, not dropped."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; use one of {sorted(PROFILES)}")
    ctx = FileContext(path=path, tree=ast.parse(source, filename=path))
    suppressions = parse_suppressions(source)
    active = PROFILES[profile]
    diags: list[Diagnostic] = []
    for module in _RULE_MODULES:
        for diag in module.check(ctx):
            if active is not None and diag.rule not in active:
                continue
            covered = suppressions.get(diag.line, set())
            if diag.rule in covered or "*" in covered:
                diag.suppressed = True
            diags.append(diag)
    diags.sort(key=lambda d: (d.line, d.rule))
    return diags


def collect_targets(root: Path) -> list[tuple[Path, str]]:
    """(file, profile) pairs for the repo layout this project uses."""
    root = Path(root)
    targets: list[tuple[Path, str]] = []
    for base in ("src", "scripts", "benchmarks", "examples", "tests"):
        directory = root / base
        if directory.is_dir():
            profile = "tests" if base == "tests" else "src"
            targets.extend(
                (path, profile) for path in sorted(directory.rglob("*.py"))
            )
    for name in ("scripts_run_full.py", "setup.py"):
        path = root / name
        if path.is_file():
            targets.append((path, "src"))
    return targets


def lint_paths(
    root: Path,
    paths: list[Path] | None = None,
    profile_override: str | None = None,
) -> LintReport:
    """Lint the repo (or explicit ``paths``) and split off what inline
    suppressions cover."""
    root = Path(root)
    if paths:
        targets = [
            (p, profile_override or _infer_profile(root, p)) for p in paths
        ]
    else:
        targets = collect_targets(root)
        if profile_override is not None:
            targets = [(p, profile_override) for p, _ in targets]
    all_diags: list[Diagnostic] = []
    for path, profile in targets:
        try:
            rel = str(path.resolve().relative_to(root.resolve()))
        except ValueError:
            rel = str(path)
        all_diags.extend(lint_source(path.read_text(), rel, profile))
    return LintReport(
        findings=[d for d in all_diags if not d.suppressed],
        suppressed=[d for d in all_diags if d.suppressed],
        files=len(targets),
    )


def _infer_profile(root: Path, path: Path) -> str:
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        return "src"
    return "tests" if rel.parts and rel.parts[0] == "tests" else "src"
