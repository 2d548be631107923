"""Driver for the AST linter: file collection, profiles, baseline.

Stdlib-``ast`` only — the pass must run in CI before anything heavier
than ``python`` itself is guaranteed, and it must never import the code
it lints (a module with a module-level ``default_rng()`` call would
otherwise draw entropy just to be inspected).

Profiles
--------
* ``"src"`` — the full rule catalog; applied to ``src/`` and
  ``examples/``.
* ``"tools"`` — ``scripts/``, ``benchmarks/``, and the repo-root driver
  scripts; currently the full catalog under its own name so tool-only
  relaxations have a home.
* ``"tests"`` — the RNG family only (RPL101–RPL104): tests legitimately
  poke pickling and concurrency internals, but a test drawing unseeded
  randomness is flaky *by construction* and may not land.

Baseline workflow
-----------------
``.analysis_baseline.json`` holds the findings the repo has explicitly
decided to live with, keyed by ``(path, rule, stripped source line)`` so
edits elsewhere in a file cannot resurrect or orphan an entry.  The
linter fails on any finding not in the baseline; ``--write-baseline``
regenerates the file from the current findings (carrying forward each
surviving entry's ``reason``).  CI pins the entry count, so the baseline
can only shrink — new code must be clean or carry an inline suppression
with a reason.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis import rules_concurrency, rules_pickle, rules_rng
from repro.analysis.diagnostics import Diagnostic, parse_suppressions

__all__ = [
    "BASELINE_NAME",
    "FileContext",
    "LintReport",
    "PROFILES",
    "collect_targets",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "write_baseline",
]

BASELINE_NAME = ".analysis_baseline.json"

_RULE_MODULES = (rules_rng, rules_pickle, rules_concurrency)

# Rule families active per profile.  ``None`` means "every rule".
# ``tools`` (scripts/, benchmarks/, the repo-root drivers) currently
# carries the full catalog like ``src`` — it exists as its own name so
# tool-only relaxations or additions have a home without touching the
# library profile.
PROFILES: dict[str, frozenset[str] | None] = {
    "src": None,
    "tools": None,
    "tests": frozenset({"RPL101", "RPL102", "RPL103", "RPL104"}),
}


@dataclass
class FileContext:
    """Everything a rule module needs about one file under analysis."""

    path: str  # repo-relative, what diagnostics report
    tree: ast.Module
    source: str
    lines: list[str]
    profile: str
    suppressions: dict[int, set[str]] = field(default_factory=dict)


@dataclass
class LintReport:
    """Outcome of a lint run after suppression + baseline filtering."""

    findings: list[Diagnostic]  # actionable (not suppressed, not baselined)
    baselined: list[Diagnostic]
    suppressed: list[Diagnostic]
    stale_baseline: list[dict]  # baseline entries matching nothing anymore
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
    tree = ast.parse(source, filename=path)
    ctx = FileContext(
        path=path,
        tree=tree,
        source=source,
        lines=source.splitlines(),
        profile=profile,
        suppressions=parse_suppressions(source),
    )
    active = PROFILES[profile]
    diags: list[Diagnostic] = []
    for module in _RULE_MODULES:
        for diag in module.check(ctx):
            if active is not None and diag.rule not in active:
                continue
            covered = ctx.suppressions.get(diag.line, set())
            if diag.rule in covered or "*" in covered:
                diag.suppressed = True
            diags.append(diag)
    diags.sort(key=lambda d: (d.line, d.rule))
    return diags


def collect_targets(root: Path) -> list[tuple[Path, str]]:
    """(file, profile) pairs for the repo layout this project uses."""
    root = Path(root)
    targets: list[tuple[Path, str]] = []
    for base, profile in (
        ("src", "src"),
        ("scripts", "tools"),
        ("benchmarks", "tools"),
        ("examples", "src"),
        ("tests", "tests"),
    ):
        directory = root / base
        if directory.is_dir():
            targets.extend(
                (path, profile) for path in sorted(directory.rglob("*.py"))
            )
    for name in ("scripts_run_full.py", "setup.py"):
        path = root / name
        if path.is_file():
            targets.append((path, "tools"))
    return targets


# ----------------------------------------------------------------------
# Baseline.
# ----------------------------------------------------------------------
def load_baseline(path: Path) -> list[dict]:
    """Entries of the committed baseline (empty when the file is absent)."""
    path = Path(path)
    if not path.is_file():
        return []
    data = json.loads(path.read_text())
    entries = data.get("entries", [])
    for entry in entries:
        for key in ("path", "rule", "snippet"):
            if key not in entry:
                raise ValueError(
                    f"baseline entry {entry!r} lacks required key {key!r}"
                )
    return entries


def write_baseline(
    path: Path,
    diags: Iterable[Diagnostic],
    old: list[dict],
    default_reason: str | None = None,
) -> list[dict]:
    """Regenerate the baseline from current findings, carrying forward the
    ``reason`` of every entry that still matches.

    Entries *new* to the baseline need a justification: ``default_reason``
    is recorded for them, and when it is ``None`` the write is refused
    (``ValueError`` listing the unjustified entries).  A baseline row
    without a reason reads like a bare ``except`` — and the old behavior
    of stamping a literal "TODO: justify or fix" just committed the TODO
    forever.
    """
    reasons = {(e["path"], e["rule"], e["snippet"]): e.get("reason", "") for e in old}
    diags = list(diags)
    new = [d for d in diags if d.key() not in reasons]
    if new and default_reason is None:
        listing = "\n".join(f"  {d.path}:{d.line}: {d.rule}: {d.snippet!r}" for d in new)
        raise ValueError(
            f"{len(new)} new baseline entr(y/ies) lack a justification:\n"
            f"{listing}\n"
            f"pass a reason (CLI: --reason TEXT) or fix/suppress the "
            f"finding(s) instead — baselines only carry explained debt"
        )
    entries = [
        {
            "path": d.path,
            "rule": d.rule,
            "line": d.line,
            "snippet": d.snippet,
            "reason": reasons.get(d.key(), default_reason),
        }
        for d in diags
    ]
    payload = {
        "comment": (
            "Findings the repo explicitly lives with; matched on "
            "(path, rule, snippet), not line numbers.  May only shrink — "
            "CI pins the entry count.  See ANALYSIS.md."
        ),
        "entries": entries,
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")
    return entries


def lint_paths(
    root: Path,
    paths: list[Path] | None = None,
    baseline_path: Path | None = None,
    profile_override: str | None = None,
) -> LintReport:
    """Lint the repo (or explicit ``paths``) and reconcile with the baseline."""
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

    baseline = load_baseline(
        baseline_path if baseline_path is not None else root / BASELINE_NAME
    )
    baseline_keys = {(e["path"], e["rule"], e["snippet"]) for e in baseline}
    matched_keys: set[tuple] = set()
    findings: list[Diagnostic] = []
    baselined: list[Diagnostic] = []
    suppressed: list[Diagnostic] = []
    for diag in all_diags:
        if diag.suppressed:
            suppressed.append(diag)
        elif diag.key() in baseline_keys:
            matched_keys.add(diag.key())
            baselined.append(diag)
        else:
            findings.append(diag)
    stale = [
        e
        for e in baseline
        if (e["path"], e["rule"], e["snippet"]) not in matched_keys
    ]
    return LintReport(
        findings=findings,
        baselined=baselined,
        suppressed=suppressed,
        stale_baseline=stale,
        files=len(targets),
    )


def _infer_profile(root: Path, path: Path) -> str:
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        return "src"
    if rel.parts and rel.parts[0] == "tests":
        return "tests"
    if rel.parts and rel.parts[0] in ("scripts", "benchmarks"):
        return "tools"
    if len(rel.parts) == 1 and rel.parts[0] in ("scripts_run_full.py", "setup.py"):
        return "tools"
    return "src"
