"""In-repo static analysis: the determinism/picklability/concurrency
linter and the packed-program verifier.

Two entry points:

* :func:`repro.analysis.linter.lint_paths` / ``python -m repro.analysis``
  — the AST linter (``RPL###`` rule catalog; a finding fails unless an
  inline suppression with a reason covers it); stdlib-``ast`` only and
  never imports the code it lints.
* :func:`repro.analysis.progcheck.verify_program` — the packed-program
  verifier :class:`repro.pauliframe.compiled.CompiledFrameProgram` runs
  over its own instruction stream at build time (opcode validity,
  operand bounds, fused-batch aliasing, noise-plane budgets,
  probability ranges).

See ``ANALYSIS.md`` at the repo root for the rule catalog and the
suppression syntax.

``progcheck`` names are re-exported lazily so importing the linter (CI,
pre-commit) never pulls numpy or the simulation engine.
"""

from __future__ import annotations

from repro.analysis.diagnostics import RULES, Diagnostic, Rule, iter_rules
from repro.analysis.linter import LintReport, collect_targets, lint_paths, lint_source

__all__ = [
    "Diagnostic",
    "LintReport",
    "RULES",
    "Rule",
    "collect_targets",
    "iter_rules",
    "lint_paths",
    "lint_source",
    # lazily re-exported from repro.analysis.progcheck:
    "BadOpcode",
    "BufferAliasError",
    "NoiseRangeError",
    "OperandRangeError",
    "ProgramVerificationError",
    "verify_program",
]

_PROGCHECK_NAMES = {
    "BadOpcode",
    "BufferAliasError",
    "NoiseRangeError",
    "OperandRangeError",
    "ProgramVerificationError",
    "verify_program",
}


def __getattr__(name: str):
    if name in _PROGCHECK_NAMES:
        from repro.analysis import progcheck

        return getattr(progcheck, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
