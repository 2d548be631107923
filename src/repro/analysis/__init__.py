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

Every name is re-exported lazily, from the module that defines it, so
importing the linter (CI, pre-commit) never pulls numpy or the simulation
engine, and a process that only verifies programs (every spawned Monte
Carlo worker) never loads the linter or its rule catalog.
"""

from __future__ import annotations

import importlib

__all__ = [
    "Diagnostic",
    "LintReport",
    "RULES",
    "Rule",
    "collect_targets",
    "iter_rules",
    "lint_paths",
    "lint_source",
    "BadOpcode",
    "BufferAliasError",
    "NoiseRangeError",
    "OperandRangeError",
    "ProgramVerificationError",
    "verify_program",
]

# Each exported name -> the submodule that defines it.
_HOME = {
    **dict.fromkeys(("Diagnostic", "RULES", "Rule", "iter_rules"), "diagnostics"),
    **dict.fromkeys(("LintReport", "collect_targets", "lint_paths", "lint_source"), "linter"),
    **dict.fromkeys(
        (
            "BadOpcode",
            "BufferAliasError",
            "NoiseRangeError",
            "OperandRangeError",
            "ProgramVerificationError",
            "verify_program",
        ),
        "progcheck",
    ),
}


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"repro.analysis.{home}"), name)
