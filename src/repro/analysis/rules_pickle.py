"""Worker-boundary picklability rules (RPL2xx).

Everything submitted to the spawn-context ``ProcessPoolExecutor`` travels
by pickle, and the result cache's content-addressed run keys hash those
same pickle bytes (``repro.threshold.journal.compute_run_key``), so a
payload that pickles wrong either kills a worker (PR 5's ``Pauli``
``__slots__`` bug) or silently changes a run's cached identity (PR 7's
scratch-buffer leak).  These rules catch both classes at review time:

* RPL201 — ``__slots__`` without explicit pickle support.  Slots alone
  pickle fine, but the pattern in this codebase pairs slots with
  immutability guards or computed state, where the default
  protocol-2 path breaks on restore; an explicit
  ``__getstate__``/``__setstate__``/``__reduce__`` states the contract.
* RPL202 — lambdas / nested functions handed to ``submit``/``map``:
  spawn pickles callables by qualified name; only module-level functions
  survive the boundary.
* RPL203 — scratch-buffer and cached attributes (``_buffers``,
  ``_scratch*``, and any ``_*cache``/``_*caches``, such as a lazily built
  ``_table_cache``) accumulated on a class with no pickle hook to exclude
  them: the scratch travels in every worker payload and poisons the run
  key with whatever the object last executed.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic

__all__ = ["check"]

_PICKLE_HOOKS = {"__getstate__", "__setstate__", "__reduce__", "__reduce_ex__"}
_SCRATCH_ATTR = re.compile(r"^_(buffers?|scratch\w*|\w*caches?)$")
_EXECUTOR_METHODS = {"submit", "map"}


def _class_methods(cls: ast.ClassDef) -> set[str]:
    return {
        stmt.name
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _defines_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _scratch_assignments(cls: ast.ClassDef) -> list[tuple[str, ast.AST]]:
    """``self.<scratch>`` assignment targets anywhere in the class body."""
    found: list[tuple[str, ast.AST]] = []
    for node in ast.walk(cls):
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and _SCRATCH_ATTR.match(target.attr)
            ):
                found.append((target.attr, node))
    return found


class _SubmitVisitor(ast.NodeVisitor):
    """Tracks nested function names per scope to catch closures handed to
    ``submit``/``map`` by name as well as inline lambdas."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.diags: list[Diagnostic] = []
        self._nested_stack: list[set[str]] = []

    def _visit_function(self, node) -> None:
        nested = {
            stmt.name
            for stmt in ast.walk(node)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt is not node
        }
        self._nested_stack.append(nested)
        self.generic_visit(node)
        self._nested_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _EXECUTOR_METHODS
        ):
            nested = self._nested_stack[-1] if self._nested_stack else set()
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Lambda):
                    what = "a lambda"
                elif isinstance(arg, ast.Name) and arg.id in nested:
                    what = f"nested function {arg.id!r}"
                else:
                    continue
                self.diags.append(
                    Diagnostic(
                        "RPL202",
                        self.ctx.path,
                        node.lineno,
                        f"{what} passed to .{node.func.attr}() cannot cross "
                        f"the spawn pickle boundary; move it to module level",
                    )
                )
                break
        self.generic_visit(node)


def check(ctx) -> Iterator[Diagnostic]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = _class_methods(node)
        has_pickle_hook = bool(methods & _PICKLE_HOOKS)
        # RPL201 — __slots__ without explicit pickle support.
        if _defines_slots(node) and not has_pickle_hook:
            yield Diagnostic(
                "RPL201",
                ctx.path,
                node.lineno,
                f"class {node.name} defines __slots__ but no "
                f"__getstate__/__setstate__/__reduce__; worker payloads "
                f"carrying it can break at the pickle boundary",
            )
        # RPL203 — scratch or cached state with no pickle hook to exclude it.
        if not has_pickle_hook:
            scratch = _scratch_assignments(node)
            if scratch:
                attr, site = scratch[0]
                yield Diagnostic(
                    "RPL203",
                    ctx.path,
                    site.lineno,
                    f"class {node.name} accumulates scratch attribute "
                    f"'{attr}' but has no __getstate__/__reduce__ excluding it — "
                    f"scratch state leaks into worker pickles and "
                    f"content-addressed run keys",
                )
    visitor = _SubmitVisitor(ctx)
    visitor.visit(ctx.tree)
    yield from visitor.diags
