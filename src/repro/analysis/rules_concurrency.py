"""Concurrency / resource-hygiene rules (RPL3xx).

The resilient runtime (PR 6/7) survives worker crashes, hangs, and
storage faults precisely because its resources follow strict rules:
pools are spawn-context and always reaped, sqlite handles never cross a
process boundary, swallowed faults always leave a structured warning
behind, and cache keys contain no wall-clock time.  These rules keep the
next PR from quietly eroding any of that:

* RPL301 — a class holding a ``sqlite3.connect(...)`` handle without
  ``__getstate__``/``__reduce__``: connections are process-local; an
  accidental trip through the worker-payload pickle must fail loudly at
  pickle time, not deep inside a worker.
* RPL302 — process pools without an explicit spawn context (and
  fork/forkserver contexts): fork inherits locks, RNG state, and sqlite
  handles mid-flight — the exact states the runtime works to isolate.
* RPL303 — ``shutdown(wait=False)``: abandoned workers leak semaphore
  trackers and ``ResourceWarning`` at interpreter exit unless something
  else reaps them; sites that do reap suppress with a reason.
* RPL304 — ``except Exception/BaseException`` whose body only
  passes/continues/returns: a fault nobody can observe.  Narrow the
  type, re-raise, or ``warnings.warn`` (see the PR 6/7 degradation
  pattern — swallowing is fine, *silent* swallowing is not).
* RPL305 — ``time.time()``/``datetime.now()`` inside key/hash/
  fingerprint/checksum computation: content-addressed cache keys must be
  time-independent or they never hit.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic

__all__ = ["check"]

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}
_KEYISH_NAME = re.compile(r"(key|hash|fingerprint|digest|checksum)", re.IGNORECASE)
_WALL_CLOCK_CHAINS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}


def _attr_chain(node: ast.AST) -> list[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        return []
    return parts[::-1]


def _has_pickle_hook(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name in {"__getstate__", "__setstate__", "__reduce__", "__reduce_ex__"}
        for stmt in cls.body
    )


def _is_wall_clock_call(node: ast.Call) -> bool:
    chain = _attr_chain(node.func)
    return len(chain) >= 2 and tuple(chain[-2:]) in _WALL_CLOCK_CHAINS


def _broad_handler(handler: ast.ExceptHandler) -> bool:
    """Bare ``except:``, ``except Exception``, or a tuple containing one."""
    if handler.type is None:
        return True
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    for t in types:
        chain = _attr_chain(t)
        if chain and chain[-1] in _BROAD_EXCEPTIONS:
            return True
    return False


def _silently_swallows(handler: ast.ExceptHandler) -> bool:
    """True when nothing in the handler body could surface the fault —
    no raise, no call (warn/log/cleanup), only pass/continue/return."""
    for stmt in handler.body:
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.Raise, ast.Call)):
                return False
    return True


class _Visitor(ast.NodeVisitor):
    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.diags: list[Diagnostic] = []
        self._func_stack: list[str] = []
        self._class_stack: list[ast.ClassDef] = []

    # -- scope tracking -------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- RPL304 ---------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if _broad_handler(node) and _silently_swallows(node):
            self.diags.append(
                Diagnostic(
                    "RPL304",
                    self.ctx.path,
                    node.lineno,
                    "broad except silently swallows the fault; narrow the "
                    "exception type, re-raise, or emit warnings.warn so the "
                    "failure stays observable",
                )
            )
        self.generic_visit(node)

    # -- call-shaped rules ---------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        callee = chain[-1] if chain else ""

        # RPL301 — sqlite3.connect inside a class with no pickle hook.
        if chain[-2:] == ["sqlite3", "connect"] and self._class_stack:
            cls = self._class_stack[-1]
            if not _has_pickle_hook(cls):
                self.diags.append(
                    Diagnostic(
                        "RPL301",
                        self.ctx.path,
                        node.lineno,
                        f"class {cls.name} opens a sqlite3 connection but "
                        f"defines no __getstate__/__reduce__; connections "
                        f"are process-local and must refuse to pickle "
                        f"explicitly rather than ship a dead handle",
                    )
                )

        # RPL302 — non-spawn pools.
        if callee == "ProcessPoolExecutor":
            if not any(kw.arg == "mp_context" for kw in node.keywords):
                self.diags.append(
                    Diagnostic(
                        "RPL302",
                        self.ctx.path,
                        node.lineno,
                        "ProcessPoolExecutor without mp_context= uses the "
                        "platform default start method (fork on Linux); "
                        "pass multiprocessing.get_context('spawn')",
                    )
                )
        elif callee == "get_context":
            arg = node.args[0] if node.args else None
            if arg is None or (
                isinstance(arg, ast.Constant) and arg.value in ("fork", "forkserver")
            ):
                ctx_name = (
                    repr(arg.value) if isinstance(arg, ast.Constant) else "the default"
                )
                self.diags.append(
                    Diagnostic(
                        "RPL302",
                        self.ctx.path,
                        node.lineno,
                        f"get_context({ctx_name if arg is not None else ''}) "
                        f"is not spawn; forked children inherit locks, RNG "
                        f"state, and sqlite handles mid-flight",
                    )
                )
        elif chain[-2:] == ["multiprocessing", "Pool"]:
            self.diags.append(
                Diagnostic(
                    "RPL302",
                    self.ctx.path,
                    node.lineno,
                    "multiprocessing.Pool() uses the platform default start "
                    "method; use a spawn-context ProcessPoolExecutor",
                )
            )

        # RPL303 — shutdown(wait=False).
        if callee == "shutdown":
            for kw in node.keywords:
                if (
                    kw.arg == "wait"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False
                ):
                    self.diags.append(
                        Diagnostic(
                            "RPL303",
                            self.ctx.path,
                            node.lineno,
                            "shutdown(wait=False) abandons live workers; "
                            "reap them (join/terminate with a budget) or "
                            "suppress with the reason they are reaped "
                            "elsewhere",
                        )
                    )

        # RPL305 — wall clock inside key/hash computation.
        if _is_wall_clock_call(node):
            enclosing = next(
                (name for name in reversed(self._func_stack) if _KEYISH_NAME.search(name)),
                None,
            )
            if enclosing is not None:
                self.diags.append(
                    Diagnostic(
                        "RPL305",
                        self.ctx.path,
                        node.lineno,
                        f"wall-clock time inside {enclosing}(): content-"
                        f"addressed keys must be time-independent or the "
                        f"cache never hits",
                    )
                )
        elif (
            callee
            and _KEYISH_NAME.search(callee)
            and not any(_KEYISH_NAME.search(n) for n in self._func_stack)
        ):
            # time.time() passed directly into a key/hash computation —
            # only when the enclosing-function branch above won't already
            # report the same wall-clock call.
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Call) and _is_wall_clock_call(sub):
                        self.diags.append(
                            Diagnostic(
                                "RPL305",
                                self.ctx.path,
                                sub.lineno,
                                f"wall-clock time passed into {callee}(): "
                                f"content-addressed keys must be "
                                f"time-independent or the cache never hits",
                            )
                        )
                        break

        self.generic_visit(node)


def check(ctx) -> Iterator[Diagnostic]:
    visitor = _Visitor(ctx)
    visitor.visit(ctx.tree)
    yield from visitor.diags
