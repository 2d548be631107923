"""RNG-discipline rules (RPL1xx).

The determinism contract (see ``repro.threshold.sharded``): every draw
comes from a seeded :class:`numpy.random.Generator`, independent streams
come only from ``SeedSequence.spawn``, and nothing touches process-global
RNG state.  These rules make the contract machine-checked:

* RPL101 — legacy global ``np.random.*`` calls (``seed``, ``rand``, ...)
  mutate or read the hidden global ``RandomState``; one call anywhere
  de-synchronizes every shard that shares the process.
* RPL102 — ``default_rng()`` with no/``None`` seed draws OS entropy; the
  result can never be reproduced and its content-addressed run key never
  matches a previous run.  ``repro.util.rng`` is the one sanctioned
  funnel for deliberate OS entropy.
* RPL103 — ``seed + i`` / ``seed * k`` arithmetic feeding a generator
  recreates the PR 5 stream-collision bug (run ``s`` point ``i`` reused
  run ``s+1`` point ``i−1``); child streams come from ``spawn``.
* RPL104 — stdlib ``random`` is globally seeded and invisible to the
  numpy stream accounting.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic

__all__ = ["check"]

# Factories/types on np.random that do not touch the legacy global state.
_ALLOWED_NP_RANDOM_ATTRS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

# Callables that consume a seed / seed sequence; arithmetic inside their
# arguments is how stream collisions are born.
_SEED_CONSUMERS = {"default_rng", "SeedSequence", "as_rng"}

# Files allowed to call default_rng() unseeded: the sanctioned entropy
# funnel, matched on the trailing path segments.
_UNSEEDED_ALLOWED = ("repro/util/rng.py",)


def _attr_chain(node: ast.AST) -> list[str]:
    """``np.random.default_rng`` -> ["np", "random", "default_rng"]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        return []
    return parts[::-1]


def _is_np_random(chain: list[str]) -> bool:
    return len(chain) >= 2 and chain[0] in ("np", "numpy") and chain[1] == "random"


def _names_a_seed(node: ast.AST) -> bool:
    """True for a Name/Attribute whose identifier smells like a seed."""
    if isinstance(node, ast.Name):
        return "seed" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "seed" in node.attr.lower()
    return False


def _seed_arithmetic(node: ast.AST) -> ast.BinOp | None:
    """First +/-/* BinOp in ``node``'s subtree with a seed-named operand."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.BinOp) and isinstance(
            sub.op, (ast.Add, ast.Sub, ast.Mult)
        ):
            if _names_a_seed(sub.left) or _names_a_seed(sub.right):
                return sub
    return None


def check(ctx) -> Iterator[Diagnostic]:
    for node in ast.walk(ctx.tree):
        # RPL104 — stdlib random.
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield Diagnostic(
                        "RPL104",
                        ctx.path,
                        node.lineno,
                        "stdlib 'random' is globally seeded; use a seeded "
                        "numpy Generator via repro.util.rng.as_rng",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield Diagnostic(
                    "RPL104",
                    ctx.path,
                    node.lineno,
                    "stdlib 'random' is globally seeded; use a seeded "
                    "numpy Generator via repro.util.rng.as_rng",
                )
            elif node.module in ("numpy.random", "numpy"):
                for alias in node.names:
                    if (
                        node.module == "numpy.random"
                        and alias.name not in _ALLOWED_NP_RANDOM_ATTRS
                    ):
                        yield Diagnostic(
                            "RPL101",
                            ctx.path,
                            node.lineno,
                            f"'from numpy.random import {alias.name}' pulls "
                            f"a legacy global-state RNG function",
                        )
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        # RPL101 — np.random.<legacy>() calls.
        if (
            _is_np_random(chain)
            and len(chain) == 3
            and chain[2] not in _ALLOWED_NP_RANDOM_ATTRS
        ):
            yield Diagnostic(
                "RPL101",
                ctx.path,
                node.lineno,
                f"np.random.{chain[2]}() uses the hidden global RandomState; "
                f"draw from a seeded Generator instead",
            )
            continue
        callee = chain[-1] if chain else ""
        # RPL102 — unseeded default_rng().
        if callee == "default_rng" and (len(chain) == 1 or _is_np_random(chain)):
            unseeded = not node.args and not node.keywords
            if node.args and isinstance(node.args[0], ast.Constant):
                unseeded = unseeded or node.args[0].value is None
            if unseeded and not ctx.path.replace("\\", "/").endswith(
                _UNSEEDED_ALLOWED
            ):
                yield Diagnostic(
                    "RPL102",
                    ctx.path,
                    node.lineno,
                    "default_rng() without a seed draws OS entropy — the "
                    "run is irreproducible and its run key never matches; "
                    "pass a seed or SeedSequence",
                )
        # RPL103 — seed arithmetic feeding a generator.
        if callee in _SEED_CONSUMERS and (len(chain) == 1 or _is_np_random(chain)):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                bad = _seed_arithmetic(arg)
                if bad is not None:
                    yield Diagnostic(
                        "RPL103",
                        ctx.path,
                        bad.lineno,
                        f"seed arithmetic feeding {callee}() — derived "
                        f"streams collide across runs; spawn child streams "
                        f"via SeedSequence.spawn "
                        f"(repro.threshold.sharded.spawn_shard_seeds)",
                    )
                    break
