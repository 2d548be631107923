"""Diagnostic model, rule catalog, and suppression parsing for the linter.

Every finding the static-analysis pass can emit is an ``RPL###`` rule
(Repro Project Lint) registered here, grouped into three families:

* ``RPL1xx`` — **RNG discipline.**  Threshold claims are only credible if
  every Monte Carlo sample is reproducible, which the repo enforces by
  funnelling all randomness through seeded ``numpy`` Generators and
  ``SeedSequence.spawn`` child streams (never ``seed + i`` arithmetic,
  never hidden global state).
* ``RPL2xx`` — **worker-boundary picklability.**  Everything the sharded
  driver ships to a spawn-context worker travels by pickle, and the
  result cache hashes those same pickle bytes into content-addressed run
  keys — so unpicklable payloads break workers and leaked scratch state
  breaks cache identity.
* ``RPL3xx`` — **concurrency / resource hygiene.**  Spawn-context pools,
  process-local sqlite handles, observable fault handling, and
  time-independent cache keys are the invariants PR 5–7 bled for.

The packed-program verifier (``repro.analysis.progcheck``) is the fourth
leg of the pass; it checks compiled instruction streams rather than
source text and therefore lives outside the rule registry.

Suppression syntax
------------------
A diagnostic is suppressed by a comment on the flagged line (or on a
comment-only line directly above it), the only way a finding passes the
lint::

    pool.shutdown(wait=False)  # repro: disable=RPL303 -- workers reaped below

Multiple rules separate with commas (``disable=RPL303,RPL304``); the
``-- reason`` tail is optional but expected — reviewers treat a bare
suppression like a bare ``except``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "Diagnostic",
    "RULES",
    "Rule",
    "iter_rules",
    "parse_suppressions",
]


@dataclass(frozen=True)
class Rule:
    """One entry of the RPL catalog."""

    code: str
    family: str
    summary: str


# The catalog.  Adding a rule means: register it here, implement it in the
# matching ``rules_*`` module, add a firing + quiet fixture pair to
# ``tests/test_analysis_linter.py``, and document it in ANALYSIS.md.
RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        # -- RNG discipline ------------------------------------------------
        Rule(
            "RPL101",
            "rng",
            "call to a legacy global numpy RNG function (np.random.seed/"
            "rand/...) — hidden global state breaks shard determinism",
        ),
        Rule(
            "RPL102",
            "rng",
            "unseeded default_rng() outside repro.util.rng — OS entropy "
            "makes the result irreproducible and its run key unmatchable",
        ),
        Rule(
            "RPL103",
            "rng",
            "seed arithmetic (seed + i / seed * k) feeding a generator — "
            "derived streams collide across runs; use SeedSequence.spawn",
        ),
        Rule(
            "RPL104",
            "rng",
            "stdlib random used — it is globally seeded and draws outside "
            "the numpy stream accounting",
        ),
        # -- worker-boundary picklability ----------------------------------
        Rule(
            "RPL201",
            "pickle",
            "class defines __slots__ but no __getstate__/__setstate__/"
            "__reduce__ — slots plus guards (immutability, properties) "
            "break the default pickle path at the worker boundary",
        ),
        Rule(
            "RPL202",
            "pickle",
            "lambda or nested function submitted to an executor — spawn "
            "workers pickle tasks by qualified name; only module-level "
            "callables survive the boundary",
        ),
        Rule(
            "RPL203",
            "pickle",
            "class accumulates scratch buffers or cached state (self._buffers/"
            "_scratch*/_*cache) without a __getstate__/__reduce__ excluding "
            "them — scratch leaks into worker payloads and content-addressed "
            "run keys",
        ),
        # -- concurrency / resource hygiene --------------------------------
        Rule(
            "RPL301",
            "concurrency",
            "class holds a sqlite3 connection but defines no __getstate__/"
            "__reduce__ — connections are process-local and must fail "
            "loudly, not pickle silently, at a process boundary",
        ),
        Rule(
            "RPL302",
            "concurrency",
            "process pool without an explicit spawn context — fork "
            "inherits locks, RNG state, and sqlite handles mid-flight",
        ),
        Rule(
            "RPL303",
            "concurrency",
            "shutdown(wait=False) — abandoned workers leak semaphore "
            "trackers unless something else reaps them (suppress with a "
            "reason where reaping is handled)",
        ),
        Rule(
            "RPL304",
            "concurrency",
            "except Exception/BaseException that silently swallows (body "
            "is only pass/continue/return) — faults must be narrowed, "
            "re-raised, or surfaced via warnings.warn",
        ),
        Rule(
            "RPL305",
            "concurrency",
            "wall-clock time (time.time/datetime.now) flowing into key/"
            "hash/fingerprint computation — cache keys must be "
            "time-independent to ever hit",
        ),
    )
}


def iter_rules() -> list[Rule]:
    """Catalog in code order (the ANALYSIS.md table is generated by eye
    from this)."""
    return [RULES[code] for code in sorted(RULES)]


@dataclass
class Diagnostic:
    """One finding: a rule fired at ``path:line``.  ``suppressed`` marks a
    finding an inline ``# repro: disable=`` comment covers; any other
    finding fails the lint."""

    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = field(default=False, compare=False)

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*disable=([A-Z0-9,\s]+?)(?:\s*--.*)?$"
)


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map of 1-based line number -> rule codes suppressed on that line.

    A suppression on a comment-only line also covers the next line, so a
    long statement can carry its suppression above itself.
    """
    suppressions: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
        suppressions.setdefault(lineno, set()).update(codes)
        if text.lstrip().startswith("#"):
            suppressions.setdefault(lineno + 1, set()).update(codes)
    return suppressions
