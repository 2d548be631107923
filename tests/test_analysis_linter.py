"""Fixture tests for the RPL linter: every rule fires on a minimal
violating snippet and stays quiet on the compliant rewrite, suppressions
behave as documented, and the repo itself lints clean.

The linter runs on source text only (``lint_source``) — nothing here
imports the code under analysis.
"""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis.diagnostics import RULES, parse_suppressions
from repro.analysis.linter import collect_targets, lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parents[1]


def codes(diags, include_suppressed=False):
    return [
        d.rule for d in diags if include_suppressed or not d.suppressed
    ]


def lint(snippet: str, path: str = "src/repro/mod.py", profile: str = "src"):
    return lint_source(textwrap.dedent(snippet), path, profile)


# ----------------------------------------------------------------------
# RNG family (RPL1xx).
# ----------------------------------------------------------------------
class TestRngRules:
    def test_rpl101_global_np_random_fires(self):
        fired = lint(
            """
            import numpy as np

            def draw(n):
                np.random.seed(0)
                return np.random.rand(n)
            """
        )
        assert codes(fired) == ["RPL101", "RPL101"]

    def test_rpl101_from_import_of_legacy_function(self):
        fired = lint("from numpy.random import shuffle\n")
        assert codes(fired) == ["RPL101"]

    def test_rpl101_quiet_on_generator_api(self):
        clean = lint(
            """
            import numpy as np
            from numpy.random import default_rng, SeedSequence

            def draw(n, seed):
                return np.random.default_rng(seed).random(n)
            """
        )
        assert codes(clean) == []

    def test_rpl102_unseeded_default_rng_fires(self):
        assert codes(lint("import numpy as np\nrng = np.random.default_rng()\n")) == [
            "RPL102"
        ]
        assert codes(lint("from numpy.random import default_rng\nr = default_rng(None)\n")) == [
            "RPL102"
        ]

    def test_rpl102_quiet_when_seeded_or_in_sanctioned_funnel(self):
        assert codes(lint("import numpy as np\nrng = np.random.default_rng(7)\n")) == []
        assert (
            codes(
                lint(
                    "import numpy as np\nrng = np.random.default_rng()\n",
                    path="src/repro/util/rng.py",
                )
            )
            == []
        )

    def test_rpl103_seed_arithmetic_fires(self):
        fired = lint(
            """
            import numpy as np

            def shard_rngs(seed, n):
                return [np.random.default_rng(seed + i) for i in range(n)]
            """
        )
        assert codes(fired) == ["RPL103"]

    def test_rpl103_quiet_on_spawn(self):
        clean = lint(
            """
            import numpy as np

            def shard_rngs(seed, n):
                return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]
            """
        )
        assert codes(clean) == []

    def test_rpl104_stdlib_random_fires(self):
        assert codes(lint("import random\n")) == ["RPL104"]
        assert codes(lint("from random import choice\n")) == ["RPL104"]

    def test_rpl104_quiet_on_other_modules(self):
        assert codes(lint("import secrets\nimport numpy as np\n")) == []


# ----------------------------------------------------------------------
# Picklability family (RPL2xx).
# ----------------------------------------------------------------------
class TestPickleRules:
    def test_rpl201_slots_without_hooks_fires(self):
        fired = lint(
            """
            class Pauli:
                __slots__ = ("xs", "zs")
            """
        )
        assert codes(fired) == ["RPL201"]

    def test_rpl201_quiet_with_getstate(self):
        clean = lint(
            """
            class Pauli:
                __slots__ = ("xs", "zs")

                def __getstate__(self):
                    return (self.xs, self.zs)

                def __setstate__(self, state):
                    self.xs, self.zs = state
            """
        )
        assert codes(clean) == []

    def test_rpl202_lambda_to_submit_fires(self):
        fired = lint(
            """
            def run(pool, shots):
                return pool.submit(lambda: shots * 2)
            """
        )
        assert codes(fired) == ["RPL202"]

    def test_rpl202_nested_function_to_map_fires(self):
        fired = lint(
            """
            def run(pool, shards):
                def work(shard):
                    return shard.execute()
                return list(pool.map(work, shards))
            """
        )
        assert codes(fired) == ["RPL202"]

    def test_rpl202_quiet_on_module_level_callable(self):
        clean = lint(
            """
            def work(shard):
                return shard.execute()

            def run(pool, shards):
                return list(pool.map(work, shards))
            """
        )
        assert codes(clean) == []

    def test_rpl203_scratch_buffer_without_getstate_fires(self):
        fired = lint(
            """
            class Protocol:
                def __init__(self):
                    self._buffers = {}

                def run(self, shots):
                    self._buffers[shots] = object()
            """
        )
        assert codes(fired) == ["RPL203"]

    def test_rpl203_quiet_with_getstate(self):
        clean = lint(
            """
            class Protocol:
                def __init__(self):
                    self._buffers = {}

                def __getstate__(self):
                    return {k: v for k, v in self.__dict__.items() if k != "_buffers"}
            """
        )
        assert codes(clean) == []

    LAZY_TABLE = """
        class Code:
            def __init__(self, h):
                self.h = h

            def table(self):
                if getattr(self, "_table_cache", None) is None:
                    self._table_cache = build(self.h)
                return self._table_cache
        """

    def test_rpl203_lazily_cached_attribute_without_hook_fires(self):
        assert codes(lint(self.LAZY_TABLE)) == ["RPL203"]

    def test_rpl203_quiet_with_reduce(self):
        clean = lint(
            self.LAZY_TABLE
            + """
            def __reduce__(self):
                return type(self), (self.h,)
        """
        )
        assert codes(clean) == []


# ----------------------------------------------------------------------
# Concurrency family (RPL3xx).
# ----------------------------------------------------------------------
class TestConcurrencyRules:
    def test_rpl301_sqlite_in_class_without_hook_fires(self):
        fired = lint(
            """
            import sqlite3

            class Journal:
                def __init__(self, path):
                    self._conn = sqlite3.connect(path)
            """
        )
        assert codes(fired) == ["RPL301"]

    def test_rpl301_quiet_with_getstate(self):
        clean = lint(
            """
            import sqlite3

            class Journal:
                def __init__(self, path):
                    self._conn = sqlite3.connect(path)

                def __getstate__(self):
                    raise TypeError("process-local; pass the path instead")
            """
        )
        assert codes(clean) == []

    def test_rpl302_pool_without_spawn_context_fires(self):
        fired = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            def make_pool(n):
                return ProcessPoolExecutor(max_workers=n)
            """
        )
        assert codes(fired) == ["RPL302"]
        assert codes(
            lint("import multiprocessing\nctx = multiprocessing.get_context('fork')\n")
        ) == ["RPL302"]

    def test_rpl302_quiet_with_spawn(self):
        clean = lint(
            """
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            def make_pool(n):
                ctx = multiprocessing.get_context("spawn")
                return ProcessPoolExecutor(max_workers=n, mp_context=ctx)
            """
        )
        assert codes(clean) == []

    def test_rpl303_abandoning_shutdown_fires(self):
        fired = lint("def stop(pool):\n    pool.shutdown(wait=False)\n")
        assert codes(fired) == ["RPL303"]

    def test_rpl303_quiet_on_waiting_shutdown(self):
        assert codes(lint("def stop(pool):\n    pool.shutdown(wait=True)\n")) == []

    def test_rpl304_silent_broad_except_fires(self):
        fired = lint(
            """
            def close(conn):
                try:
                    conn.close()
                except Exception:
                    pass
            """
        )
        assert codes(fired) == ["RPL304"]

    def test_rpl304_quiet_when_narrowed_or_warned(self):
        assert (
            codes(
                lint(
                    """
                    def close(conn):
                        try:
                            conn.close()
                        except OSError:
                            pass
                    """
                )
            )
            == []
        )
        assert (
            codes(
                lint(
                    """
                    import warnings

                    def close(conn):
                        try:
                            conn.close()
                        except Exception:
                            warnings.warn("close failed", RuntimeWarning)
                    """
                )
            )
            == []
        )

    def test_rpl305_wall_clock_in_key_fires(self):
        fired = lint(
            """
            import time

            def compute_run_key(args):
                return hash((args, time.time()))
            """
        )
        assert codes(fired) == ["RPL305"]

    def test_rpl305_quiet_outside_key_functions(self):
        clean = lint(
            """
            import time

            def elapsed(start):
                return time.time() - start
            """
        )
        assert codes(clean) == []


# ----------------------------------------------------------------------
# Profiles, suppressions, the CLI's exit code.
# ----------------------------------------------------------------------
class TestMachinery:
    def test_every_rule_has_a_fixture_above(self):
        exercised = {
            "RPL101", "RPL102", "RPL103", "RPL104",
            "RPL201", "RPL202", "RPL203",
            "RPL301", "RPL302", "RPL303", "RPL304", "RPL305",
        }
        assert exercised == set(RULES)

    def test_list_rules_prints_the_catalog_in_code_order(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["--list-rules"]) == 0
        printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert printed == sorted(RULES)

    def test_analysis_md_documents_exactly_the_catalog(self):
        """Every rule has a row in ANALYSIS.md's tables, and no row names
        a rule the linter no longer has."""
        text = (REPO_ROOT / "ANALYSIS.md").read_text()
        documented = set(re.findall(r"^\| (RPL\d{3}) \|", text, flags=re.MULTILINE))
        assert documented == set(RULES)

    def test_tests_profile_keeps_rng_rules_only(self):
        source = textwrap.dedent(
            """
            import numpy as np

            def helper(pool):
                pool.shutdown(wait=False)
                return np.random.default_rng()
            """
        )
        strict = lint_source(source, "src/repro/mod.py", "src")
        relaxed = lint_source(source, "tests/test_mod.py", "tests")
        assert codes(strict) == ["RPL303", "RPL102"]
        assert codes(relaxed) == ["RPL102"]

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            lint_source("x = 1\n", "mod.py", "paranoid")

    def test_same_line_suppression_with_reason(self):
        diags = lint(
            """
            def stop(pool):
                pool.shutdown(wait=False)  # repro: disable=RPL303 -- reaped below
            """
        )
        assert codes(diags) == []
        assert codes(diags, include_suppressed=True) == ["RPL303"]

    def test_preceding_line_suppression_covers_next_line(self):
        diags = lint(
            """
            def stop(pool):
                # repro: disable=RPL303 -- reaped below
                pool.shutdown(wait=False)
            """
        )
        assert codes(diags) == []
        assert codes(diags, include_suppressed=True) == ["RPL303"]

    def test_suppression_is_rule_specific(self):
        diags = lint(
            """
            def stop(pool):
                pool.shutdown(wait=False)  # repro: disable=RPL999 -- wrong code
            """
        )
        assert codes(diags) == ["RPL303"]

    def test_parse_suppressions_multiple_codes(self):
        supp = parse_suppressions(
            "x = 1  # repro: disable=RPL101,RPL303 -- legacy\n"
        )
        assert supp[1] == {"RPL101", "RPL303"}

    def test_cli_fails_on_a_finding_no_suppression_covers(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        (tmp_path / "src").mkdir()
        bad = tmp_path / "src" / "mod.py"
        bad.write_text("def stop(pool):\n    pool.shutdown(wait=False)\n")
        assert main(["--root", str(tmp_path)]) == 1
        assert "src/mod.py:2: RPL303" in capsys.readouterr().out

        bad.write_text(
            "def stop(pool):\n"
            "    pool.shutdown(wait=False)  # repro: disable=RPL303 -- reaped below\n"
        )
        assert main(["--root", str(tmp_path)]) == 0
        assert "0 finding(s), 1 suppressed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "option", ["--strict", "--baseline=x.json", "--write-baseline", "--reason=x"]
    )
    def test_baseline_options_are_refused(self, option):
        from repro.analysis.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main([option, "--list-rules"])
        assert exc.value.code == 2


# ----------------------------------------------------------------------
# The repo itself.
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_repo_lints_clean(self):
        report = lint_paths(REPO_ROOT)
        assert report.files > 100
        assert [d.format() for d in report.findings] == []

    def test_collect_targets_covers_the_layout(self):
        targets = dict(
            (str(p.relative_to(REPO_ROOT)), profile)
            for p, profile in collect_targets(REPO_ROOT)
        )
        assert targets["src/repro/analysis/linter.py"] == "src"
        assert targets["scripts_run_full.py"] == "src"
        assert targets["scripts/bench_perf.py"] == "src"
        assert targets["tests/test_analysis_linter.py"] == "tests"

    def test_progcheck_reexport_is_lazy(self):
        """`import repro.analysis` must not drag in the verifier module;
        the names resolve on first attribute access (verified in a clean
        subprocess so this test is order-independent)."""
        import subprocess
        import sys

        code = (
            "import sys, repro.analysis\n"
            "assert 'repro.analysis.progcheck' not in sys.modules\n"
            "assert repro.analysis.verify_program is not None\n"
            "assert 'repro.analysis.progcheck' in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0

    def test_monte_carlo_import_loads_no_analysis_module(self):
        """`import repro.threshold` stays off the linter: the packed-program
        verifier is imported when a program is built, not at import."""
        import subprocess
        import sys

        code = (
            "import sys, repro.threshold\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('repro.analysis'))\n"
            "assert loaded == [], loaded\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
