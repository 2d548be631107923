"""Tier-1 suite hardening: a per-test watchdog alarm.

The chaos suites deliberately inject worker crashes and hangs into the
multiprocess runtime (the fakes live in ``tests/faults.py``, a helper
module pytest does not collect); if the runtime ever mishandles one, the
failure mode is a test that blocks forever — which would wedge the whole
tier-1 run.  pytest-timeout is not in the environment, so this is the in-repo
equivalent: a SIGALRM watchdog around every test that raises a plain
``Failed`` instead of letting the run hang.

Every test gets a generous default budget; tests marked ``slow_mp``
(multiprocess/chaos — pool spawns cost ~0.6 s each on top of the work)
document themselves as such and may override the budget via
``@pytest.mark.slow_mp(timeout=N)``.  ``pytest -m "not slow_mp"`` (or
``python scripts_run_full.py --tests --quick``) runs the fast
single-process suite only.

SIGALRM only exists on POSIX and only fires in the main thread — both
true for this suite; the fixture is a no-op anywhere else.
"""

from __future__ import annotations

import signal
import threading

import pytest

# Far above any healthy test (the full suite runs in well under a minute)
# but far below "wedged CI job".
DEFAULT_TIMEOUT = 300.0
# Multiprocess tests pay pool spawns, chaos-driven pool rebuilds, and
# backoff sleeps (the chaos suites zero runtime._BACKOFF); still nothing
# healthy takes remotely this long.
SLOW_MP_TIMEOUT = 180.0


def _watchdog_available() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@pytest.fixture(autouse=True)
def _test_watchdog(request):
    if not _watchdog_available():
        yield
        return
    marker = request.node.get_closest_marker("slow_mp")
    timeout = DEFAULT_TIMEOUT
    if marker is not None:
        timeout = float(marker.kwargs.get("timeout", SLOW_MP_TIMEOUT))

    def _alarm(signum, frame):
        pytest.fail(
            f"watchdog: test exceeded {timeout}s — presumed hung "
            f"(multiprocess deadlock or unrecovered chaos fault)",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
