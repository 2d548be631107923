"""Process-table helpers over Linux ``/proc``, shared by the driver, the
workload child and the self-tests."""

from __future__ import annotations

import os
from pathlib import Path


def process_table() -> dict[int, tuple[str, int, int]]:
    """``pid -> (state, ppid, session)`` for every process, zombies included."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while the table was read
        # The command name is parenthesised and may hold spaces; the fixed
        # fields start after its closing parenthesis.
        state, ppid, _pgrp, session = stat.rsplit(")", 1)[1].split()[:4]
        table[int(entry)] = (state, int(ppid), int(session))
    return table


def descendants(root: int) -> list[int]:
    """Every process below ``root``, parents before their children."""
    children: dict[int, list[int]] = {}
    for pid, (_, ppid, _) in process_table().items():
        children.setdefault(ppid, []).append(pid)
    found, frontier = [], [root]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def peak_rss_mib(pids: list[int]) -> float:
    """Sum of the peak resident set (``VmHWM``) of ``pids``, in MiB.
    Zombies and processes that exited meanwhile count zero."""
    total_kib = 0
    for pid in pids:
        try:
            status = Path("/proc", str(pid), "status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024
