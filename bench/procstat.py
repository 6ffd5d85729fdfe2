"""Process CPU, peak memory and stderr of the node processes, read from outside.

The node processes are found through ``multiprocessing.active_children()``
(``LiveCluster`` names them ``repro-node-<id>``) and measured through
``/proc``: the program gains no switch for any of this.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from typing import Iterator, List

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def node_pids() -> List[int]:
    """Pids of the live node processes this process has spawned."""
    return sorted(
        child.pid for child in multiprocessing.active_children()
        if child.name.startswith("repro-node-") and child.pid is not None
    )


def cpu_seconds(pids: List[int]) -> float:
    """Summed user + system CPU time of ``pids`` (10 ms resolution)."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            # Fields after the parenthesised command name; utime and stime
            # are the 14th and 15th fields of the whole line.
            fields = handle.read().rsplit(b") ", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / _TICKS_PER_S


def peak_rss_mb(pids: List[int]) -> float:
    """Summed peak resident set size (``VmHWM``) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


@contextlib.contextmanager
def child_stderr_to(path: str) -> Iterator[None]:
    """Point file descriptor 2 at ``path`` (appending) for the block.

    Child processes spawned inside the block inherit the descriptor and
    keep it for life; this process gets its own stderr back on exit.
    """
    saved = os.dup(2)
    target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.dup2(target, 2)
        yield
    finally:
        os.dup2(saved, 2)
        os.close(saved)
        os.close(target)


def count_lines(path: str) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)
