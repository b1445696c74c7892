"""Shared pieces of the end-to-end benchmark: op plans, statistics, host
fingerprint, leak checks and the result record every workload fills in.

Nothing here imports the program under test; the workload modules do.
"""

from __future__ import annotations

import glob
import os
import platform
import random
import statistics
import sys
from dataclasses import dataclass, field

#: Every workload's op mix is calibrated to take about this long on the
#: reference host (2 vCPU, see the host fingerprint in each report).
#: ``--seconds`` scales the number of mix blocks, never a clock: two runs
#: with the same ``--seconds`` execute the same op multiset.
BLOCK_SECONDS = 20

#: Set-up is repeated this many times per run and reported as a median.
SETUP_REPEATS = 3

#: A percentile is a tail only if at least this many samples lie beyond it.
TAIL_BEYOND = 10

#: Per op, the measured layers must cover the latency to within this share.
CLOSURE_BOUND = 0.05

#: ``/dev/shm`` prefix of every shared-memory segment the program creates.
SHM_GLOB = "/dev/shm/repro-*"


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a kernel name and the seed of its run."""

    index: int
    kind: str
    seed: int


def make_plan(mix: dict[str, int], seconds: int, seed: int) -> list[Op]:
    """The run's op sequence: a fixed multiset, shuffled by ``seed``.

    ``mix`` holds the op counts of one block; the run holds
    ``round(seconds / BLOCK_SECONDS)`` blocks (at least one), so the
    multiset depends on the run length only.  The seed picks the order
    and each op's engine seed.
    """
    blocks = max(1, round(seconds / BLOCK_SECONDS))
    kinds = [k for k, count in mix.items() for _ in range(count * blocks)]
    rng = random.Random(seed)
    rng.shuffle(kinds)
    return [Op(i, k, rng.randrange(1, 2**31)) for i, k in enumerate(kinds)]


def tail_rank(n: int) -> int:
    """0-based rank of the highest percentile with TAIL_BEYOND samples
    beyond it (the maximum when there are too few samples)."""
    return max(0, n - TAIL_BEYOND - 1) if n > 2 * TAIL_BEYOND else n - 1


def latency_summary(latencies: list[float]) -> dict:
    ordered = sorted(latencies) or [0.0]  # every op failed: report zeros
    n = len(ordered)
    rank = tail_rank(n)
    return {
        "n": n,
        "p50_s": statistics.median(ordered),
        "tail_s": ordered[rank],
        "tail_pct": 100.0 * (rank + 1) / n,
        "beyond_tail": n - rank - 1,
    }


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def host_fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def graph_fingerprint(graph) -> dict:
    """n, m and the bytes of the graph's edge arrays."""
    src, dst = graph.edge_src, graph.edge_dst
    return {"n": int(graph.num_vertices), "m": int(graph.num_edges),
            "array_bytes": int(src.nbytes + dst.nbytes)}


def shm_segments() -> set[str]:
    return set(glob.glob(SHM_GLOB))


def stray_tmp_files(root: str) -> list[str]:
    """``*.tmp.*`` litter of interrupted atomic writes under ``root``."""
    found = []
    for dirpath, _dirs, files in os.walk(root):
        found += [os.path.join(dirpath, f) for f in files if ".tmp." in f]
    return sorted(found)


def open_fds_under(root: str) -> list[str]:
    """Files under ``root`` this process still holds open."""
    root = os.path.realpath(root)
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith(root + os.sep):
            held.append(target)
    return sorted(held)


@dataclass
class Outcome:
    """What one workload run measured; ``run.py`` turns it into a report."""

    workload: str
    setup_s: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    errors: int = 0
    wrong: int = 0
    peak_rss_mb: float = 0.0
    graphs: dict = field(default_factory=dict)
    leaks: list[str] = field(default_factory=list)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: The per-layer metrics that split an op's latency without overlap.
    parts: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def error(self, op: Op, exc: BaseException) -> None:
        self.errors += 1
        self.notes.append(f"op {op.index} {op.kind} seed={op.seed} failed: {exc!r}")

    def mismatch(self, what: str) -> None:
        self.wrong += 1
        self.notes.append(f"wrong answer: {what}")


def log(msg: str) -> None:
    """Progress to stderr, so stdout stays the report."""
    print(msg, file=sys.stderr, flush=True)
