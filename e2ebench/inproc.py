"""The three in-process workloads: a closed loop of ``repro.engine.run``
calls from this process, one op at a time.

* ``library-fastpath`` — the vectorized nondeterministic fast path on a
  standing rmat-16;
* ``outofcore-shards`` — the out-of-core runner over a ``ShardStore``;
* ``incremental-mutations`` — the delta engine absorbing mutation batches.

Each workload is a fixture (graph build, op call, correctness check);
:func:`run_workload` drives set-up, the untraced pass, the traced pass
and the checks the same way for all three.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

from common import (
    SETUP_REPEATS,
    Outcome,
    graph_fingerprint,
    log,
    make_plan,
    open_fds_under,
    shm_segments,
    stray_tmp_files,
    vm_hwm_mb,
)
from repro.algorithms import SSSP, reference
from repro.cli import ALGORITHMS
from repro.engine import run
from repro.graph import generators
from repro.graph.mutations import apply_batches, generate_batches, stable_weights
from repro.obs import Telemetry
from repro.obs.metrics import MetricsRegistry

#: Phase timer (``metrics=`` registry) -> per-layer metric name.
PHASE_METRICS = {
    "plan_build": "engine.plan_build_s",
    "gather": "engine.gather_s",
    "repair_pass": "engine.repair_pass_s",
    "lemma2_commit": "engine.lemma2_commit_s",
    "shard_io": "engine.shard_io_s",
    "delta_commit": "engine.delta_commit_s",
    "delta_propagate": "engine.delta_propagate_s",
    "mutate_repair": "engine.mutate_repair_s",
}

#: The disjoint layers an op's run() wall time splits into.
PARTS = [*PHASE_METRICS.values(), "engine.setup_s", "engine.iteration_other_s"]

#: Kernels whose nondeterministic result is exact (Theorem 2).
EXACT_KINDS = ("WCC", "BFS", "SSSP")

#: PageRank stops a vertex once its local change is below epsilon; the
#: error that leaves behind grows along propagation chains to about
#: epsilon / (1 - damping) relative to the rank.  Three times that is the
#: acceptance bound, for ``PageRank(epsilon=1e-3)`` 0.02.
def pagerank_rel_bound(program) -> float:
    return 3.0 * float(program.epsilon) / (1.0 - float(program.damping))


def rel_error(values: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(values - ref) / np.maximum(1.0, np.abs(ref))))


class OpRecord:
    """What an op left behind: its output vector and its exact counts."""

    __slots__ = ("vec", "counts", "extra")

    def __init__(self, res):
        self.vec = np.array(res.result(), dtype=np.float64, copy=True)
        summary = res.conflicts.summary()
        self.extra = res.extra
        io = res.extra.get("io", {})
        delta = res.extra.get("delta", {})
        muts = res.extra.get("mutations", [])
        self.counts = {
            "engine.iterations": res.num_iterations,
            "engine.fixpoint_passes": res.extra.get("fixpoint_passes", 0),
            "engine.plan_cache_hits": res.extra.get("plan_cache_hits", 0),
            "engine.conflicts_read_write": summary.get("read_write", 0),
            "engine.conflicts_write_write": summary.get("write_write", 0),
            "engine.updates": res.total_updates,
            "storage.bytes_read": io.get("bytes_read", 0),
            "storage.bytes_written": io.get("bytes_written", 0),
            "storage.interval_loads": io.get("interval_loads", 0),
            "delta.committed_total": delta.get("committed_total", 0),
            "delta.repaired_vertices": sum(m["repaired_vertices"] for m in muts),
            "delta.full_restarts": sum(bool(m["region_capped"]) for m in muts),
            "delta.batches": len(muts),
            "converged": int(bool(res.converged)),
        }


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
class LibraryFastpath:
    name = "library-fastpath"
    scale = 16
    #: Sorted latencies run BFS ~ WCC < SSSP < PageRank (0.5, 0.5, 0.9 and
    #: 5 s).  The one block below WCC (2 BFS) matches the ops above it
    #: (1 SSSP + 1 PageRank), so the median lands mid-way through the
    #: traversal block and the tail rank still sits inside it.  One
    #: PageRank op is a third of the run, all a 20 s block affords.
    mix = {"PageRank": 1, "SSSP": 1, "BFS": 2, "WCC": 20}
    label = "rmat-16"

    def build(self, workdir):
        return {"graph": generators.rmat(self.scale, 8.0, seed=3)}

    def warm(self, target):
        return "BFS", None

    def inputs(self, target, plan):
        return [None] * len(plan)

    def call(self, target, kind, seed, inp, **sinks):
        return run(ALGORITHMS[kind](), target["graph"], mode="nondeterministic",
                   vectorized=True, threads=8, seed=seed, **sinks)

    def check(self, target, plan, inputs, records, outcome):
        graph = target["graph"]
        refs = {}
        for op, rec in zip(plan, records):
            if rec is None:
                continue
            program = ALGORITHMS[op.kind]()
            if op.kind not in refs:
                refs[op.kind] = _reference(op.kind, program, graph)
            _check_vector(op, program, rec.vec, refs[op.kind], outcome)

    def leaks(self, target):
        return []

    def close(self, target):
        pass


class OutOfCoreShards:
    name = "outofcore-shards"
    #: rmat-14, not rmat-16: at scale 16 an op takes 2-4 s, so a 20 s run
    #: holds fewer than the 21 ops a tail percentile needs.
    scale = 14
    intervals = 8
    #: WCC < BFS < SSSP (0.36, 0.40, 0.9 s): as many WCC as SSSP ops, so
    #: the median and the tail rank both fall inside the BFS block.
    mix = {"WCC": 5, "BFS": 18, "SSSP": 5}
    label = "rmat-14 in 8 intervals"

    def build(self, workdir):
        from repro.storage.shards import ShardStore

        graph = generators.rmat(self.scale, 8.0, seed=3)
        t0 = time.perf_counter()
        store = ShardStore.build(graph, os.path.join(workdir, "rmat.psw"),
                                 self.intervals)
        return {"graph": graph, "store": store, "workdir": workdir,
                "shard_build_s": time.perf_counter() - t0}

    def warm(self, target):
        return "WCC", None

    def inputs(self, target, plan):
        return [None] * len(plan)

    def call(self, target, kind, seed, inp, **sinks):
        return run(ALGORITHMS[kind](), target["store"], mode="nondeterministic",
                   threads=8, seed=seed, **sinks)

    def check(self, target, plan, inputs, records, outcome):
        """Every op against the in-memory vectorized run of its kernel;
        the first op of each kernel also against its full trajectory."""
        graph = target["graph"]
        baseline = {}
        for op, rec in zip(plan, records):
            if rec is None:
                continue
            if op.kind not in baseline:
                mem = run(ALGORITHMS[op.kind](), graph, mode="nondeterministic",
                          vectorized="require", threads=8, seed=op.seed)
                mem_rec = OpRecord(mem)
                baseline[op.kind] = mem_rec
                for key in ("engine.iterations", "engine.fixpoint_passes",
                            "engine.conflicts_read_write",
                            "engine.conflicts_write_write", "engine.updates"):
                    if mem_rec.counts[key] != rec.counts[key]:
                        outcome.mismatch(
                            f"op {op.index} {op.kind}: {key} {rec.counts[key]} "
                            f"out of core vs {mem_rec.counts[key]} in memory")
            if not np.array_equal(rec.vec, baseline[op.kind].vec):
                outcome.mismatch(f"op {op.index} {op.kind}: out-of-core result "
                                 "differs from the in-memory vectorized run")

    def leaks(self, target):
        target["store"].nondet_runner().close()
        scratch = target["store"].path + ".scratch"
        return [f"open scratch file: {p}" for p in open_fds_under(scratch)]

    def close(self, target):
        target["store"].nondet_runner().close()
        shutil.rmtree(target["workdir"], ignore_errors=True)


def _delta_sssp():
    # Endpoint-stable weights: index-seeded ones reshuffle under mutation.
    return SSSP(source=0, weight_fn=lambda g: stable_weights(g, seed=5))


DELTA_KERNELS = {
    "PageRank": ALGORITHMS["PageRank"],
    "WCC": ALGORITHMS["WCC"],
    "SSSP": _delta_sssp,
}


class IncrementalMutations:
    name = "incremental-mutations"
    scale = 14
    #: 4 batches of 0.1% per op, not 16: at 16 an op takes 1-2.3 s and a
    #: 20 s run holds fewer than the 21 ops a tail percentile needs.
    num_batches = 4
    batch_frac = 0.001
    #: Ops draw their batches from this many seeded streams per run, so
    #: the check rebuilds 6 mutated graphs rather than one per op.
    streams = 6
    #: SSSP < WCC < PageRank (0.3, 0.5, 1.0 s): as many SSSP as PageRank
    #: ops, so the median and the tail rank fall inside the WCC block.
    mix = {"SSSP": 3, "WCC": 22, "PageRank": 3}
    label = "rmat-14"

    def build(self, workdir):
        return {"graph": generators.rmat(self.scale, 8.0, seed=3)}

    def warm(self, target):
        return "SSSP", (0, generate_batches(target["graph"], self.num_batches,
                                            self.batch_frac, 0))

    def inputs(self, target, plan):
        """Per op, the index of its stream and the stream's batches."""
        streams = [generate_batches(target["graph"], self.num_batches,
                                    self.batch_frac, op.seed)
                   for op in plan[:self.streams]]
        return [(i % len(streams), streams[i % len(streams)])
                for i in range(len(plan))]

    def call(self, target, kind, seed, inp, **sinks):
        return run(DELTA_KERNELS[kind](), target["graph"], mode="delta",
                   mutations=inp[1], seed=seed, **sinks)

    def check(self, target, plan, inputs, records, outcome):
        """Each op against a from-scratch delta run on its mutated graph.

        MIN kernels converge to the one exact answer and PageRank to within
        its bound whatever the seed, so one from-scratch run per (stream,
        kernel) serves every op that shares them."""
        finals, scratch = {}, {}
        for op, (stream, batches), rec in zip(plan, inputs, records):
            if rec is None:
                continue
            if not rec.extra["delta"]["accumulation_identity"]:
                outcome.mismatch(f"op {op.index} {op.kind}: accumulation "
                                 "identity broken")
            if stream not in finals:
                finals[stream], _ = apply_batches(target["graph"], batches)
            key = (stream, op.kind)
            if key not in scratch:
                res = run(DELTA_KERNELS[op.kind](), finals[stream], mode="delta",
                          seed=op.seed)
                if not res.extra["delta"]["accumulation_identity"]:
                    outcome.mismatch(f"{op.kind} on stream {stream}: from-scratch "
                                     "accumulation identity broken")
                scratch[key] = res.result()
            _check_vector(op, DELTA_KERNELS[op.kind](), rec.vec, scratch[key],
                          outcome)

    def leaks(self, target):
        return []

    def close(self, target):
        pass


FIXTURES = {fx.name: fx for fx in
            (LibraryFastpath(), OutOfCoreShards(), IncrementalMutations())}


def _reference(kind, program, graph):
    if kind == "WCC":
        return reference.wcc_reference(graph)
    if kind == "BFS":
        return reference.bfs_reference(graph, program.source)
    if kind == "SSSP":
        return reference.sssp_reference(graph, program.source,
                                        program.make_weights(graph))
    return reference.pagerank_reference(graph)


def _check_vector(op, program, vec, ref, outcome):
    ref = np.asarray(ref, dtype=np.float64)
    if op.kind in EXACT_KINDS:
        if not np.array_equal(vec, ref):
            bad = int(np.count_nonzero(vec != ref))
            outcome.mismatch(f"op {op.index} {op.kind}: {bad} vertices differ "
                             "from the exact answer")
    else:
        err, bound = rel_error(vec, ref), pagerank_rel_bound(program)
        if not err <= bound:
            outcome.mismatch(f"op {op.index} {op.kind}: relative error {err:.4g} "
                             f"above the bound {bound:.4g}")


# ----------------------------------------------------------------------
# tracing from outside: wrappers around public entry points
# ----------------------------------------------------------------------
class Wrappers:
    """Times the engine set-up a run's phase timers miss — up to
    ``PlanCache`` construction in the vectorized engine, the
    ``check_delta_program`` gate in the delta engine — and
    ``nondet_delta.apply_batch``.

    Installed for the traced pass only and removed afterwards.
    """

    def __init__(self):
        self.plan_ready: list[float] = []
        self.reset()

    def reset(self):
        self.plan_ready.clear()
        self.delta_check_s = 0.0
        self.apply_batch_s = 0.0

    def _timed(self, fn, attr):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(self, attr, getattr(self, attr) + time.perf_counter() - t0)

        return wrapper

    def __enter__(self):
        import repro.engine.nondet_delta as nd
        import repro.engine.nondet_vectorized as nv
        import repro.theory.eligibility as el

        self._saved = (nv.PlanCache, nd.apply_batch, el.check_delta_program)
        base_cache = nv.PlanCache
        marks = self.plan_ready

        class TimedPlanCache(base_cache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                marks.append(time.perf_counter())

        nv.PlanCache = TimedPlanCache
        nd.apply_batch = self._timed(nd.apply_batch, "apply_batch_s")
        el.check_delta_program = self._timed(el.check_delta_program,
                                             "delta_check_s")
        return self

    def __exit__(self, *exc):
        import repro.engine.nondet_delta as nd
        import repro.engine.nondet_vectorized as nv
        import repro.theory.eligibility as el

        nv.PlanCache, nd.apply_batch, el.check_delta_program = self._saved
        return False

    def setup_s(self, t0: float) -> float:
        return (self.plan_ready[0] - t0 if self.plan_ready else 0.0) \
            + self.delta_check_s


def _phase_seconds(registry: MetricsRegistry) -> dict[str, float]:
    return {s.labels["phase"]: s.value for s in registry.series()
            if s.name == "repro_phase_seconds_total"}


def _iteration_other(sink: Telemetry) -> float:
    """Iteration wall time outside the phase laps (barrier bookkeeping).

    A delta iteration's phases also carry the mutation repair that ran
    before it, outside its wall time."""
    other = 0.0
    for span in sink.spans:
        phases = dict(span.extra.get("phases", {}))
        phases.pop("mutate_repair", None)
        other += span.wall_time_s - sum(phases.values())
    return other


# ----------------------------------------------------------------------
# running a workload
# ----------------------------------------------------------------------
def _call(fx, target, op, inp, outcome, traced, wrappers):
    """One op; returns (latency, OpRecord or None, layer facts or None)."""
    sinks = {}
    if traced:
        sinks = {"metrics": MetricsRegistry(), "telemetry": Telemetry()}
        wrappers.reset()
    t0 = time.perf_counter()
    try:
        res = fx.call(target, op.kind, op.seed, inp, **sinks)
    except Exception as exc:  # an op failure is counted, not fatal
        lat = time.perf_counter() - t0
        if not traced:
            outcome.error(op, exc)
        return lat, None, None
    lat = time.perf_counter() - t0
    facts = None
    if traced:
        facts = {"wall": lat, "phases": _phase_seconds(sinks["metrics"]),
                 "setup": wrappers.setup_s(t0),
                 "apply_batch": wrappers.apply_batch_s,
                 "iteration_other": _iteration_other(sinks["telemetry"])}
    return lat, OpRecord(res), facts


def _untraced_pass(fx, target, plan, inputs, outcome):
    """The end-to-end pass: the plan once, no sinks, no wrappers."""
    latencies, records = [], []
    t_run = time.perf_counter()
    for op, inp in zip(plan, inputs):
        lat, rec, _ = _call(fx, target, op, inp, outcome, False, None)
        latencies.append(lat)
        records.append(rec)
    return latencies, time.perf_counter() - t_run, records


def _paired_pass(fx, target, plan, inputs, outcome):
    """Each op untraced, then traced: the traced run, paired op by op with
    an untraced twin so that drift of the host cancels in the overhead."""
    latencies, records, traced = [], [], []
    with Wrappers() as wrappers:
        t_run = time.perf_counter()
        for op, inp in zip(plan, inputs):
            lat, rec, _ = _call(fx, target, op, inp, outcome, False, None)
            latencies.append(lat)
            records.append(rec)
            traced.append(_call(fx, target, op, inp, outcome, True, wrappers))
        wall = time.perf_counter() - t_run
    return latencies, wall, records, traced


def _per_layer(target, plan, records, facts, untraced_lat, setup_info):
    """Per-layer metrics of the traced pass: per-op means for seconds,
    run totals for counts."""
    ok = [(op, r, f, u) for op, r, f, u in
          zip(plan, records, facts, untraced_lat) if r is not None]
    n_ops = max(1, len(ok))
    out: dict[str, tuple[float, str]] = {}
    totals: dict[str, float] = {}
    for _op, rec, _f, _u in ok:
        for key, val in rec.counts.items():
            totals[key] = totals.get(key, 0) + val
    for key in ("engine.iterations", "engine.fixpoint_passes",
                "engine.plan_cache_hits", "engine.conflicts_read_write",
                "engine.conflicts_write_write", "engine.updates",
                "storage.bytes_read", "storage.bytes_written",
                "storage.interval_loads", "delta.committed_total",
                "delta.repaired_vertices", "delta.full_restarts"):
        unit = "bytes" if key.startswith("storage.bytes") else "count"
        out[key] = (totals.get(key, 0), unit)
    iters = totals.get("engine.iterations", 0)
    out["engine.passes_per_iteration"] = (
        totals.get("engine.fixpoint_passes", 0) / iters if iters else 0.0, "ratio")
    n_vertices = target["graph"].num_vertices
    batches = totals.get("delta.batches", 0)
    out["delta.repaired_frac"] = (
        totals.get("delta.repaired_vertices", 0) / (n_vertices * batches)
        if batches else 0.0, "ratio")

    phase_tot: dict[str, float] = {}
    wall_tot = setup_tot = apply_tot = gap_tot = io_tot = other_tot = 0.0
    overheads = []
    worst_gap = 0.0
    for _op, rec, f, u in ok:
        for ph, sec in f["phases"].items():
            phase_tot[ph] = phase_tot.get(ph, 0.0) + sec
        gap = (f["wall"] - f["setup"] - sum(f["phases"].values())
               - f["iteration_other"])
        worst_gap = max(worst_gap, abs(gap) / f["wall"])
        wall_tot += f["wall"]
        setup_tot += f["setup"]
        other_tot += f["iteration_other"]
        apply_tot += f["apply_batch"]
        gap_tot += gap
        io_tot += rec.extra.get("io", {}).get("seconds", 0.0)
        overheads.append(f["wall"] - u)
    for ph, name in PHASE_METRICS.items():
        out[name] = (phase_tot.get(ph, 0.0) / n_ops, "s")
    out["engine.repair_pass_share"] = (
        phase_tot.get("repair_pass", 0.0) / wall_tot if wall_tot else 0.0, "ratio")
    out["engine.run_s"] = (wall_tot / n_ops, "s")
    out["engine.setup_s"] = (setup_tot / n_ops, "s")
    out["engine.iteration_other_s"] = (other_tot / n_ops, "s")
    out["engine.unattributed_s"] = (gap_tot / n_ops, "s")
    out["graph.apply_batch_s"] = (apply_tot / n_ops, "s")
    out["storage.io_s"] = (io_tot / n_ops, "s")
    out["storage.shard_build_s"] = (setup_info.get("shard_build_s", 0.0), "s")
    out["closure.worst_gap_share"] = (worst_gap, "ratio")
    out["trace.overhead_s"] = (float(np.median(overheads)) if overheads else 0.0,
                               "s")
    return out


def run_workload(name: str, seed: int, seconds: int, traced: bool,
                 workroot: str) -> Outcome:
    fx = FIXTURES[name]
    outcome = Outcome(workload=name, parts=PARTS)
    segments_before = shm_segments()

    # -- set-up, repeated; the last target is the one measured ---------
    target = None
    shard_builds = []
    for rep in range(SETUP_REPEATS):
        if target is not None:
            fx.close(target)
        workdir = os.path.join(workroot, f"setup{rep}")
        os.makedirs(workdir, exist_ok=True)
        t0 = time.perf_counter()
        target = fx.build(workdir)
        warm_kind, warm_in = fx.warm(target)
        fx.call(target, warm_kind, 0, warm_in)
        outcome.setup_s.append(time.perf_counter() - t0)
        shard_builds.append(target.get("shard_build_s", 0.0))
    outcome.graphs = {fx.label: graph_fingerprint(target["graph"])}
    setup_info = {"shard_build_s": float(np.median(shard_builds))}

    plan = make_plan(fx.mix, seconds, seed)
    inputs = fx.inputs(target, plan)
    outcome.attempted = len(plan)
    log(f"{name}: {len(plan)} ops, set-up median "
        f"{float(np.median(outcome.setup_s)):.3f} s")

    # -- the measured pass; with tracing, each op also runs traced -------
    if not traced:
        lat, wall, records = _untraced_pass(fx, target, plan, inputs, outcome)
    else:
        lat, wall, records, paired = _paired_pass(fx, target, plan, inputs,
                                                  outcome)
    outcome.latencies, outcome.wall_s = lat, wall
    outcome.peak_rss_mb = vm_hwm_mb()
    if traced:
        t_records = [rec for _lat, rec, _f in paired]
        facts = [f for _lat, _rec, f in paired]
        for op, a, b in zip(plan, records, t_records):
            if a is None or b is None:
                continue
            if a.counts != b.counts or not np.array_equal(a.vec, b.vec):
                outcome.mismatch(f"op {op.index} {op.kind}: traced run differs "
                                 "from the untraced run")
        outcome.per_layer = _per_layer(target, plan, t_records, facts,
                                       lat, setup_info)

    # -- correctness, outside every timed region -------------------------
    fx.check(target, plan, inputs, records, outcome)

    # -- leaks ------------------------------------------------------------
    outcome.leaks += fx.leaks(target)
    outcome.leaks += [f"stray temp file: {p}" for p in stray_tmp_files(workroot)]
    outcome.leaks += [f"shared-memory segment left: {p}"
                      for p in sorted(shm_segments() - segments_before)]
    fx.close(target)
    return outcome
