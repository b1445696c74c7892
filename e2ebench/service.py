"""The ``service-jobs`` workload: ``repro serve`` in a subprocess and one
client keeping both of its job slots busy over one keep-alive connection.

Jobs are submitted exactly as ``repro client submit ALGO --graph web
--run-seed S`` builds them (object engine, ``checkpoint_every=1``).  An
op's latency runs from the submit request to the end of the result fetch;
the server's journaled ``finished_at`` closes the job's part, so the poll
period never rounds it.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from common import (
    SETUP_REPEATS,
    Outcome,
    graph_fingerprint,
    log,
    make_plan,
    shm_segments,
    stray_tmp_files,
    vm_hwm_mb,
)
from repro.cli import ALGORITHMS
from repro.engine import EngineConfig, run
from repro.graph.datasets import load_dataset

GRAPH_SPEC = {"dataset": "web-google-mini", "scale": 11, "seed": 7}
#: The server's default job slots; the client keeps this many jobs in flight.
SLOTS = 2
POLL_S = 0.02
START_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0
#: Sorted latencies run BFS ~ WCC < SSSP < PageRank (0.8, 0.8, 1.5 and
#: 5 s with both slots busy).  The BFS ops below the WCC block match the
#: SSSP + PageRank ops above it, so the median lands mid-way through the
#: traversal block and the tail rank still sits inside it.
MIX = {"BFS": 2, "WCC": 26, "SSSP": 1, "PageRank": 1}

LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")


def job_spec(kind: str, seed: int) -> dict:
    """What ``repro client submit KIND --graph web --run-seed SEED`` sends."""
    return {"algorithm": kind, "graph": "web", "config": {"seed": seed},
            "mode": "nondeterministic", "checkpoint_every": 1,
            "record": None, "deadline_s": None, "throttle_s": 0.0}


class Server:
    """One launcher subprocess and a keep-alive connection to it."""

    def __init__(self, root: str, spans: bool):
        self.data_dir = os.path.join(root, "data")
        self.spans_path = os.path.join(root, "spans.json") if spans else None
        cmd = [sys.executable, LAUNCHER, "--data-dir", self.data_dir]
        if self.spans_path:
            cmd += ["--spans", self.spans_path]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.port = self._await_port()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                               timeout=JOB_TIMEOUT_S)

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on http://" in line:
                return int(line.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("service did not start")

    def call(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        data = json.loads(resp.read() or b"null")
        if resp.status >= 400:
            raise RuntimeError(f"{method} {path}: HTTP {resp.status} {data}")
        return data

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> int:
        """Graceful SIGTERM drain; returns the exit code."""
        if getattr(self, "conn", None) is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def start_server(root: str, spans: bool) -> Server:
    """Server start, graph registration and one warm-up job."""
    server = Server(root, spans)
    try:
        server.call("POST", "/api/graphs", {"name": "web", "spec": GRAPH_SPEC})
        job = server.call("POST", "/api/jobs", job_spec("BFS", 0))["job_id"]
        while server.call("GET", f"/api/jobs/{job}")["state"] not in (
                "done", "failed", "cancelled"):
            time.sleep(POLL_S)
        server.call("GET", f"/api/jobs/{job}/result")
    except BaseException:
        server.stop()
        raise
    return server


def closed_loop(server: Server, ops, records: list, outcome: Outcome,
                count_errors: bool) -> float:
    """Keep SLOTS jobs in flight until ``ops`` are done; fills
    ``records[op.index]`` and returns the wall time."""
    pending = list(ops)
    inflight: dict[str, dict] = {}
    t_run = time.perf_counter()

    def submit(op):
        t0 = time.time()
        try:
            job = server.call("POST", "/api/jobs",
                              job_spec(op.kind, op.seed))["job_id"]
        except RuntimeError as exc:
            if count_errors:
                outcome.error(op, exc)
            return
        inflight[job] = {"op": op, "t0": t0, "submit_s": time.time() - t0}

    while pending or inflight:
        while pending and len(inflight) < SLOTS:
            submit(pending.pop(0))
        time.sleep(POLL_S)
        for job in list(inflight):
            status = server.call("GET", f"/api/jobs/{job}")
            late = time.time() - inflight[job]["t0"] > JOB_TIMEOUT_S
            if status["state"] not in ("done", "failed", "cancelled") and not late:
                continue
            rec = inflight.pop(job)
            op = rec["op"]
            if status["state"] != "done":
                if count_errors:
                    outcome.error(op, RuntimeError(
                        status.get("error") or f"still {status['state']} after "
                        f"{JOB_TIMEOUT_S:.0f} s"))
            else:
                t0 = time.time()
                result = server.call("GET", f"/api/jobs/{job}/result")
                rec["result_s"] = time.time() - t0
                rec["finished_at"] = status["finished_at"]
                rec["latency"] = rec["finished_at"] - rec["t0"] + rec["result_s"]
                rec["job"] = job
                rec["summary"] = result
                records[op.index] = rec
            if pending:
                submit(pending.pop(0))
    return time.perf_counter() - t_run


# ----------------------------------------------------------------------
# per-layer attribution from the launcher's spans and the job artifacts
# ----------------------------------------------------------------------
def _self_times(spans: list[list]) -> list[dict]:
    """Each span with its self time: duration minus directly nested spans."""
    by_thread: dict[int, list[list]] = {}
    for sp in spans:
        by_thread.setdefault(sp[2], []).append(sp)
    out = []
    for group in by_thread.values():
        for name, job, _tid, depth, t0, t1, detail in group:
            inner = sum(c[5] - c[4] for c in group
                        if c[3] == depth + 1 and c[4] >= t0 and c[5] <= t1)
            out.append({"name": name, "job": job, "t0": t0, "t1": t1,
                        "detail": detail, "self": (t1 - t0) - inner})
    return out


def _trace_facts(job_dir: str) -> tuple[int, int]:
    """Bytes of the job's telemetry traces and the total updates they report."""
    nbytes = updates = 0
    for name in sorted(os.listdir(job_dir)):
        if name.startswith("trace-") and name.endswith(".jsonl"):
            path = os.path.join(job_dir, name)
            nbytes += os.path.getsize(path)
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    if rec.get("type") == "run_end":
                        updates += int(rec.get("total_updates", 0))
    return nbytes, updates


#: Worker-side layers of a job: span name -> per-layer metric.
WORKER_LAYERS = {
    "service.journal_append": "service.journal_append_s",
    "storage.checkpoint_save": "storage.checkpoint_save_s",
    "graph.registry_get": "graph.registry_get_s",
    "robust.supervised_run": "robust.supervised_self_s",
    "engine.run": "engine.run_s",
    "service.result_write": "service.result_write_s",
}


def _job_layers(rec: dict, spans: list[dict]) -> dict[str, float]:
    """One job's layers.  Its latency splits into admission (submit
    request to the journal's ``start`` record: the HTTP round trip and the
    queue wait, which may overlap), the worker's spans up to the
    journaled ``finished_at``, and the result fetch; what the spans leave
    uncovered is ``service.unattributed_s``."""
    submit = next(sp for sp in spans if sp["detail"] == "submit")
    start = min(sp["t0"] for sp in spans if sp["detail"] == "start")
    worker = [sp for sp in spans
              if start <= sp["t0"] and sp["t1"] <= rec["finished_at"]]
    layer = {"http.submit_s": rec["submit_s"],
             "http.result_s": rec["result_s"],
             "service.queue_wait_s": start - submit["t1"],
             "service.submit_s": sum(sp["self"] for sp in spans
                                     if sp["name"] == "service.submit")
             + submit["self"]}
    for name, metric in WORKER_LAYERS.items():
        layer[metric] = sum(sp["self"] for sp in worker if sp["name"] == name)
    covered = (start - rec["t0"]) + rec["result_s"] + sum(
        layer[m] for m in WORKER_LAYERS.values())
    layer["service.unattributed_s"] = rec["latency"] - covered
    return layer


def _per_layer(server: Server, records, untraced):
    with open(server.spans_path, encoding="utf-8") as fh:
        spans = _self_times(json.load(fh))
    per_job: dict[str, list[dict]] = {}
    for sp in spans:
        per_job.setdefault(sp["job"], []).append(sp)

    sums: dict[str, float] = {}
    overheads = []
    counts = {"engine.iterations": 0, "engine.conflicts_read_write": 0,
              "engine.conflicts_write_write": 0, "engine.updates": 0,
              "service.journal_appends": 0, "storage.checkpoint_saves": 0}
    done = [(r, u) for r, u in zip(records, untraced)
            if r is not None and u is not None]
    worst_gap = 0.0
    for rec, unt in done:
        job = rec["job"]
        mine = per_job.get(job, [])
        layer = _job_layers(rec, mine)
        overheads.append(rec["latency"] - unt["latency"])
        worst_gap = max(worst_gap,
                        abs(layer["service.unattributed_s"]) / rec["latency"])
        trace_bytes, updates = _trace_facts(
            os.path.join(server.data_dir, "jobs", job))
        layer["obs.trace_bytes"] = trace_bytes
        for k, v in layer.items():
            sums[k] = sums.get(k, 0.0) + v
        summary = rec["summary"]
        counts["engine.iterations"] += summary["iterations"]
        counts["engine.conflicts_read_write"] += summary["conflicts"]["read_write"]
        counts["engine.conflicts_write_write"] += summary["conflicts"]["write_write"]
        counts["engine.updates"] += updates
        counts["service.journal_appends"] += sum(
            1 for sp in mine if sp["name"] == "service.journal_append")
        counts["storage.checkpoint_saves"] += sum(
            1 for sp in mine if sp["name"] == "storage.checkpoint_save")

    n = max(1, len(done))
    out = {k: (v / n, "bytes" if k == "obs.trace_bytes" else "s")
           for k, v in sums.items()}
    # The registry get that moves set-up is the one that loaded the graph,
    # during the warm-up job; later gets are cache hits.
    out["graph.registry_get_s"] = (max(
        (sp["t1"] - sp["t0"] for sp in spans if sp["name"] == "graph.registry_get"),
        default=0.0), "s")
    for k, v in counts.items():
        out[k] = (v, "count")
    out["closure.worst_gap_share"] = (worst_gap, "ratio")
    out["trace.overhead_s"] = (statistics.median(overheads) if overheads else 0.0,
                               "s")
    return out


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_results(server: Server, plan, records, graph, outcome: Outcome):
    """Stored result vs its digest and vs a direct run of the same spec.

    The direct run takes the vectorized fast path, which the engine
    documents as bit-identical to the object engine the job ran.
    """
    with open(os.path.join(server.data_dir, "journal", "snapshot.json"),
              encoding="utf-8") as fh:
        journaled = json.load(fh)["state"]
    for op, rec in zip(plan, records):
        if rec is None:
            continue
        summary = rec["summary"]
        if journaled[rec["job"]].get("finished_at") != rec["finished_at"]:
            outcome.mismatch(f"job {rec['job']}: finished_at differs from the "
                             "journal")
        arr = np.load(os.path.join(server.data_dir, "jobs", rec["job"], "result.npy"))
        if hashlib.sha256(arr.tobytes()).hexdigest() != summary["state_sha256"]:
            outcome.mismatch(f"job {rec['job']}: result.npy does not match "
                             "its state_sha256")
        direct = run(ALGORITHMS[op.kind](), graph, mode="nondeterministic",
                     config=EngineConfig(seed=op.seed), vectorized="require")
        if not np.array_equal(arr, direct.result()):
            outcome.mismatch(f"job {rec['job']} ({op.kind}): result differs from "
                             "a direct run of the same spec")
        if (summary["conflicts"] != direct.conflicts.summary()
                or summary["iterations"] != direct.num_iterations):
            outcome.mismatch(f"job {rec['job']} ({op.kind}): conflicts or "
                             "iterations differ from a direct run")


def shutdown_and_check(server: Server, outcome: Outcome) -> None:
    code = server.stop()
    if code != 0:
        outcome.leaks.append(f"service exited with code {code} after SIGTERM")
    outcome.leaks += [f"stray temp file after drain: {p}"
                      for p in stray_tmp_files(server.data_dir)]


#: Ops per turn when the traced run alternates between its two servers.
CHUNK = 4

#: The disjoint layers a job's latency splits into.
PARTS = ["http.submit_s", "service.queue_wait_s", "http.result_s",
         *WORKER_LAYERS.values()]


def run_workload(name: str, seed: int, seconds: int, traced: bool,
                 workroot: str) -> Outcome:
    outcome = Outcome(workload=name, parts=PARTS)
    segments_before = shm_segments()
    graph = load_dataset(GRAPH_SPEC["dataset"], scale=GRAPH_SPEC["scale"],
                         seed=GRAPH_SPEC["seed"])
    outcome.graphs = {"web-google-mini-11": graph_fingerprint(graph)}

    server = shadow = None
    try:
        for rep in range(SETUP_REPEATS):
            if server is not None:
                shutdown_and_check(server, outcome)
            t0 = time.perf_counter()
            server = start_server(os.path.join(workroot, f"setup{rep}"), spans=False)
            outcome.setup_s.append(time.perf_counter() - t0)

        plan = make_plan(MIX, seconds, seed)
        outcome.attempted = len(plan)
        log(f"{name}: {len(plan)} jobs, set-up median "
            f"{statistics.median(outcome.setup_s):.3f} s")
        records = [None] * len(plan)
        if not traced:
            outcome.wall_s = closed_loop(server, plan, records, outcome, True)
        else:
            # The same ops on a traced twin server, a few at a time in turn
            # with the measured one, so that drift of the host cancels in
            # the tracing overhead.
            shadow = start_server(os.path.join(workroot, "traced"), spans=True)
            t_records = [None] * len(plan)
            for i in range(0, len(plan), CHUNK):
                chunk = plan[i:i + CHUNK]
                outcome.wall_s += closed_loop(server, chunk, records, outcome, True)
                closed_loop(shadow, chunk, t_records, outcome, False)
        outcome.latencies = [r["latency"] for r in records if r is not None]
        outcome.peak_rss_mb = server.peak_rss_mb()
        shutdown_and_check(server, outcome)
        check_results(server, plan, records, graph, outcome)
        server = None

        if traced:
            shutdown_and_check(shadow, outcome)
            for op, a, b in zip(plan, records, t_records):
                if a is not None and b is not None and (
                        a["summary"]["state_sha256"] != b["summary"]["state_sha256"]):
                    outcome.mismatch(f"op {op.index} {op.kind}: traced job result "
                                     "differs from the untraced one")
            outcome.per_layer = _per_layer(shadow, t_records, records)
            shadow = None
    finally:
        for proc in (server, shadow):
            if proc is not None:
                proc.stop()
    outcome.leaks += [f"shared-memory segment left: {p}"
                      for p in sorted(shm_segments() - segments_before)]
    return outcome
