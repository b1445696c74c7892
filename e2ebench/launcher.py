"""Start the graph service the way ``repro serve`` does, optionally traced.

    python3 e2ebench/launcher.py --data-dir DIR [--spans FILE]

Without ``--spans`` this is ``repro serve --port 0`` with the default
settings (two job slots, fsync on).  With ``--spans`` it first wraps the
service's public entry points — ``GraphService.submit``,
``JobJournal.append``, ``GraphRegistry.get``, ``supervised_run``,
``save_checkpoint``, ``numpy.save`` and the object engine's
``NondeterministicEngine.run`` — keeps one span per call in memory, and
writes them to FILE as JSON once the server has drained after SIGTERM.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


class SpanLog:
    """Spans ``[name, job, thread, depth, t0, t1, detail]`` on the wall
    clock (``time.time()``, the clock of the journal's ``finished_at``);
    ``detail`` is the record type of a journal append."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def current_job(self):
        return getattr(self._local, "job", None)

    def set_job(self, job):
        self._local.job = job

    def wrap(self, name, fn, job_of=None, detail_of=None):
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = log._local
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            t0 = time.time()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.time()
                local.depth = depth
            job = job_of(args, kwargs, out) if job_of else log.current_job()
            detail = detail_of(args) if detail_of else None
            with log._lock:
                log.spans.append([name, job, threading.get_ident(), depth,
                                  t0, t1, detail])
            return out

        return wrapper


def install(log: SpanLog) -> None:
    import numpy

    import repro.engine.nondet_engine as nondet_engine
    import repro.robust.supervisor as supervisor
    import repro.storage.checkpoint as checkpoint
    from repro.service.graphs import GraphRegistry
    from repro.service.journal import JobJournal
    from repro.service.scheduler import GraphService

    base_append = JobJournal.append

    def append(self, record_type, **fields):
        # A worker thread journals "start" before it runs a job: from
        # then on, its calls belong to that job.
        if record_type == "start":
            log.set_job(fields.get("job"))
        return base_append(self, record_type, **fields)

    JobJournal.append = log.wrap(
        "service.journal_append", append,
        job_of=lambda a, kw, out: kw.get("job") or log.current_job(),
        detail_of=lambda a: a[1])
    GraphService.submit = log.wrap(
        "service.submit", GraphService.submit, job_of=lambda a, kw, out: out)
    GraphRegistry.get = log.wrap("graph.registry_get", GraphRegistry.get)
    supervisor.supervised_run = log.wrap("robust.supervised_run",
                                         supervisor.supervised_run)
    checkpoint.save_checkpoint = log.wrap("storage.checkpoint_save",
                                          checkpoint.save_checkpoint)
    numpy.save = log.wrap("service.result_write", numpy.save)
    nondet_engine.NondeterministicEngine.run = log.wrap(
        "engine.run", nondet_engine.NondeterministicEngine.run)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    from repro.service.http import serve

    log = SpanLog()
    if args.spans:
        install(log)
    code = serve(args.data_dir, port=0)
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(log.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
