"""Server child of the edge workloads.

Run as ``python -m perfbench.serve_child serve --collection PATH ...``: it
imports the program, prints ``perfbench-stamp <time.monotonic()>`` and
hands its arguments to ``repro.cli.main``.  The edge workloads time
``setup_s`` from that stamp, so the interpreter start and the imports stay
out of it while collection loading, server and worker start count.

When the benchmark sets ``PERFBENCH_SESSION_IDS`` to ``<seed>:<workers>``
with at least one worker, the cluster edge takes its session ids from
:class:`SessionIds` instead of :mod:`secrets`, which pins which worker
serves which session.

When the benchmark sets ``PERFBENCH_TRACE_DIR``, the layer wrappers of
:mod:`perfbench.trace` are installed at import and the spans are written
into that directory at exit.  Cluster workers are started with the
``spawn`` method, which re-imports this module as ``__mp_main__``, so each
worker installs the same wrappers.
"""

from __future__ import annotations

import os
import random
import secrets
import sys
import time

from perfbench import trace

trace.install_from_env()

SESSION_IDS_ENV = "PERFBENCH_SESSION_IDS"


class SessionIds:
    """Seeded stand-in for :mod:`secrets` in :mod:`repro.serve.cluster`.

    The cluster routes a session by a hash of its random id, so with
    random ids the worker that serves a session, and how often the two
    sessions in flight share a worker, change from run to run.  These ids
    come from a seeded generator and are dealt round-robin: the k-th
    session created goes to worker k mod N.  Every run of a seed places
    its sessions alike, and the first N sessions (the warm-up that ends
    set-up) reach every worker.
    """

    def __init__(self, seed: int, workers: int) -> None:
        self._rng = random.Random(seed)
        self._workers = workers
        self._created = 0

    def token_hex(self, nbytes: int) -> str:
        from repro.serve.cluster import worker_index_for

        wanted = self._created % self._workers
        self._created += 1
        while True:
            sid = f"{self._rng.getrandbits(8 * nbytes):0{2 * nbytes}x}"
            if worker_index_for(sid, self._workers) == wanted:
                return sid

    def __getattr__(self, name: str):
        return getattr(secrets, name)


def main() -> int:
    import repro.cli
    import repro.serve  # noqa: F401  (the serve command imports it lazily)
    import repro.serve.cluster

    seed, _, workers = os.environ.get(SESSION_IDS_ENV, "0:0").partition(":")
    if int(workers) > 0:
        repro.serve.cluster.secrets = SessionIds(int(seed), int(workers))
    print(f"perfbench-stamp {time.monotonic()!r}", flush=True)
    return repro.cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
