"""The daemon's worker-process loop.

Each worker attaches the published :class:`SharedCSRGraph` once (O(1),
zero-copy), then serves task tuples read from its one connection to the
daemon:

    (request_id, attempt, part_index, config, snapshot_steps)

``config`` is the part's :class:`~repro.core.session.EstimationConfig`,
built daemon-side from the request's resolved config.  A task opens a
streaming estimator session on it (:func:`repro.estimators.prepare`)
and drains it in ``snapshot_steps`` chunks, sending a ``("partial",
...)`` frame after every chunk but the last and a ``("done", ...)``
frame with the finished estimate back on the same connection.  An
in-process ``repro.estimate`` drains the same session in one chunk, and
the chunking cannot move a bit of the result (pinned by the streamed
vs. one-shot tests in ``tests/test_estimators_api.py``), which is what
makes the daemon's answers match in-process ``repro.estimate`` exactly.

Between chunks the worker reads whatever else the daemon has sent: the
running task's request id means it was cancelled (timeout, early stop,
shutdown), and the task stops mid-walk with a ``("skipped", ...)``
frame so the daemon can hand the worker its next task.  Every frame
carries the task's ``attempt`` counter, so the daemon can drop frames of
a part that has since been requeued, keeping execution at-most-once per
chain seed.

``None`` is the pill: read while idle, the worker closes its graph
mapping and exits; read mid-part, it exits after answering that part.
"""

from __future__ import annotations

import traceback

from ..estimators import prepare
from ..graphs.csr import CSRGraph


def _run_task(graph, task, conn, inbox: list) -> tuple:
    """Run one task, sending its partial frames; returns its closing
    frame.  What else the daemon sends meanwhile goes to ``inbox``."""
    request_id, attempt, part, config, snapshot_steps = task
    head = (request_id, attempt, part)
    try:
        session = prepare(graph, config)
        while True:
            session.step(min(snapshot_steps, session.remaining))
            while conn.poll():
                inbox.append(conn.recv())
            if request_id in inbox:
                return ("skipped", *head)
            if session.done:
                return ("done", *head, session.result())
            conn.send(("partial", *head, session.snapshot()))
    except Exception:
        return ("error", *head, traceback.format_exc())


def worker_main(handle, conn) -> None:
    """Entry point of one daemon worker process."""
    graph = CSRGraph.from_shared(handle)
    try:
        task = conn.recv()
        while task is not None:
            if isinstance(task, str):  # a cancel for a part already answered
                task = conn.recv()
                continue
            inbox: list = []
            conn.send(_run_task(graph, task, conn, inbox))
            task = None if None in inbox else conn.recv()
    except (EOFError, OSError):  # the daemon closed its end
        pass
    finally:
        graph.close()
