"""Job worker entry points: ``python -m repro.service.workermain``.

The supervisor runs one worker per job attempt.  The worker owns the job
while it runs: it heartbeats (a background thread plus every pass
boundary), writes checkpoints/events/report through the store, and on an
exception records the traceback to ``error.json`` before exiting nonzero
so the supervisor can attach it to the ``failed`` state.

Exit codes: 0 success, 1 job raised (traceback recorded), 2 bad usage.

``python -m repro.service.workermain --template`` is the worker
template (:func:`template_main`): a process that has imported the
worker once and forks one child per attempt, each of which runs
:func:`worker_main` exactly as a fresh interpreter would, so attempts
skip the package import.  The template stays single-threaded and never
runs a job itself, so every child starts with the empty process-wide
caches a fresh interpreter has.  It freezes its imported objects out of
garbage collection, so children do not copy the pages they share with
it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import selectors
import signal
import sys
import threading
import traceback
from typing import List, Optional

from .runner import run_job
from .store import ArtifactStore


def worker_main(argv: Optional[List[str]] = None) -> int:
    """Run one job attempt; see module docstring for the protocol."""
    parser = argparse.ArgumentParser(prog="repro.service.workermain")
    parser.add_argument("root", help="artifact store root directory")
    parser.add_argument("job_id")
    parser.add_argument("--heartbeat-interval", type=float, default=1.0)
    parser.add_argument("--memo", default=None,
                        help="shared identification cache directory")
    parser.add_argument("--memo-url", default=None,
                        help="identification memo served over HTTP "
                             "(GET/PUT /memo; overrides --memo)")
    parser.add_argument("--task-worker", action="append", default=[],
                        metavar="URL", dest="task_workers",
                        help="remote fabric worker URL (repeatable): the "
                             "job's candidate evaluation fans out to "
                             "these POST /tasks endpoints")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2

    store = ArtifactStore(args.root)
    if not store.has_job(args.job_id):
        print(f"unknown job {args.job_id!r} in {args.root}", file=sys.stderr)
        return 2

    stop = threading.Event()

    def beat_forever() -> None:
        while not stop.is_set():
            store.heartbeat(args.job_id)
            stop.wait(args.heartbeat_interval)

    memo = args.memo
    if args.memo_url:
        from ..memo.remote import RemoteMemo

        memo = RemoteMemo(args.memo_url)
    fabric = None
    if args.task_workers:
        from ..fabric.remote import RemoteFabric

        fabric = RemoteFabric(args.task_workers)

    store.heartbeat(args.job_id)
    beater = threading.Thread(target=beat_forever, daemon=True)
    beater.start()
    try:
        run_job(store, args.job_id,
                progress=lambda: store.heartbeat(args.job_id),
                memo=memo, fabric=fabric)
        return 0
    except BaseException as exc:  # noqa: BLE001 — the whole point is capture
        store.write_worker_error(
            args.job_id,
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
        )
        return 1
    finally:
        stop.set()
        beater.join(timeout=2.0)


def template_main() -> int:
    """Fork one worker per request until the service closes the template.

    Requests and answers are JSON lines on standard input and output:

    - ``{"fork": argv}`` forks a child that runs ``worker_main(argv)``
      and answers ``{"pid": pid}``, or ``{"error": message}``;
    - ``{"signal": signum, "pid": pid}`` signals that child only if it
      has not been reaped yet, so a pid the supervisor still holds is
      never reused under it;
    - every reaped child is announced as ``{"exit": pid, "code":
      code}``, negative for a signal, as ``Popen.returncode`` is;
    - ``{"close": true}`` ends the template.

    At close, at end of input, once an answer cannot be written, or once
    the parent has died, the template kills its children, reaps them and
    exits.  The parent is checked every second because a process the
    service forked may hold the input pipe open after the service is
    gone.
    """
    # The suite circuits a job names are imported on demand; import them
    # here so that no attempt imports them itself.
    from ..benchcircuits import suite  # noqa: F401

    # A child's garbage collections would visit, and so copy, every page
    # of the objects it shares with the template; frozen, they are
    # skipped, and a forked worker runs a job as fast as a fresh one.
    gc.collect()
    gc.freeze()
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_r, False)
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    selector = selectors.DefaultSelector()
    selector.register(0, selectors.EVENT_READ)
    selector.register(wake_r, selectors.EVENT_READ)
    children = set()
    heard = True  # until an answer cannot be written: the service is gone

    def answer(doc: dict) -> None:
        nonlocal heard
        try:
            os.write(1, json.dumps(doc).encode("utf-8") + b"\n")
        except OSError:
            heard = False

    def fork(argv: List[str]) -> int:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.set_wakeup_fd(-1)
                signal.signal(signal.SIGCHLD, signal.SIG_DFL)
                selector.close()
                os.close(wake_r)
                os.close(wake_w)
                null = os.open(os.devnull, os.O_RDWR)
                for fd in (0, 1, 2):
                    os.dup2(null, fd)
                os.close(null)
                code = worker_main(argv)
            finally:
                os._exit(code)
        children.add(pid)
        return pid

    parent = os.getppid()
    pending = b""
    reading = True
    try:
        while reading and heard:
            events = selector.select(timeout=1.0)
            reading = os.getppid() == parent
            for key, _ in events:
                if key.fd == wake_r:
                    os.read(wake_r, 4096)
                    continue
                chunk = os.read(0, 65536)
                reading = reading and bool(chunk)
                pending += chunk
            *lines, pending = pending.split(b"\n")
            for line in lines:
                request = json.loads(line)
                if "close" in request or not heard:
                    reading = False
                    break
                if "fork" in request:
                    try:
                        answer({"pid": fork(request["fork"])})
                    except OSError as exc:
                        answer({"error": str(exc)})
                elif request["pid"] in children:
                    os.kill(request["pid"], request["signal"])
            while children:
                pid, status = os.waitpid(-1, os.WNOHANG)
                if pid == 0:
                    break
                children.discard(pid)
                answer({"exit": pid,
                        "code": os.waitstatus_to_exitcode(status)})
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        for pid in children:
            os.waitpid(pid, 0)
    return 0


if __name__ == "__main__":  # pragma: no cover — exercised via subprocess
    if sys.argv[1:] == ["--template"]:
        sys.exit(template_main())
    sys.exit(worker_main())
