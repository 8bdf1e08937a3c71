"""Process-backed grading workers with deadline kills and respawn.

The batch pipeline's :class:`~concurrent.futures.ProcessPoolExecutor`
is the wrong tool for an always-on service: it cannot cancel a running
job, and killing a worker poisons the whole pool.  This pool manages
its workers directly — one long-lived process per slot, each with a
private pipe — so a request that blows through its deadline is ended
by killing *that* worker and respawning it, while every other in-flight
request keeps running.

Deadlines are two-layered, mirroring the batch pipeline's
``max_seconds`` guard:

* the **cooperative** deadline travels with the job; the child's
  grading phases and matcher search loop check it and return a
  ``timeout`` report quickly — the cheap, common path;
* the **hard** deadline (cooperative + a grace period) is enforced
  parent-side with a pipe poll; if the child has not answered by then
  it is assumed wedged (C-level loop, pathological parse) and killed.

Workers keep one grader per assignment alive across requests, built by
:func:`~repro.core.profile.build_grader` from the pool's
:class:`~repro.core.profile.GradingProfile`, so pattern search plans,
assignment state and cluster buckets are reused for the whole worker
lifetime, not rebuilt per request.  With a ``store_root`` the graders
share the service's result store: cluster bucket records and the
repair corpus persist there.  The content-keyed result cache lives in
the *parent* (the service), in front of this pool.

Workers are forked where the platform can fork and spawned elsewhere;
either way every job runs in a process the parent can kill.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import resource_tracker

from repro.core.pipeline import _grade_one
from repro.core.profile import GradingProfile, build_grader
from repro.core.report import GradingReport
from repro.instrumentation import PhaseCollector
from repro.kb import get_assignment

#: Extra wall-clock seconds the parent grants beyond the cooperative
#: deadline before it kills the worker.
KILL_GRACE_SECONDS = 0.5


@dataclass
class PoolResult:
    """One grading job's outcome as seen by the service."""

    report: GradingReport
    #: Child-side phase timings/counters; ``None`` when the worker was
    #: killed before answering (its partial stats die with it).
    collector: PhaseCollector | None
    seconds: float
    #: True when the hard deadline killed the worker (the report is a
    #: parent-synthesized ``timeout``).
    killed: bool = False


def _timeout_report(
    assignment_name: str, max_seconds: float | None
) -> GradingReport:
    detail = (
        f"grading exceeded the {max_seconds:g}s deadline and the "
        "worker was terminated"
        if max_seconds is not None
        else "grading exceeded its deadline and the worker was terminated"
    )
    return GradingReport(assignment_name=assignment_name, timeout=detail)


# -- child side ----------------------------------------------------------

def _close_inherited_fds(keep: frozenset[int]) -> None:
    """Close fds a forked worker inherited but does not own.

    A fork copies *every* open parent fd: sibling workers' pipes (whose
    stray write ends stop a dead sibling's sentinel from ever firing,
    stalling ``Process.join``) and live client sockets (whose stray
    dups suppress the EOF clients expect after the parent closes a
    connection).  Only the worker's own pipe, its parent sentinel, and
    stdio survive.  Best-effort: without procfs this is a no-op.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):  # pragma: no cover - no procfs
        return
    for fd in fds:
        if fd > 2 and fd not in keep:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass


class _Graders:
    """Per-assignment graders, built on first use, that run pool jobs.

    Each worker process owns one set.  Jobs are ``(assignment_name,
    source, max_seconds, hang_seconds)`` and results ``(report,
    collector, seconds)``.  ``hang_seconds`` is the load-test hook: it
    stalls the worker *before* grading, standing in for the
    pathological submission the hard deadline exists for.
    """

    def __init__(
        self,
        profile: GradingProfile,
        store_root: str | None,
    ):
        self.profile = profile
        self.store_root = store_root
        self._graders: dict[str, object] = {}

    def run(self, job: tuple) -> tuple[GradingReport, PhaseCollector, float]:
        assignment_name, source, max_seconds, hang_seconds = job
        try:
            if hang_seconds:
                time.sleep(hang_seconds)
            grader = self._graders.get(assignment_name)
            if grader is None:
                assignment = get_assignment(assignment_name)
                store = (
                    self.profile.open_store(self.store_root, assignment)
                    if self.store_root is not None
                    else None
                )
                grader = build_grader(assignment, self.profile, store)
                self._graders[assignment_name] = grader
            return _grade_one(grader, source, max_seconds)
        except Exception as exc:  # noqa: BLE001 - keep the worker alive
            return (
                GradingReport(
                    assignment_name=assignment_name,
                    error=f"{type(exc).__name__}: {exc}",
                ),
                PhaseCollector(),
                0.0,
            )


def _worker_main(conn, graders: _Graders) -> None:
    """Child loop: one job at a time until the ``None`` sentinel."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent drives shutdown
    keep = {conn.fileno()}
    parent = multiprocessing.parent_process()
    if parent is not None and parent.sentinel is not None:
        keep.add(parent.sentinel)
    tracker_fd = getattr(
        getattr(resource_tracker, "_resource_tracker", None), "_fd", None
    )
    if tracker_fd is not None:
        keep.add(tracker_fd)
    _close_inherited_fds(frozenset(keep))
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:
            return
        result = graders.run(job)
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            return


# -- parent side ---------------------------------------------------------

class _WorkerHandle:
    """One worker process + its pipe; used by one request at a time."""

    #: Serializes forks: two handles created concurrently from executor
    #: threads must not leak each other's pipe/sentinel fds into their
    #: children, or a dead worker's sentinel never fires and ``join``
    #: stalls for its full timeout.
    _spawn_lock = threading.Lock()

    def __init__(self, context, graders: _Graders):
        self._context = context
        with self._spawn_lock:
            parent_conn, child_conn = context.Pipe(duplex=True)
            self.conn = parent_conn
            self.process = context.Process(
                target=_worker_main,
                args=(child_conn, graders),
                daemon=True,
            )
            self.process.start()
            child_conn.close()

    def execute(
        self,
        assignment_name: str,
        source: str,
        max_seconds: float | None,
        hang_seconds: float,
        hard_timeout: float | None,
    ) -> tuple[PoolResult, bool]:
        """Run one job (blocking); returns ``(result, worker_dead)``."""
        started = time.perf_counter()
        try:
            self.conn.send((assignment_name, source, max_seconds,
                            hang_seconds))
            if self.conn.poll(hard_timeout):
                report, collector, seconds = self.conn.recv()
                return PoolResult(report, collector, seconds), False
        except Exception as exc:  # noqa: BLE001 - never reuse this handle
            # the exchange did not complete: the pipe may still hold the
            # lost job's reply, which the next job would read as its own
            self.terminate()
            elapsed = time.perf_counter() - started
            return (
                PoolResult(
                    GradingReport(
                        assignment_name=assignment_name,
                        error=f"grading worker lost: {exc!r}",
                    ),
                    None,
                    elapsed,
                ),
                True,
            )
        # hard deadline: the worker is wedged — kill it
        self.terminate()
        elapsed = time.perf_counter() - started
        return (
            PoolResult(
                _timeout_report(assignment_name, max_seconds),
                None,
                elapsed,
                killed=True,
            ),
            True,
        )

    def terminate(self) -> None:
        try:
            self.process.kill()
            self.process.join(timeout=1)
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass

    def shutdown(self) -> None:
        """Polite stop: sentinel, short join, then kill."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=2)
        if self.process.is_alive():
            self.terminate()
        else:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover
                pass


class GradingWorkerPool:
    """Fixed-size pool of grading workers behind an asyncio free-list.

    :meth:`grade` takes a free worker, runs the blocking pipe exchange
    in a thread, and returns the worker — or its freshly-spawned
    replacement after a kill — to the free-list.  Capacity is exactly
    ``workers``: callers queue on the free-list, and the service's
    admission controller bounds how many may wait.
    """

    def __init__(
        self,
        workers: int = 2,
        store_root: str | None = None,
        profile: GradingProfile = GradingProfile(),
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.profile = profile
        self.store_root = store_root
        self.respawns = 0
        self._free: asyncio.Queue = asyncio.Queue()
        self._executor: ThreadPoolExecutor | None = None
        self._context = None
        self._started = False

    def _spawn_handle(self) -> _WorkerHandle:
        graders = _Graders(self.profile, self.store_root)
        return _WorkerHandle(self._context, graders)

    async def start(self) -> None:
        if self._started:
            return
        # +workers threads so respawns never wait behind executions
        self._executor = ThreadPoolExecutor(
            max_workers=2 * self.workers,
            thread_name_prefix="repro-serve-pool",
        )
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        loop = asyncio.get_running_loop()
        handles = await asyncio.gather(*[
            loop.run_in_executor(self._executor, self._spawn_handle)
            for _ in range(self.workers)
        ])
        for handle in handles:
            self._free.put_nowait(handle)
        self._started = True

    async def grade(
        self,
        assignment_name: str,
        source: str,
        max_seconds: float | None,
        hang_seconds: float = 0.0,
    ) -> PoolResult:
        """Grade one submission on the next free worker."""
        if not self._started:
            raise RuntimeError("pool not started")
        handle = await self._free.get()
        loop = asyncio.get_running_loop()
        try:
            hard_timeout = (
                max_seconds + KILL_GRACE_SECONDS
                if max_seconds is not None
                else None
            )
            result, worker_dead = await loop.run_in_executor(
                self._executor, handle.execute,
                assignment_name, source, max_seconds, hang_seconds,
                hard_timeout,
            )
            if worker_dead:
                self.respawns += 1
                handle = await loop.run_in_executor(
                    self._executor, self._spawn_handle
                )
            return result
        finally:
            self._free.put_nowait(handle)

    async def stop(self) -> None:
        """Shut every worker down; in-flight jobs should be done."""
        if not self._started:
            return
        self._started = False
        loop = asyncio.get_running_loop()
        shutdowns = []
        while not self._free.empty():
            handle = self._free.get_nowait()
            shutdowns.append(
                loop.run_in_executor(self._executor, handle.shutdown)
            )
        if shutdowns:
            await asyncio.gather(*shutdowns, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
