"""Concurrent portfolio execution over a ``concurrent.futures`` pool.

Workers default to processes (the annealing inner loop is Python-bound,
so threads cannot scale it) with the coefficients shipped once per
worker; environments that cannot fork/pickle fall back to threads, and
an explicit ``backend="thread"`` forces the fallback.

Outcomes are collected in the submitting process as their futures
complete; once the deadline passes, futures that have not started are
cancelled (``Future.cancel`` is a no-op on running work, so the deadline
can only ever skip restarts).
"""

from __future__ import annotations

import ctypes
import os
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait

from repro.costmodel.coefficients import CostCoefficients
from repro.exceptions import SolverError
from repro.sa.backends.base import BackendRun, PortfolioPlan, RestartOutcome, run_restart
from repro.sa.options import SaOptions

# -- process-pool plumbing (state shipped once per worker) --------------
_WORKER_STATE: dict = {}


def _init_worker(
    coefficients: CostCoefficients, num_sites: int, options: SaOptions
) -> None:
    _single_thread_blas()
    _WORKER_STATE["args"] = (coefficients, num_sites, options)


def _single_thread_blas() -> None:
    """Run this worker's OpenBLAS on one thread.

    A forked worker inherits its parent's BLAS threads, so ``jobs``
    workers would run ``jobs`` times that many on the same cores.
    numpy's wheels export the setter from the OpenBLAS their extension
    module links; other builds may not, and then nothing changes.
    """
    try:
        from numpy._core import _multiarray_umath

        library = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return
    setter = getattr(library, "scipy_openblas_set_num_threads64_", None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def _run_restart_in_worker(
    restart: int, seed: int | None, deadline: float | None
) -> RestartOutcome:
    coefficients, num_sites, options = _WORKER_STATE["args"]
    return run_restart(coefficients, num_sites, options, restart, seed, deadline)


class ProcessPoolBackend:
    """Fan restarts out over ``options.jobs`` workers.

    ``use_threads=True`` skips the process pool entirely (registered as
    the ``"thread"`` backend); otherwise threads are only the fallback
    when the platform cannot fork/pickle.
    """

    name = "process"

    def __init__(self, use_threads: bool = False):
        self.use_threads = use_threads
        if use_threads:
            self.name = "thread"

    def _make_executor(self, plan: PortfolioPlan):
        """Process pool when the platform allows it, threads otherwise."""
        jobs = plan.jobs
        if self.use_threads:
            return ThreadPoolExecutor(max_workers=jobs), "thread"
        executor = None
        try:
            executor = ProcessPoolExecutor(
                max_workers=jobs,
                initializer=_init_worker,
                initargs=(plan.coefficients, plan.num_sites, plan.options),
            )
            # Surface fork/pickling failures now, not at result time.
            executor.submit(os.getpid).result(timeout=30)
            return executor, "process"
        except Exception as error:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            warnings.warn(
                f"SA portfolio falling back to threads (GIL-bound; expect "
                f"little speedup from jobs={jobs}): process pool unavailable "
                f"({type(error).__name__}: {error})",
                RuntimeWarning,
                stacklevel=2,
            )
            return ThreadPoolExecutor(max_workers=jobs), "thread"

    def run(self, plan: PortfolioPlan) -> BackendRun:
        executor, kind = self._make_executor(plan)
        run = BackendRun(outcomes=[], kind=kind)
        deadline = plan.deadline
        with executor:
            if kind == "process":
                futures = {
                    executor.submit(
                        _run_restart_in_worker, task.restart, task.seed, deadline
                    ): task.restart
                    for task in plan.tasks()
                }
            else:
                futures = {
                    executor.submit(
                        run_restart, plan.coefficients, plan.num_sites,
                        plan.options, task.restart, task.seed, deadline,
                    ): task.restart
                    for task in plan.tasks()
                }
            pending = set(futures)
            while pending:
                timeout = None
                if deadline is not None:
                    timeout = plan.remaining()
                done, pending = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        outcome = future.result()
                    except Exception as error:
                        # A worker process that dies mid-restart (OOM
                        # kill, segfault, os._exit) breaks the whole
                        # pool; unlike the socket backend there
                        # is no envelope to requeue, so fail loudly with
                        # the restart index instead of returning a
                        # silently incomplete best-of-N.
                        raise SolverError(
                            f"{kind} pool worker failed restart "
                            f"{futures[future]}: "
                            f"{type(error).__name__}: {error}"
                        ) from error
                    run.outcomes.append(outcome)
                if deadline is not None and plan.expired():
                    # Budget spent: cancel restarts that have not started;
                    # already-running stragglers stop through their own
                    # wall-clock guard and are still collected (blocking
                    # from here on — the deadline has done its job).
                    for future in list(pending):
                        if future.cancel():
                            pending.discard(future)
                            run.cancelled += 1
                    deadline = None
        run.outcomes.sort(key=lambda outcome: outcome.restart)
        return run
