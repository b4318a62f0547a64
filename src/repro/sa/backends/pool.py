"""Concurrent portfolio execution over a ``concurrent.futures`` process pool.

Workers are forked (the annealing inner loop is Python-bound, so
threads cannot scale it), which hands each one the coefficients without
pickling them or re-importing the package.  Where the platform cannot
fork, the portfolio runs serially instead, with a ``RuntimeWarning``.

Outcomes are collected in the submitting process as their futures
complete; once the deadline passes, futures that have not started are
cancelled (``Future.cancel`` is a no-op on running work, so the deadline
can only ever skip restarts).
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from repro.costmodel.coefficients import CostCoefficients
from repro.exceptions import SolverError
from repro.sa.backends.base import BackendRun, PortfolioPlan, RestartOutcome, run_restart
from repro.sa.backends.serial import SerialBackend
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
    """Fan restarts out over ``plan.jobs`` forked worker processes."""

    name = "process"

    @staticmethod
    def _make_executor(plan: PortfolioPlan) -> ProcessPoolExecutor | None:
        """A forked process pool, or ``None`` where one cannot start."""
        executor = None
        try:
            executor = ProcessPoolExecutor(
                max_workers=plan.jobs,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(plan.coefficients, plan.num_sites, plan.options),
            )
            # Surface fork failures now, not at result time.
            executor.submit(os.getpid).result(timeout=30)
            return executor
        except Exception as error:
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            warnings.warn(
                f"SA portfolio running serially: process pool unavailable "
                f"({type(error).__name__}: {error})",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def run(self, plan: PortfolioPlan) -> BackendRun:
        executor = self._make_executor(plan)
        if executor is None:
            return SerialBackend().run(plan)
        run = BackendRun(outcomes=[], kind=self.name)
        deadline = plan.deadline
        with executor:
            futures = {
                executor.submit(
                    _run_restart_in_worker, task.restart, task.seed, deadline
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
                            f"process pool worker failed restart "
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
