"""The retry/requeue core of the fault-tolerant process backend.

:class:`~repro.sa.transport.socket_backend.SocketTransportBackend`
obeys this contract when a worker fails mid-restart: the restart is
requeued and retried — safely, because a restart's outcome is a pure
function of ``(restart, seed, single-run options)``, so the retry
reproduces exactly the outcome the failed attempt would have returned —
until the per-restart attempt budget (``max_retries`` failed attempts)
is spent, at which point the portfolio fails with
:class:`~repro.exceptions.SolverError`.  A silently lost restart would
change the best-of-N result, which the determinism contract forbids.

Retries wait out an exponential backoff whose jitter is *deterministic*,
derived from the restart's seed and the attempt number — so a retry
storm spreads out in wall-clock without introducing any nondeterminism
into scheduling decisions that tests replay.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import OptionsError, SolverError

#: Backoff delays never exceed this many seconds, however many attempts.
BACKOFF_CAP = 30.0


def validate_max_retries(max_retries: int) -> int:
    """Check a ``max_retries`` budget eagerly, before any solve starts.

    A negative budget is a configuration error, not "never retry" —
    that is what ``0`` means — so it raises
    :class:`~repro.exceptions.OptionsError` instead of silently
    disabling the fault tolerance the caller asked for.
    """
    if not isinstance(max_retries, int) or isinstance(max_retries, bool):
        raise OptionsError(
            f"max_retries must be an integer >= 0, got {max_retries!r}"
        )
    if max_retries < 0:
        raise OptionsError(
            f"max_retries must be >= 0, got {max_retries} "
            f"(0 means failed restarts are never retried)"
        )
    return max_retries


def backoff_delay(
    attempt: int,
    base: float,
    seed: int | None = None,
    restart: int = 0,
    cap: float = BACKOFF_CAP,
) -> float:
    """Seconds to wait before retry ``attempt`` (1-based) of a restart.

    Exponential in the attempt number with a multiplicative jitter in
    ``[0.5, 1.5)`` drawn from an RNG keyed on ``(seed, attempt)`` — the
    restart's own seed, or its index when the portfolio runs unseeded —
    so the delay is a deterministic function of the task, not of
    wall-clock or scheduling races.
    """
    if base <= 0:
        return 0.0
    entropy = restart if seed is None else seed
    rng = np.random.default_rng([abs(int(entropy)), int(attempt)])
    jitter = 0.5 + rng.random()
    return min(cap, base * (2.0 ** (attempt - 1)) * jitter)


class RetryTracker:
    """Driver-side bookkeeping of failed restart attempts.

    Attempt counts stay on the driver; a TASK frame carries only the
    restart.
    """

    def __init__(
        self,
        max_retries: int,
        backoff_base: float = 0.0,
        label: str = "worker",
    ):
        self.max_retries = validate_max_retries(max_retries)
        self.backoff_base = backoff_base
        self.label = label
        #: Per-restart *failed* attempt counts; fault-free restarts
        #: never appear here.
        self.failures: dict[int, int] = {}
        #: Total requeues granted (failed attempts that got a retry).
        self.requeues: int = 0

    @property
    def retried_restarts(self) -> int:
        """Distinct restarts that failed at least once."""
        return len(self.failures)

    @property
    def total_failures(self) -> int:
        """Failed attempts across all restarts."""
        return sum(self.failures.values())

    def record_failure(
        self, restart: int, seed: int | None, error: BaseException | str
    ) -> float:
        """Count one failed attempt; return the backoff delay in seconds
        before the restart may be retried.

        Raises :class:`~repro.exceptions.SolverError` naming the failing
        restart once its ``max_retries + 1`` attempts are spent.
        """
        failed = self.failures.get(restart, 0) + 1
        self.failures[restart] = failed
        if failed > self.max_retries:
            reason = (
                f"{type(error).__name__}: {error}"
                if isinstance(error, BaseException)
                else str(error)
            )
            failure = SolverError(
                f"{self.label} failed restart {restart} {failed} times "
                f"(max_retries={self.max_retries}): {reason}"
            )
            if isinstance(error, BaseException):
                raise failure from error
            raise failure
        self.requeues += 1
        return backoff_delay(
            failed, self.backoff_base, seed=seed, restart=restart
        )
