"""In-process sequential execution of the restart portfolio."""

from __future__ import annotations

from typing import Iterable

from repro.sa.backends.base import (
    BackendRun,
    PortfolioPlan,
    RestartTask,
    run_restart,
)


def run_in_process(
    plan: PortfolioPlan, tasks: Iterable[RestartTask], run: BackendRun
) -> None:
    """Run ``tasks`` one after another in this process, into ``run``.

    Restarts the deadline has passed before they start are cancelled
    (restart 0 never is); an exception from a restart propagates.
    """
    for task in tasks:
        if task.restart > 0 and plan.expired():
            run.cancelled += 1
            continue
        run.outcomes.append(
            run_restart(
                plan.coefficients,
                plan.num_sites,
                plan.options,
                task.restart,
                task.seed,
                plan.deadline,
            )
        )


class SerialBackend:
    """Run every restart sequentially in the calling process.

    This is the default for one worker slot and the reference semantics the
    other backends are pinned against: restarts execute in index order,
    and those the deadline has passed before they start are cancelled.
    """

    name = "serial"

    def run(self, plan: PortfolioPlan) -> BackendRun:
        run = BackendRun(outcomes=[], kind=self.name)
        run_in_process(plan, plan.tasks(), run)
        return run
