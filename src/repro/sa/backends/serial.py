"""In-process sequential execution of the restart portfolio."""

from __future__ import annotations

from repro.sa.backends.base import BackendRun, PortfolioPlan, run_restart


class SerialBackend:
    """Run every restart sequentially in the calling process.

    This is the default for one worker slot and the reference semantics the
    other backends are pinned against: restarts execute in index order,
    and those the deadline has passed before they start are cancelled.
    """

    name = "serial"

    def run(self, plan: PortfolioPlan) -> BackendRun:
        run = BackendRun(outcomes=[], kind=self.name)
        for task in plan.tasks():
            if task.restart > 0 and plan.expired():
                run.cancelled += 1
                continue
            outcome = run_restart(
                plan.coefficients,
                plan.num_sites,
                plan.options,
                task.restart,
                task.seed,
                plan.deadline,
            )
            run.outcomes.append(outcome)
        return run
