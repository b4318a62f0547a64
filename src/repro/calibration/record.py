"""Turning a served :class:`~repro.api.report.SolveReport` into evidence.

:func:`observation_from_report` is the single place that knows how to
read calibration signals out of a report: the resolved strategy chain,
the portfolio execution backend, the linearised model size (when any
stage computed one), the end-to-end wall time and the objective
normalised by the single-site baseline.  The advisor's opt-in recording
hook (``Advisor(calibration=...)``) calls it after every serve; the
``bench calibrate`` target calls it for its equal-budget sweeps.

Recording never touches the request: calibration is advisor-side state,
so request canonical JSON — and with it the service's coalescing and
result-cache keys — stays byte-stable whether or not a table is
attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.calibration.table import (
    NO_BACKEND,
    CalibrationTable,
    Observation,
    instance_class,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.report import SolveReport


def observation_from_report(report: "SolveReport") -> Observation:
    """Distil one report into an :class:`Observation`.

    ``quality`` is ``objective / single-site objective`` on the report's
    own coefficients (the baseline every bench table already prints);
    ``variables`` is the size of the unreduced linearised model, the one
    ``auto``'s cutoff compares, when a stage estimated it (``auto``'s
    cutoff probe, the QP's ``unreduced_variables`` stamp), else
    ``None``.
    """
    from repro.partition.assignment import single_site_partitioning

    request = report.request
    result = report.result
    metadata = result.metadata
    variables = metadata.get(
        "auto_model_variables", metadata.get("unreduced_variables")
    )
    quality = None
    try:
        baseline = single_site_partitioning(result.coefficients).objective
    except Exception:
        baseline = 0.0  # e.g. exotic coefficients; skip the normalisation
    if baseline > 0:
        quality = result.objective / baseline
    return Observation(
        strategy=report.strategy,
        backend=str(metadata.get("executor", NO_BACKEND)),
        instance_class=instance_class(
            request.instance.num_attributes, request.instance.num_transactions
        ),
        num_sites=request.num_sites,
        wall_time=report.wall_time,
        objective=result.objective,
        quality=quality,
        variables=None if variables is None else int(variables),
        restarts=int(metadata.get("restarts", 1)),
        seed=request.seed,
        request_key=request.canonical_key(),
    )


def record(table: CalibrationTable, report: "SolveReport") -> Observation:
    """Record one report into ``table``; returns the stored observation."""
    observation = observation_from_report(report)
    table.add(observation)
    return observation
