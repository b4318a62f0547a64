"""The restart envelope codec: one SA restart as a JSON document.

Each restart is serialised into a *task envelope* — a JSON document
built on :class:`~repro.api.request.SolveRequest`'s exact round-trip
format, so a task carries everything a worker needs (instance,
parameters, single-run options, seed) and nothing it doesn't (no pickled
arrays, no process state).  :class:`QueueWorker` decodes the envelope,
rebuilds the coefficients, runs the anneal and returns a *result
envelope*.  Both sides are plain JSON strings.  The ``"process"``
backend (:mod:`repro.sa.transport`) runs task envelopes through a
:class:`QueueWorker` loop in the driver when it has no workers; its
forked workers inherit the plan instead, and send back only the result
envelope.

Determinism contract:

* task envelopes contain only deterministic fields and are dumped with
  sorted keys, so encoding the same restart twice — including on retry,
  whose attempt bookkeeping stays driver-side — yields identical bytes
  (absent a running portfolio deadline, which is folded into the
  per-run ``time_limit`` at dispatch time);
* result envelopes exclude wall-clock measurements, so *replaying* a
  task envelope returns a byte-identical result envelope — retries and
  duplicate deliveries cannot change the portfolio's best.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

import numpy as np

from repro.costmodel.coefficients import CostCoefficients, build_coefficients
from repro.exceptions import OptionsError
from repro.sa.backends.base import RestartOutcome, RestartTask, restart_options
from repro.sa.options import SaOptions

#: Version stamp of both envelope documents.  Version 2 extended the
#: task envelope's options with the transport tuning fields added for
#: the transport (``workers``, ``max_retries``, heartbeat/backoff
#: knobs) — reset to defaults by ``restart_options``, but present in
#: the document, so a version-1 reader would reject the constructor
#: keywords.  Version 3 added the online re-partitioning fields: the
#: ``warm_start`` options keyword (a new ``SaOptions`` constructor
#: argument present in every options document) and, when a migration
#: block is attached, the request's ``current_layout``/
#: ``migration_cost`` members.  Version 4 dropped the ``incremental``
#: options keyword, version 5 the restart-pruning one, and version 6
#: the ``workers`` one.  The transport negotiates this version at
#: connect.
ENVELOPE_FORMAT_VERSION = 6
TASK_KIND = "sa-restart"
RESULT_KIND = "sa-restart-result"


# ----------------------------------------------------------------------
# Task envelopes (driver -> worker)
# ----------------------------------------------------------------------
def encode_restart_task(
    coefficients: CostCoefficients,
    num_sites: int,
    options: SaOptions,
    task: RestartTask,
    remaining: float | None = None,
) -> str:
    """Serialise one restart into its JSON task envelope.

    The payload's ``request`` member is a full
    :class:`~repro.api.request.SolveRequest` document (strategy
    ``"sa"``, single-run options, the task's seed), so the envelope
    round-trips through the same format a service front end would
    accept.  ``remaining`` folds what is left of a portfolio budget into
    the run's ``time_limit`` at dispatch time.  Retry bookkeeping stays
    driver-side (:class:`~repro.sa.backends.retry.RetryTracker`) so a
    retried task re-encodes to the exact same bytes — transports can use
    the envelope itself as a dedup/idempotency key.
    """
    from repro.api.request import SolveRequest

    single = restart_options(options, task.seed, remaining)
    option_fields = asdict(single)
    # disjoint rides on the request's replication mode, exactly like the
    # advisor's "sa" strategy adapter expects it.
    disjoint = option_fields.pop("disjoint")
    # A migration block rides as the request's layout fields; the
    # worker reattaches it canonically (c5 is a pure function of the
    # instance's widths and the layout, so the rebuild is bitwise).
    migration = coefficients.migration
    request = SolveRequest(
        instance=coefficients.instance,
        num_sites=num_sites,
        parameters=coefficients.parameters,
        allow_replication=not disjoint,
        strategy="sa",
        options=option_fields,
        seed=task.seed,
        current_layout=None if migration is None else migration.layout,
        migration_cost=0.0 if migration is None else migration.migration_cost,
    )
    envelope = {
        "format_version": ENVELOPE_FORMAT_VERSION,
        "kind": TASK_KIND,
        "restart": task.restart,
        "request": request.to_dict(),
    }
    return json.dumps(envelope, sort_keys=True)


def decode_restart_task(envelope: str) -> dict[str, Any]:
    """Parse and validate a task envelope (returns the payload dict)."""
    payload = json.loads(envelope)
    version = payload.get("format_version")
    if version != ENVELOPE_FORMAT_VERSION:
        raise OptionsError(
            f"unsupported task envelope format_version {version!r} "
            f"(this build reads version {ENVELOPE_FORMAT_VERSION})"
        )
    if payload.get("kind") != TASK_KIND:
        raise OptionsError(
            f"expected a {TASK_KIND!r} envelope, got kind {payload.get('kind')!r}"
        )
    return payload


# ----------------------------------------------------------------------
# Result envelopes (worker -> driver)
# ----------------------------------------------------------------------
def encode_restart_result(
    restart: int,
    seed: int | None,
    x: np.ndarray,
    y: np.ndarray,
    objective6: float,
    iterations: int,
    accepted: int,
    accepted_worse: int,
    outer_loops: int,
) -> str:
    """Serialise one finished restart.  Deterministic fields only — no
    wall-clock — so replaying a task envelope is byte-identical."""
    envelope = {
        "format_version": ENVELOPE_FORMAT_VERSION,
        "kind": RESULT_KIND,
        "restart": restart,
        "seed": seed,
        "objective6": float(objective6),
        "x": np.asarray(x, dtype=int).tolist(),
        "y": np.asarray(y, dtype=int).tolist(),
        "iterations": int(iterations),
        "accepted": int(accepted),
        "accepted_worse": int(accepted_worse),
        "outer_loops": int(outer_loops),
    }
    return json.dumps(envelope, sort_keys=True)


def decode_restart_result(envelope: str, wall_time: float = 0.0) -> RestartOutcome:
    """Rebuild a :class:`RestartOutcome` from a result envelope.

    ``wall_time`` is supplied by the driver (it is transport-dependent
    and deliberately not part of the wire format).
    """
    payload = json.loads(envelope)
    version = payload.get("format_version")
    if version != ENVELOPE_FORMAT_VERSION:
        raise OptionsError(
            f"unsupported result envelope format_version {version!r} "
            f"(this build reads version {ENVELOPE_FORMAT_VERSION})"
        )
    if payload.get("kind") != RESULT_KIND:
        raise OptionsError(
            f"expected a {RESULT_KIND!r} envelope, got kind {payload.get('kind')!r}"
        )
    return RestartOutcome(
        restart=int(payload["restart"]),
        seed=payload["seed"],
        x=np.asarray(payload["x"], dtype=bool),
        y=np.asarray(payload["y"], dtype=bool),
        objective6=float(payload["objective6"]),
        iterations=int(payload["iterations"]),
        accepted=int(payload["accepted"]),
        accepted_worse=int(payload["accepted_worse"]),
        outer_loops=int(payload["outer_loops"]),
        wall_time=wall_time,
    )


def _check_wire_safe(coefficients: CostCoefficients) -> None:
    """Reject coefficients the wire format cannot represent faithfully.

    A task envelope carries only ``(instance, parameters)`` — the
    :class:`QueueWorker` *rebuilds* the coefficient arrays canonically.
    Coefficients built non-canonically (custom indicators, hand-tweaked
    coefficient arrays) would silently anneal a different problem in the
    process backend's in-driver loop than on the serial one, breaking the
    cross-backend bitwise contract, so that loop refuses them up front.
    One canonical rebuild per in-driver run — the same work the loop
    then does per task.
    """
    rebuilt = build_coefficients(coefficients.instance, coefficients.parameters)
    shipped_arrays = (
        coefficients.c1, coefficients.c2, coefficients.c3, coefficients.c4,
        coefficients.indicators.alpha, coefficients.indicators.beta,
        coefficients.indicators.gamma, coefficients.indicators.delta,
        coefficients.indicators.phi,
    )
    rebuilt_arrays = (
        rebuilt.c1, rebuilt.c2, rebuilt.c3, rebuilt.c4,
        rebuilt.indicators.alpha, rebuilt.indicators.beta,
        rebuilt.indicators.gamma, rebuilt.indicators.delta,
        rebuilt.indicators.phi,
    )
    for shipped, canonical in zip(shipped_arrays, rebuilt_arrays):
        if shipped.shape != canonical.shape or not np.array_equal(
            shipped, canonical
        ):
            raise OptionsError(
                "the process backend's in-driver loop ships (instance, "
                "parameters) in task envelopes and rebuilds coefficients "
                "canonically, but these coefficients differ from "
                "build_coefficients(instance, parameters) — non-canonical "
                "coefficients (custom indicators or edited arrays) need "
                "forked workers or the serial backend (jobs=1)"
            )


class QueueWorker:
    """The worker side of the envelope codec: one envelope in, one out.

    Stateless and pure: the returned result envelope is a function of
    the task envelope alone, which is what makes retries and duplicate
    deliveries safe.  Subclass and override :meth:`run` (calling
    ``super().run``) to inject faults in tests.
    """

    def run(self, envelope: str) -> str:
        from repro.api.request import SolveRequest
        from repro.sa.annealer import SimulatedAnnealer

        payload = decode_restart_task(envelope)
        request = SolveRequest.from_dict(payload["request"])
        options = SaOptions(
            **dict(request.options), disjoint=not request.allow_replication
        )
        coefficients = build_coefficients(request.instance, request.parameters)
        if request.current_layout is not None:
            from repro.costmodel.coefficients import attach_migration

            coefficients = attach_migration(
                coefficients,
                request.current_layout,
                request.migration_cost,
                request.num_sites,
            )
        annealer = SimulatedAnnealer(coefficients, request.num_sites, options)
        x, y, objective6 = annealer.run()
        return encode_restart_result(
            restart=int(payload["restart"]),
            seed=request.seed,
            x=x,
            y=y,
            objective6=objective6,
            iterations=annealer.trace.iterations,
            accepted=annealer.trace.accepted,
            accepted_worse=annealer.trace.accepted_worse,
            outer_loops=annealer.trace.outer_loops,
        )
