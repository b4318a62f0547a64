"""Benchmark budgets and profiles."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.exceptions import ReproError
from repro.sa.options import SaOptions

PROFILE_ENV_VAR = "REPRO_BENCH_PROFILE"
#: Override the SA restart portfolio size for a bench run (best-of-N).
RESTARTS_ENV_VAR = "REPRO_BENCH_RESTARTS"
#: Override the SA portfolio worker count for a bench run.
JOBS_ENV_VAR = "REPRO_BENCH_JOBS"
#: Override the portfolio execution backend for a bench run
#: ("serial" or "process"; results are identical
#: whatever the backend — only the execution path changes).
BACKEND_ENV_VAR = "REPRO_BENCH_BACKEND"


@dataclass(frozen=True)
class BenchProfile:
    """Resource budgets for one benchmark run."""

    name: str
    #: Wall-clock budget per QP solve (the paper used 1800 s).
    qp_time_limit: float
    #: MIP gap (the paper used 0.1%).
    qp_gap: float
    #: SA options for ordinary runs.
    sa_options: SaOptions
    #: Include the largest instances (the x100 family, 64-table rows).
    include_large: bool
    #: Table 1 class sizes (#tables = |T|).
    table1_sizes: tuple[int, ...]
    #: Seed for random instances.
    seed: int = 20100116

    def sa_for(self, num_attributes: int) -> SaOptions:
        """SA options, slightly reduced for very large instances."""
        if num_attributes > 500 and self.sa_options.max_outer_loops > 15:
            return replace(self.sa_options, max_outer_loops=15)
        return self.sa_options


QUICK_PROFILE = BenchProfile(
    name="quick",
    qp_time_limit=20.0,
    qp_gap=1e-3,
    sa_options=SaOptions(inner_loops=10, max_outer_loops=20, patience=6, seed=7),
    include_large=False,
    table1_sizes=(20,),
)

PAPER_PROFILE = BenchProfile(
    name="paper",
    qp_time_limit=1800.0,
    qp_gap=1e-3,
    sa_options=SaOptions(inner_loops=20, max_outer_loops=60, patience=10, seed=7),
    include_large=True,
    table1_sizes=(20, 100),
)

_PROFILES = {profile.name: profile for profile in (QUICK_PROFILE, PAPER_PROFILE)}


def _int_env(variable: str) -> int | None:
    value = os.environ.get(variable)
    if value is None or not value.strip():
        return None
    try:
        return int(value)
    except ValueError:
        raise ReproError(
            f"{variable} must be an integer, got {value!r}"
        ) from None


def get_profile(name: str | None = None) -> BenchProfile:
    """Look up a profile by name, falling back to ``REPRO_BENCH_PROFILE``.

    ``REPRO_BENCH_RESTARTS`` / ``REPRO_BENCH_JOBS`` layer a multi-start
    annealing portfolio on top of any profile without editing it:
    best-of-N restarts, optionally across N workers (see
    :mod:`repro.sa.portfolio`); ``REPRO_BENCH_BACKEND`` selects the
    portfolio execution backend (:mod:`repro.sa.backends`).
    """
    if name is None:
        name = os.environ.get(PROFILE_ENV_VAR, "quick")
    try:
        profile = _PROFILES[name]
    except KeyError:
        known = ", ".join(_PROFILES)
        raise ReproError(f"unknown bench profile {name!r}; known: {known}") from None
    overrides = {}
    restarts = _int_env(RESTARTS_ENV_VAR)
    if restarts is not None:
        overrides["restarts"] = restarts
    jobs = _int_env(JOBS_ENV_VAR)
    if jobs is not None:
        overrides["jobs"] = jobs
    backend = os.environ.get(BACKEND_ENV_VAR)
    if backend is not None and backend.strip():
        overrides["backend"] = backend.strip()
    if overrides:
        profile = replace(profile, sa_options=replace(profile.sa_options, **overrides))
    return profile
