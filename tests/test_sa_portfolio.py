"""The multi-start annealing portfolio and its options plumbing."""

import time

import numpy as np
import pytest

from repro.costmodel.coefficients import build_coefficients
from repro.costmodel.config import CostParameters
from repro.exceptions import OptionsError, SolverError
from repro.sa import options as sa_options
from repro.sa.options import SaOptions
from repro.sa.portfolio import derive_restart_seeds, run_portfolio
from repro.sa.solver import SaPartitioner, solve_sa
from tests.conftest import small_random_instance

FAST = dict(inner_loops=6, max_outer_loops=6)


@pytest.fixture(scope="module")
def coefficients():
    instance = small_random_instance(5, num_tables=4, max_attributes_per_table=8)
    return build_coefficients(instance, CostParameters())


class TestSeedDerivation:
    def test_restart_zero_keeps_master_seed(self):
        assert derive_restart_seeds(42, 4)[0] == 42

    def test_seeds_pairwise_distinct(self):
        seeds = derive_restart_seeds(7, 64)
        assert len(set(seeds)) == 64

    def test_deterministic_per_master_seed(self):
        assert derive_restart_seeds(7, 8) == derive_restart_seeds(7, 8)
        assert derive_restart_seeds(7, 8) != derive_restart_seeds(8, 8)

    def test_prefix_stable_as_restarts_grow(self):
        assert derive_restart_seeds(3, 8)[:4] == derive_restart_seeds(3, 4)

    def test_none_master_seed_gives_none_first(self):
        seeds = derive_restart_seeds(None, 3)
        assert seeds[0] is None
        assert len(set(seeds[1:])) == 2

    def test_invalid_restarts_rejected(self):
        with pytest.raises(SolverError, match="restarts"):
            derive_restart_seeds(0, 0)


class TestDeterminism:
    def test_same_result_for_jobs_1_and_4(self, coefficients):
        results = {}
        for jobs in (1, 4):
            portfolio = run_portfolio(
                coefficients, 3,
                SaOptions(seed=11, restarts=4, jobs=jobs, **FAST),
            )
            results[jobs] = portfolio
        assert results[1].objective6 == results[4].objective6
        assert results[1].best_restart == results[4].best_restart
        np.testing.assert_array_equal(results[1].x, results[4].x)
        np.testing.assert_array_equal(results[1].y, results[4].y)
        assert results[1].restart_objectives == results[4].restart_objectives

    def test_restarts_1_matches_single_run(self, coefficients):
        options = SaOptions(seed=11, **FAST)
        single = SaPartitioner(coefficients, 3, options=options).solve()
        portfolio = SaPartitioner(
            coefficients, 3,
            options=SaOptions(seed=11, restarts=1, jobs=1, **FAST),
        ).solve()
        assert portfolio.objective == single.objective
        np.testing.assert_array_equal(portfolio.x, single.x)
        np.testing.assert_array_equal(portfolio.y, single.y)

    def test_best_of_n_never_worse_than_master_seed_run(self, coefficients):
        """Restart 0 reuses the master seed, so best-of-N <= single run."""
        single = SaPartitioner(
            coefficients, 3, options=SaOptions(seed=13, **FAST)
        ).solve()
        portfolio = SaPartitioner(
            coefficients, 3,
            options=SaOptions(seed=13, restarts=4, **FAST),
        ).solve()
        assert (
            portfolio.metadata["objective6"]
            <= single.metadata["objective6"] + 1e-9
        )

    def test_best_restart_is_argmin_of_objectives(self, coefficients):
        portfolio = run_portfolio(
            coefficients, 3, SaOptions(seed=2, restarts=5, **FAST)
        )
        objectives = portfolio.restart_objectives
        assert portfolio.objective6 == min(objectives)
        assert portfolio.best_restart == objectives.index(min(objectives))


class TestDefaultJobs:
    """An unset ``jobs`` runs the portfolio on the usable cores, capped
    by ``restarts``, and answers exactly as ``jobs=1`` does."""

    @staticmethod
    def _solve(coefficients, **options):
        options = SaOptions(seed=11, restarts=4, **options, **FAST)
        return SaPartitioner(coefficients, 3, options=options).solve()

    def test_one_core_runs_serial(self, coefficients, monkeypatch):
        monkeypatch.setattr(sa_options, "usable_cores", lambda: 1)
        result = self._solve(coefficients)
        assert result.metadata["executor"] == "serial"
        assert result.metadata["jobs"] == 1

    def test_two_cores_run_the_pool_bitwise_equal_to_serial(
        self, coefficients, monkeypatch
    ):
        monkeypatch.setattr(sa_options, "usable_cores", lambda: 2)
        result = self._solve(coefficients)
        assert result.metadata["executor"] == "process"
        assert result.metadata["jobs"] == 2
        serial = self._solve(coefficients, jobs=1)
        assert serial.metadata["executor"] == "serial"
        np.testing.assert_array_equal(result.x, serial.x)
        np.testing.assert_array_equal(result.y, serial.y)
        assert result.objective == serial.objective
        assert result.metadata["objective6"] == serial.metadata["objective6"]

    def test_default_is_capped_by_restarts(self, monkeypatch):
        monkeypatch.setattr(sa_options, "usable_cores", lambda: 8)
        assert SaOptions(restarts=4).effective_jobs == 4
        assert SaOptions().effective_jobs == 1

    def test_explicit_jobs_keep_their_value(self, monkeypatch):
        monkeypatch.setattr(sa_options, "usable_cores", lambda: 1)
        assert SaOptions(restarts=2, jobs=3).effective_jobs == 3

    def test_no_fork_means_serial(self, monkeypatch):
        monkeypatch.setattr(sa_options, "usable_cores", lambda: 4)
        monkeypatch.delattr(sa_options.os, "fork")
        assert SaOptions(restarts=4).effective_jobs == 1


class TestPortfolioFacade:
    def test_metadata_records_portfolio(self, coefficients):
        result = SaPartitioner(
            coefficients, 3,
            options=SaOptions(seed=1, restarts=3, jobs=2, **FAST),
        ).solve()
        assert result.solver == "sa"
        assert result.metadata["restarts"] == 3
        assert result.metadata["jobs"] == 2
        assert len(result.metadata["restart_seeds"]) == 3
        assert len(set(result.metadata["restart_seeds"])) == 3
        assert result.metadata["executor"] == "process"
        assert result.metadata["iterations"] > 0

    def test_solve_sa_restart_overrides(self):
        instance = small_random_instance(5, num_tables=4, max_attributes_per_table=8)
        result = solve_sa(
            instance, 2,
            options=SaOptions(**FAST),
            seed=0, restarts=2, jobs=1,
        )
        assert result.metadata["restarts"] == 2

    def test_disjoint_portfolio(self, coefficients):
        result = SaPartitioner(
            coefficients, 2,
            options=SaOptions(seed=4, restarts=3, disjoint=True, **FAST),
        ).solve()
        assert result.metadata["restarts"] == 3
        assert (result.y.sum(axis=1) == 1).all()


class TestTimeBudget:
    def test_expired_budget_still_returns_solution(self, coefficients):
        """A tiny portfolio budget returns the guarded collapsed layout."""
        portfolio = run_portfolio(
            coefficients, 3,
            SaOptions(
                seed=0, restarts=6, portfolio_time_limit=1e-6,
                inner_loops=50, max_outer_loops=50,
            ),
        )
        assert portfolio.outcomes  # restart 0 always runs
        assert np.isfinite(portfolio.objective6)
        assert portfolio.cancelled >= 1

    def test_parallel_degenerate_budget_bounded_and_counted(self, coefficients):
        """Even when the workers outlast the budget and every restart is
        cancelled, the inline restart-0 fallback exits through the
        collapsed guard (bounded, no unbudgeted full anneal) and the
        outcome/cancelled accounting stays consistent."""
        started = time.perf_counter()
        portfolio = run_portfolio(
            coefficients, 3,
            SaOptions(
                seed=9, restarts=4, jobs=2, portfolio_time_limit=1e-9,
                inner_loops=2000, max_outer_loops=2000, patience=2000,
            ),
        )
        elapsed = time.perf_counter() - started
        assert portfolio.outcomes
        assert np.isfinite(portfolio.objective6)
        assert len(portfolio.outcomes) + portfolio.cancelled == 4
        # Bounded: nothing ran an unbudgeted 2000x2000-iteration anneal.
        assert elapsed < 60.0

    def test_parallel_budget_cancels_pending(self, coefficients):
        portfolio = run_portfolio(
            coefficients, 3,
            SaOptions(
                seed=0, restarts=8, jobs=2, portfolio_time_limit=0.05,
                inner_loops=200, max_outer_loops=200, patience=200,
            ),
        )
        assert np.isfinite(portfolio.objective6)
        assert len(portfolio.outcomes) + portfolio.cancelled == 8


class TestOptionsValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(restarts=0), "restarts"),
            (dict(restarts=-3), "restarts"),
            (dict(jobs=0), "jobs"),
            (dict(jobs=-1), "jobs"),
            (dict(portfolio_time_limit=0.0), "portfolio_time_limit"),
            (dict(portfolio_time_limit=-5.0), "portfolio_time_limit"),
            (dict(time_limit=-1.0), "time_limit"),
            (dict(exact_time_limit=0.0), "exact_time_limit"),
            (dict(patience=0), "patience"),
            (dict(inner_loops=0), "inner_loops"),
            (dict(heartbeat_timeout=0.0), "heartbeat_timeout"),
            (dict(heartbeat_timeout=-1.0), "heartbeat_timeout"),
        ],
    )
    def test_bad_options_raise_eagerly(self, kwargs, match):
        with pytest.raises(OptionsError, match=match):
            SaOptions(**kwargs)

    def test_options_error_is_a_solver_error(self):
        with pytest.raises(SolverError):
            SaOptions(jobs=-1)

    def test_partitioner_validates_before_running(self, coefficients):
        """SaPartitioner re-validates eagerly — construction fails, not
        ``solve()`` minutes in (object.__new__ dodges __post_init__ to
        emulate options arriving from a deserialisation path)."""
        options = SaOptions()
        broken = object.__new__(SaOptions)
        object.__setattr__(broken, "__dict__", dict(options.__dict__))
        object.__setattr__(broken, "restarts", -2)
        with pytest.raises(OptionsError, match="restarts"):
            SaPartitioner(coefficients, 2, options=broken)

    def test_zero_time_limit_still_legal(self):
        """time_limit=0 forces the immediate-timeout exit path used by
        the annealer guard tests; it must stay constructible."""
        assert SaOptions(time_limit=0.0).time_limit == 0.0
