"""Test-only reference implementations of the SA hot paths.

Production keeps one implementation of each; these are the plain
versions the tests and benchmarks compare it against:

* :class:`LoopSubproblemSolver` — the balance-aware (``lambda < 1``)
  greedy placements as one numpy argmin per item, the historical
  semantics the scalar scans of
  :class:`~repro.sa.subsolve.SubproblemSolver` must match bitwise;
* :class:`DenseState` — the methods the annealer calls on its
  :class:`~repro.costmodel.incremental.IncrementalEvaluator`, each
  recomputed densely.  Substituted for
  ``repro.sa.annealer.IncrementalEvaluator`` it runs the annealer on
  the dense evaluator end to end.
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.coefficients import CostCoefficients
from repro.costmodel.evaluator import SolutionEvaluator
from repro.sa.subsolve import SubproblemSolver


class LoopSubproblemSolver(SubproblemSolver):
    """The balance-aware placements as per-item numpy loops."""

    def _cover_balance(self, y, k, load_weight, order):
        loads = (load_weight * y).sum(axis=0)
        for a in order:
            current_max = loads.max()
            delta = np.maximum(loads + load_weight[a], current_max)
            delta -= current_max
            score = self.lam * k[a] + (1.0 - self.lam) * delta
            site = int(np.argmin(score))
            y[a, site] = True
            loads[site] += load_weight[a, site]

    def _negative_balance(self, y, k, load_weight, candidates):
        loads = (load_weight * y).sum(axis=0)
        order = np.argsort(k[candidates[:, 0], candidates[:, 1]])
        for idx in order:
            a, s = candidates[idx]
            gain = k[a, s]
            current_max = loads.max()
            new_max = max(current_max, loads[s] + load_weight[a, s])
            delta = gain + (1.0 - self.lam) * (new_max - current_max)
            if delta < 0:
                y[a, s] = True
                loads[s] += load_weight[a, s]

    def _place_x_balance(
        self, cost, read_load, missing, allowed, static_load, order
    ):
        x = np.zeros((cost.shape[0], self.num_sites), dtype=bool)
        loads = static_load.copy()
        for t in order:
            if allowed[t].any():
                candidate_sites = np.flatnonzero(allowed[t])
            else:
                min_missing = missing[t].min()
                candidate_sites = np.flatnonzero(missing[t] == min_missing)
            current_max = loads.max()
            delta = np.maximum(
                loads[candidate_sites] + read_load[t, candidate_sites],
                current_max,
            ) - current_max
            score = cost[t, candidate_sites] + (1.0 - self.lam) * delta
            best = candidate_sites[np.argmin(score)]
            x[t, best] = True
            loads[best] += read_load[t, best]
        return x


class DenseState:
    """The annealer's view of an incremental evaluator, recomputed densely.

    Every query re-derives its answer from the current ``(x, y)`` with
    the same expressions the sub-solver uses when it gets no
    precomputed inputs, and prices objective (6) with the dense
    :class:`~repro.costmodel.evaluator.SolutionEvaluator`.
    """

    def __init__(self, coefficients: CostCoefficients, num_sites: int):
        self.coefficients = coefficients
        self.evaluator = SolutionEvaluator(coefficients)
        self.lam = coefficients.parameters.load_balance_lambda
        self.phi = coefficients.phi_bool.astype(float)
        self._saved = None

    def reset(self, x: np.ndarray, y: np.ndarray) -> None:
        self.x, self.y = x, y

    def assign_x(self, x: np.ndarray) -> None:
        self.x = x

    def assign_y(self, y: np.ndarray) -> None:
        self.y = y

    def begin_trial(self) -> None:
        self._saved = (self.x, self.y)

    def commit(self) -> None:
        self._saved = None

    def rollback(self) -> None:
        self.x, self.y = self._saved
        self._saved = None

    def objective6(self) -> float:
        return self.evaluator.objective6(self.x, self.y)

    def forced_y(self) -> np.ndarray:
        return (self.phi @ self.x.astype(float)) > 0

    def y_subproblem_inputs(self):
        c = self.coefficients
        xs = self.x.astype(float)
        k = self.lam * (c.c1 @ xs + c.c2[:, None])
        return k, c.c3 @ xs + c.c4[:, None], self.forced_y()

    def x_subproblem_inputs(self):
        c = self.coefficients
        ys = self.y.astype(float)
        return (
            self.lam * (c.c1.T @ ys),
            c.c3.T @ ys,
            self.phi.T @ (1.0 - ys),
            c.c4 @ ys,
        )
