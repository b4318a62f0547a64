"""``findSolution(fix)``: optimise the free vector with the other fixed.

With one of ``x`` / ``y`` held constant the quadratic model collapses to
a (generalised-assignment-like) linear problem. Two implementations:

* a vectorised greedy that is exact for the pure-cost part and
  locally optimal for the ``(1 - lambda) * max`` load term, and
* an exact small-MIP solve (what the paper's GLPK sub-solves with a
  30-second budget did).

Both respect the read co-location constraint: with ``x`` fixed, every
attribute read by a transaction is forced onto that transaction's site;
with ``y`` fixed, transactions may only go to sites holding all the
attributes they read.

The balance-aware (``lambda < 1``) placements are greedy scans whose
every decision depends on the loads left by the previous one, so they
cannot be collapsed into one matrix expression without changing the
result.  Candidate masks, orderings and gathers are built vectorised up
front, and the sequential scan itself runs over plain C-double scalars
with an incrementally maintained running max (exact, because loads only
grow), touching numpy once more for the final scatter.  The historical
semantics — one numpy argmin per item — live on as a test-only reference
(``tests/reference_subsolve.py``); the two perform the same IEEE
operations in the same order and give bitwise-equal layouts (pinned in
``tests/test_sa_subsolve.py``).
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.coefficients import CostCoefficients
from repro.exceptions import SolverError
from repro.solver.model import MipModel, RowBlock


class SubproblemSolver:
    """Shared precomputation for the two sub-problems."""

    def __init__(self, coefficients: CostCoefficients, num_sites: int):
        self.coefficients = coefficients
        self.num_sites = num_sites
        self.lam = coefficients.parameters.load_balance_lambda
        self.phi = coefficients.phi_bool.astype(float)  # (|A|, |T|)
        self.c1 = coefficients.c1
        self.c2 = coefficients.c2
        self.c3 = coefficients.c3
        self.c4 = coefficients.c4

    # ------------------------------------------------------------------
    # y given x
    # ------------------------------------------------------------------
    def forced_y(self, x: np.ndarray) -> np.ndarray:
        """Replicas forced by read co-location: ``phi @ x > 0``."""
        return (self.phi @ x.astype(float)) > 0

    def optimize_y_greedy(
        self,
        x: np.ndarray,
        disjoint: bool = False,
        *,
        k: np.ndarray | None = None,
        load_weight: np.ndarray | None = None,
        forced: np.ndarray | None = None,
    ) -> np.ndarray:
        """Best attribute placement for fixed ``x`` (greedy).

        Cost of setting ``y[a,s] = 1`` decomposes into a linear part
        ``k[a,s] = lambda * (c1[:,t] x + c2)`` plus its contribution to
        the max-load term. The greedy places forced replicas, covers
        unplaced attributes at their cheapest site, then adds
        cost-negative replicas while they improve the blended objective.

        ``k`` / ``load_weight`` / ``forced`` may be supplied together
        (e.g. from an :class:`~repro.costmodel.incremental.
        IncrementalEvaluator`) to skip the dense ``c1 @ x`` / ``c3 @ x``
        / ``phi @ x`` products.
        """
        if k is None:
            xs = x.astype(float)
            k = self.lam * (self.c1 @ xs + self.c2[:, None])  # (|A|, |S|)
            load_weight = self.c3 @ xs + self.c4[:, None]  # (|A|, |S|), >= 0
            forced = self.forced_y(x)

        if disjoint:
            return self._disjoint_y(k, load_weight, forced)

        y = forced.copy()
        uncovered = np.flatnonzero(~y.any(axis=1))
        if uncovered.size:
            if self.lam >= 1.0:
                best_site = np.argmin(k[uncovered], axis=1)
                y[uncovered, best_site] = True
            else:
                # Balance-aware covering: charge each site the exact
                # increase of the max load, sequentially (heaviest
                # attributes first so they anchor the balance).
                order = uncovered[
                    np.argsort(-load_weight[uncovered].max(axis=1))
                ]
                self._cover_balance(y, k, load_weight, order)

        candidates = np.argwhere((k < 0) & ~y)
        if candidates.size:
            if self.lam >= 1.0:
                y[candidates[:, 0], candidates[:, 1]] = True
            else:
                self._negative_balance(y, k, load_weight, candidates)
        return y

    # -- balance-aware covering (lambda < 1) ---------------------------
    def _cover_balance(
        self, y: np.ndarray, k: np.ndarray, load_weight: np.ndarray, order: np.ndarray
    ) -> None:
        """Place each attribute of ``order`` at the site minimising
        ``lam * k + (1 - lam) * (increase of the max load)``; a scalar
        scan over pregathered rows."""
        loads = (load_weight * y).sum(axis=0).tolist()
        current_max = max(loads)
        lam = self.lam
        balance = 1.0 - lam
        sites = range(self.num_sites)
        k_rows = k[order].tolist()
        weight_rows = load_weight[order].tolist()
        chosen: list[int] = []
        for k_row, weight_row in zip(k_rows, weight_rows):
            best_site = 0
            best_score = None
            for s in sites:
                lifted = loads[s] + weight_row[s]
                overflow = lifted - current_max if lifted > current_max else 0.0
                score = lam * k_row[s] + balance * overflow
                if best_score is None or score < best_score:
                    best_score = score
                    best_site = s
            chosen.append(best_site)
            lifted = loads[best_site] + weight_row[best_site]
            loads[best_site] = lifted
            # Loads only grow, so the running max is exactly loads.max().
            if lifted > current_max:
                current_max = lifted
        y[order, chosen] = True

    # -- cost-negative replicas (lambda < 1) ---------------------------
    def _negative_balance(
        self,
        y: np.ndarray,
        k: np.ndarray,
        load_weight: np.ndarray,
        candidates: np.ndarray,
    ) -> None:
        """Add the cost-negative replicas, in increasing-``k`` order,
        that still improve the blended objective; a scalar scan over
        pregathered candidates."""
        loads = (load_weight * y).sum(axis=0).tolist()
        current_max = max(loads)
        balance = 1.0 - self.lam
        a_all = candidates[:, 0]
        s_all = candidates[:, 1]
        gains = k[a_all, s_all]
        order = np.argsort(gains)
        a_list = a_all[order].tolist()
        s_list = s_all[order].tolist()
        gain_list = gains[order].tolist()
        weight_list = load_weight[a_all, s_all][order].tolist()
        added_a: list[int] = []
        added_s: list[int] = []
        for a, s, gain, weight in zip(a_list, s_list, gain_list, weight_list):
            lifted = loads[s] + weight
            overflow = lifted - current_max if lifted > current_max else 0.0
            if gain + balance * overflow < 0:
                added_a.append(a)
                added_s.append(s)
                loads[s] = lifted
                if lifted > current_max:
                    current_max = lifted
        if added_a:
            y[added_a, added_s] = True

    def _disjoint_y(
        self, k: np.ndarray, load_weight: np.ndarray, forced: np.ndarray
    ) -> np.ndarray:
        """Single-replica placement; forced sites must be unique per attribute."""
        y = np.zeros_like(forced)
        forced_counts = forced.sum(axis=1)
        conflicted = np.flatnonzero(forced_counts > 1)
        if conflicted.size:
            names = [
                self.coefficients.instance.attributes[a].qualified_name
                for a in conflicted[:5]
            ]
            raise SolverError(
                f"disjoint sub-problem infeasible: attributes {names} are read "
                f"by transactions on different sites"
            )
        has_force = forced_counts == 1
        y[has_force] = forced[has_force]
        free = np.flatnonzero(~has_force)
        if free.size:
            # Same scores as balance-aware covering, over the free set.
            self._cover_balance(y, k, load_weight, free)
        return y

    def optimize_y_exact(
        self, x: np.ndarray, disjoint: bool = False, time_limit: float = 30.0
    ) -> np.ndarray:
        """Exact attribute placement for fixed ``x`` via a small MIP."""
        xs = x.astype(float)
        k = self.lam * (self.c1 @ xs + self.c2[:, None])
        load_weight = self.c3 @ xs + self.c4[:, None]
        forced = self.forced_y(x)
        model = _placement_model(
            "sa-suby", k, load_weight, self.lam,
            lower=forced.astype(float), upper=np.ones_like(k),
            row_upper=1.0 if disjoint else np.inf,
            static=np.zeros(self.num_sites),
        )
        solution = model.solve(time_limit=time_limit)
        if not solution.status.has_solution:
            # Fall back to the greedy rather than losing the iteration.
            return self.optimize_y_greedy(x, disjoint=disjoint)
        return solution.values[:k.size].reshape(k.shape) > 0.5

    # ------------------------------------------------------------------
    # x given y
    # ------------------------------------------------------------------
    def allowed_sites(self, y: np.ndarray) -> np.ndarray:
        """``allowed[t,s]`` — site ``s`` holds every attribute ``t`` reads."""
        missing = self.phi.T @ (1.0 - y.astype(float))  # (|T|, |S|)
        return missing < 0.5

    def repair_y(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Add the replicas needed to make ``(x, y)`` co-location-feasible."""
        return y | self.forced_y(x)

    def optimize_x_greedy(
        self,
        y: np.ndarray,
        *,
        cost: np.ndarray | None = None,
        read_load: np.ndarray | None = None,
        missing: np.ndarray | None = None,
        static_load: np.ndarray | None = None,
    ) -> np.ndarray:
        """Best transaction placement for fixed ``y`` (greedy LPT-style).

        Transactions are placed in decreasing-load order onto the
        allowed site minimising the blended objective increment. If some
        transaction has no allowed site the caller is expected to repair
        ``y`` afterwards (see :meth:`repair_y`); here we pick the site
        with the fewest missing attributes.

        ``cost`` / ``read_load`` / ``missing`` / ``static_load`` may be
        supplied together (e.g. from an incremental evaluator) to skip
        the dense ``c1.T @ y`` / ``c3.T @ y`` / ``phi.T @ (1 - y)``
        products.  With ``lambda >= 1`` site choices decouple and the
        placement is fully vectorised.
        """
        if cost is None:
            ys = y.astype(float)
            cost = self.lam * (self.c1.T @ ys)  # (|T|, |S|)
            read_load = self.c3.T @ ys  # (|T|, |S|)
            missing = self.phi.T @ (1.0 - ys)  # (|T|, |S|)
            static_load = self.c4 @ ys  # static write load per site
        allowed = missing < 0.5
        num_transactions = cost.shape[0]

        if self.lam >= 1.0:
            # Load does not enter the objective: each transaction takes
            # the cheapest allowed site independently (first-index
            # tie-break, matching the sequential loop).
            masked = np.where(allowed, cost, np.inf)
            infeasible = np.flatnonzero(~allowed.any(axis=1))
            if infeasible.size:
                near = missing[infeasible] == missing[infeasible].min(
                    axis=1, keepdims=True
                )
                masked[infeasible] = np.where(near, cost[infeasible], np.inf)
            x = np.zeros((num_transactions, self.num_sites), dtype=bool)
            x[np.arange(num_transactions), masked.argmin(axis=1)] = True
            return x

        order = np.argsort(-read_load.max(axis=1))
        return self._place_x_balance(
            cost, read_load, missing, allowed, static_load, order
        )

    def _place_x_balance(
        self,
        cost: np.ndarray,
        read_load: np.ndarray,
        missing: np.ndarray,
        allowed: np.ndarray,
        static_load: np.ndarray,
        order: np.ndarray,
    ) -> np.ndarray:
        """LPT placement in ``order``: vectorised candidate masks, then a
        scalar scan charging each allowed site its cost plus the
        ``(1 - lam)``-weighted increase of the max load."""
        num_transactions = cost.shape[0]
        x = np.zeros((num_transactions, self.num_sites), dtype=bool)
        candidate_mask = allowed
        infeasible = np.flatnonzero(~allowed.any(axis=1))
        if infeasible.size:
            candidate_mask = allowed.copy()
            candidate_mask[infeasible] = missing[infeasible] == missing[
                infeasible
            ].min(axis=1, keepdims=True)
        loads = np.asarray(static_load, dtype=float).tolist()
        current_max = max(loads)
        balance = 1.0 - self.lam
        sites = range(self.num_sites)
        mask_rows = candidate_mask.tolist()
        cost_rows = cost.tolist()
        read_rows = read_load.tolist()
        order_list = order.tolist()
        chosen: list[int] = []
        for t in order_list:
            mask_row = mask_rows[t]
            cost_row = cost_rows[t]
            read_row = read_rows[t]
            best_site = 0
            best_score = None
            for s in sites:
                if not mask_row[s]:
                    continue
                lifted = loads[s] + read_row[s]
                overflow = lifted - current_max if lifted > current_max else 0.0
                score = cost_row[s] + balance * overflow
                if best_score is None or score < best_score:
                    best_score = score
                    best_site = s
            chosen.append(best_site)
            lifted = loads[best_site] + read_row[best_site]
            loads[best_site] = lifted
            if lifted > current_max:
                current_max = lifted
        x[order_list, chosen] = True
        return x

    def optimize_x_exact(self, y: np.ndarray, time_limit: float = 30.0) -> np.ndarray:
        """Exact transaction placement for fixed ``y`` via a small MIP."""
        ys = y.astype(float)
        cost = self.lam * (self.c1.T @ ys)
        read_load = self.c3.T @ ys
        allowed = self.allowed_sites(y)
        if not allowed.any(axis=1).all():
            # Infeasible under this y; let the greedy pick least-bad sites
            # and have the caller repair y.
            return self.optimize_x_greedy(y)
        model = _placement_model(
            "sa-subx", np.where(allowed, cost, 0.0),
            np.where(allowed, read_load, 0.0), self.lam,
            lower=np.zeros_like(cost), upper=allowed.astype(float),
            row_upper=1.0, static=self.c4 @ ys,
        )
        solution = model.solve(time_limit=time_limit)
        if not solution.status.has_solution:
            return self.optimize_x_greedy(y)
        return solution.values[:cost.size].reshape(cost.shape) > 0.5


def _placement_model(
    name: str,
    prices: np.ndarray,
    load: np.ndarray,
    lam: float,
    lower: np.ndarray,
    upper: np.ndarray,
    row_upper: float,
    static: np.ndarray,
) -> MipModel:
    """The MIP of one exact sub-solve over binary ``v[i, s]``.

    Minimise ``sum prices * v + (1 - lam) * m`` subject to
    ``1 <= sum_s v[i, s] <= row_upper`` per item and, when ``lam < 1``,
    ``sum_i load[i, s] * v[i, s] - m <= -static[s]`` per site.  Columns
    are ``v`` (item-major) then ``m``; rows are the items then the sites.
    """
    num_items, num_sites = prices.shape
    num_v = prices.size
    columns = np.arange(num_v).reshape(num_items, num_sites)
    blocks = [RowBlock(
        np.repeat(np.arange(num_items), num_sites), columns.ravel(),
        np.ones(num_v), np.ones(num_items), np.full(num_items, row_upper),
    )]
    objective = np.zeros(num_v) + prices.ravel()
    lower, upper = lower.ravel(), upper.ravel()
    integrality = np.ones(num_v, dtype=bool)
    if lam < 1.0:
        sites, items = np.nonzero(load.T != 0.0)
        blocks.append(RowBlock(
            np.concatenate([sites, np.arange(num_sites)]),
            np.concatenate([columns[items, sites], np.full(num_sites, num_v)]),
            np.concatenate([load[items, sites], np.full(num_sites, -1.0)]),
            np.full(num_sites, -np.inf), -static,
        ))
        objective = np.append(objective, 1.0 - lam)
        lower, upper = np.append(lower, 0.0), np.append(upper, np.inf)
        integrality = np.append(integrality, False)
    return MipModel(
        name, objective=objective, lower=lower, upper=upper,
        integrality=integrality, blocks=tuple(blocks),
    )
