"""Incremental evaluation of objective (6) for local-search solvers.

The dense :class:`~repro.costmodel.evaluator.SolutionEvaluator` computes
``(|A|, |T|, |S|)`` einsums from scratch on every call, which makes the
simulated annealer's inner loop scale with instance size even when a
move touches a single transaction.  :class:`IncrementalEvaluator`
instead keeps the cost of the *current* solution as mutable state and
updates it in time proportional to the changed rows:

* ``c1x[s, a] = sum_t c1[a, t] x[t, s]`` and the analogous ``c3x`` —
  the ``c1 @ x`` / ``c3 @ x`` products the sub-solver needs — plus
  ``phix[s, a] = sum_t phi[a, t] x[t, s]`` (forced-replica counts for
  read co-location), stored side by side in one ``(|S|, 3|A|)`` block
  matrix so a transaction move is a single scatter matmul,
* ``c1y[s, t] = sum_a c1[a, t] y[a, s]``, ``c3y`` and ``ycov[s, t] =
  sum_a phi[a, t] y[a, s]`` (covered read attributes; ``missing =
  phi_total - ycov``), stored as one ``(|S|, 3|T|)`` block matrix so a
  batch of replica toggles is a single scatter matmul,
* per-site loads split into ``read_load`` (the equation-(5) bilinear
  part) and ``write_load`` (``c4 @ y``),
* the scalars ``bilinear`` (``sum y c1 x``) and ``linear`` (``c2 @
  y.sum(1)``) whose sum is objective (4); the network-transfer totals
  are already folded into ``c1``/``c2`` by the coefficient builder,
* in ``RELEVANT_ATTRIBUTES`` mode, the per-(table-group, site)
  hit-counts and byte-sums from which the exact write accounting is
  reassembled, plus the ``c4 @ y.sum(1)`` overestimate it replaces.

The count blocks ``phix`` / ``ycov`` hold small integers in float64
(exact well below 2**53) so their updates run through BLAS as well.

Invariants (property-tested against the dense evaluator in
``tests/test_incremental.py``):

* after ``reset(x, y)`` or any sequence of mutations, ``objective4()``,
  ``objective6()`` and ``site_loads()`` agree with the dense evaluator
  on the equivalent ``(x, y)`` matrices to ~1e-9 (relative),
* a ``begin_trial`` / ``rollback`` pair restores the state *exactly*
  (bitwise) — rejected annealing moves introduce no float drift,
* block columns of sites that hold no transactions (or no replicas) are
  snapped to exact zero so structural ties between empty sites break
  the same way as in the dense path.

A transaction move costs ``O(|A| + |S|)``, a replica toggle
``O(|T| + |Qw|)``; ``objective6()`` itself is ``O(|S|)``.  Trials
snapshot the state in ``O((|A| + |T|) * |S|)`` — still a factor
``min(|A|, |T|)`` below one dense evaluation.

When the dense path is still used
---------------------------------

The incremental evaluator covers objective (4)/(6) and the greedy
sub-problem inputs.  The dense evaluator remains the single source of
truth and is still used for: the final collapsed-layout guard, the
``subsolver="exact"`` MIP sub-solves, the Appendix-A latency estimate,
cost breakdowns and all reporting.  The tests also run the annealer on
a dense stand-in for this class (``tests/reference_subsolve.py``) and
require the same results.
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.coefficients import CostCoefficients
from repro.costmodel.config import WriteAccounting
from repro.exceptions import InstanceError, SolverError


class IncrementalEvaluator:
    """Mutable cost state for one ``(x, y)`` solution.

    Parameters
    ----------
    coefficients:
        The static cost coefficients (also provide the parameters).
    num_sites:
        Number of sites ``|S|`` of the solutions to be tracked.
    """

    def __init__(self, coefficients: CostCoefficients, num_sites: int):
        if num_sites < 1:
            raise InstanceError(f"need at least one site, got {num_sites}")
        self.coefficients = coefficients
        self.num_sites = num_sites
        parameters = coefficients.parameters
        self._lam = parameters.load_balance_lambda
        self._relevant_mode = (
            parameters.write_accounting is WriteAccounting.RELEVANT_ATTRIBUTES
        )
        self._num_attributes = coefficients.num_attributes
        self._num_transactions = coefficients.num_transactions
        self._c2 = coefficients.c2
        self._c4 = coefficients.c4
        phi = (coefficients.indicators.phi > 0).astype(float)  # (|A|, |T|)
        self._phi_total = phi.sum(axis=0)  # (|T|,) reads per transaction
        #: Static blocks: per attribute the stacked (c1 | c3 | phi) row
        #: of length 3|T|, and per transaction the stacked
        #: (c1.T | c3.T | phi.T) row of length 3|A|.
        self._y_block = np.ascontiguousarray(
            np.hstack((coefficients.c1, coefficients.c3, phi))
        )
        self._x_block = np.ascontiguousarray(
            np.hstack((coefficients.c1.T, coefficients.c3.T, phi.T))
        )
        self._sites_arange = np.arange(num_sites)
        migration = coefficients.migration
        if migration is not None and migration.c5.shape != (
            self._num_attributes,
            num_sites,
        ):
            raise InstanceError(
                f"migration block spans {migration.c5.shape} but the "
                f"evaluator tracks ({self._num_attributes}, {num_sites}); "
                f"rebuild the block for this site count"
            )
        self._c5 = None if migration is None else migration.c5
        #: One-time move bytes of the current y (0.0 without a block);
        #: maintained through the same signed y-deltas as the linear
        #: term, snapshotted with the scalars for bitwise rollback.
        self._migration = 0.0
        if self._relevant_mode:
            self._group = coefficients.attribute_group  # (|A|,)
            self._num_groups = coefficients.group_onehot.shape[0]
            self._upd = np.ascontiguousarray(
                (coefficients.write_updates > 0).astype(np.int64)
            )  # (|A|, |Qw|)
            self._wbytes = coefficients.write_weights  # (|A|, |Qw|)
        self._snapshot: dict | None = None
        self._initialized = False

    # ------------------------------------------------------------------
    # Views into the stacked state blocks
    # ------------------------------------------------------------------
    @property
    def _c1x(self) -> np.ndarray:  # (|S|, |A|)
        return self._xstate[:, : self._num_attributes]

    @property
    def _c3x(self) -> np.ndarray:
        return self._xstate[:, self._num_attributes : 2 * self._num_attributes]

    @property
    def _phix(self) -> np.ndarray:
        return self._xstate[:, 2 * self._num_attributes :]

    @property
    def _c1y(self) -> np.ndarray:  # (|S|, |T|)
        return self._ystate[:, : self._num_transactions]

    @property
    def _c3y(self) -> np.ndarray:
        return self._ystate[:, self._num_transactions : 2 * self._num_transactions]

    @property
    def _ycov(self) -> np.ndarray:
        return self._ystate[:, 2 * self._num_transactions :]

    # ------------------------------------------------------------------
    # (Re)initialisation
    # ------------------------------------------------------------------
    def reset(self, x: np.ndarray, y: np.ndarray) -> None:
        """Rebuild the full state from dense ``(x, y)`` matrices.

        ``x`` must place every transaction on exactly one site; ``y``
        may be any 0/1 matrix (the cost formulas do not require
        coverage).  Cost: one pass of the dense products,
        ``O(|A| * |T| * |S|)``.
        """
        coeff = self.coefficients
        x = np.asarray(x)
        y = np.asarray(y)
        if x.shape != (coeff.num_transactions, self.num_sites):
            raise InstanceError(
                f"x must have shape ({coeff.num_transactions}, {self.num_sites}), "
                f"got {x.shape}"
            )
        if y.shape != (coeff.num_attributes, self.num_sites):
            raise InstanceError(
                f"y must have shape ({coeff.num_attributes}, {self.num_sites}), "
                f"got {y.shape}"
            )
        placed = np.asarray(x, dtype=float).sum(axis=1)
        if np.any(placed != 1.0):
            bad = int(np.flatnonzero(placed != 1.0)[0])
            raise InstanceError(
                f"transaction {coeff.instance.transactions[bad].name!r} is on "
                f"{placed[bad]:g} sites (incremental state needs exactly 1)"
            )
        xs = np.asarray(x, dtype=float)
        ys = np.asarray(y, dtype=float)
        self._home = np.ascontiguousarray(x.argmax(axis=1), dtype=np.intp)
        # Unconditional copy: the evaluator mutates this array in place
        # and must never alias the caller's solution.
        self._y = np.array(y, dtype=bool, order="C", copy=True)
        self._xstate = np.ascontiguousarray(xs.T @ self._x_block)  # (|S|, 3|A|)
        self._ystate = np.ascontiguousarray(ys.T @ self._y_block)  # (|S|, 3|T|)
        replica_counts = ys.sum(axis=1)
        self._site_tx = np.bincount(self._home, minlength=self.num_sites)
        self._site_rep = self._y.sum(axis=0).astype(np.int64)
        arange_t = np.arange(coeff.num_transactions)
        self._bilinear = float(self._c1y[self._home, arange_t].sum())
        self._linear = float(self._c2 @ replica_counts)
        self._migration = (
            0.0 if self._c5 is None else float((self._c5 * ys).sum())
        )
        self._read_load = np.zeros(self.num_sites)
        np.add.at(self._read_load, self._home, self._c3y[self._home, arange_t])
        self._write_load = self._c4 @ ys  # (|S|,)
        if self._relevant_mode:
            self._overestimate = float(self._c4 @ replica_counts)
            num_writes = self._upd.shape[1]
            # hit[g, s, q] / wbyte[g, s, q]: per table-group and site,
            # the count of updated attributes present and the byte sum
            # of present fractions, per write query.
            self._hit = np.zeros(
                (self._num_groups, self.num_sites, num_writes), dtype=np.int64
            )
            self._wbyte = np.zeros((self._num_groups, self.num_sites, num_writes))
            present = self._y.astype(np.int64)
            np.add.at(
                self._hit,
                self._group,
                present[:, :, None] * self._upd[:, None, :],
            )
            np.add.at(
                self._wbyte,
                self._group,
                ys[:, :, None] * self._wbytes[:, None, :],
            )
            self._relevant = float(self._wbyte[self._hit > 0].sum())
        self._snapshot = None
        self._initialized = True
        self._snap_empty_sites(self._sites_arange)

    # ------------------------------------------------------------------
    # Read accessors
    # ------------------------------------------------------------------
    def objective4(self) -> float:
        """The paper's objective (4) of the current state."""
        total = self._bilinear + self._linear
        if self._relevant_mode:
            total += self._relevant_total() - self._overestimate
        if self._c5 is not None:
            total += self._migration
        return total

    def objective6(self) -> float:
        """The blended objective (6) of the current state."""
        cost = self.objective4()
        if self._lam == 1.0:
            return cost
        return self._lam * cost + (1.0 - self._lam) * self.max_load()

    def site_loads(self) -> np.ndarray:
        """Equation (5) per-site loads (a fresh array)."""
        return self._read_load + self._write_load

    def max_load(self) -> float:
        return float((self._read_load + self._write_load).max())

    def x_matrix(self) -> np.ndarray:
        """The current ``x`` as a dense boolean matrix (fresh array)."""
        x = np.zeros((self._home.shape[0], self.num_sites), dtype=bool)
        x[np.arange(self._home.shape[0]), self._home] = True
        return x

    def y_matrix(self) -> np.ndarray:
        """The current ``y`` as a dense boolean matrix (fresh copy)."""
        return self._y.copy()

    def forced_y(self) -> np.ndarray:
        """Replicas forced by read co-location under the current ``x``:
        ``(|A|, |S|)`` boolean, equals ``phi @ x > 0``."""
        return (self._phix > 0).T

    # ------------------------------------------------------------------
    # Sub-problem inputs (replacing the sub-solver's dense matmuls)
    # ------------------------------------------------------------------
    def y_subproblem_inputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(k, load_weight, forced)`` for ``optimize_y_greedy`` under
        the current ``x`` — the products the dense path recomputes as
        ``c1 @ x`` / ``c3 @ x`` / ``phi @ x`` every call."""
        k = self._lam * (self._c1x.T + self._c2[:, None])
        load_weight = self._c3x.T + self._c4[:, None]
        return k, load_weight, self.forced_y()

    def x_subproblem_inputs(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(cost, read_load, missing, static_load)`` for
        ``optimize_x_greedy`` under the current ``y``."""
        cost = self._lam * self._c1y.T
        read_load = np.ascontiguousarray(self._c3y.T)
        missing = np.ascontiguousarray((self._phi_total[None, :] - self._ycov).T)
        return cost, read_load, missing, self._write_load.copy()

    # ------------------------------------------------------------------
    # Trial protocol
    # ------------------------------------------------------------------
    _SNAP_ARRAYS = (
        "_home",
        "_y",
        "_xstate",
        "_ystate",
        "_site_tx",
        "_site_rep",
        "_read_load",
        "_write_load",
    )
    _SNAP_SCALARS = ("_bilinear", "_linear", "_migration")

    def begin_trial(self) -> None:
        """Snapshot the state; ``rollback`` restores it bitwise."""
        self._require_initialized()
        if self._snapshot is not None:
            raise SolverError("begin_trial called with a trial already open")
        snapshot = {name: getattr(self, name).copy() for name in self._SNAP_ARRAYS}
        for name in self._SNAP_SCALARS:
            snapshot[name] = getattr(self, name)
        if self._relevant_mode:
            snapshot["_overestimate"] = self._overestimate
            snapshot["_relevant"] = self._relevant
            snapshot["_hit"] = self._hit.copy()
            snapshot["_wbyte"] = self._wbyte.copy()
        self._snapshot = snapshot

    def commit(self) -> None:
        """Keep the trial's mutations; drop the snapshot."""
        if self._snapshot is None:
            raise SolverError("commit called without begin_trial")
        self._snapshot = None

    def rollback(self) -> None:
        """Discard the trial's mutations; restore the snapshot exactly."""
        if self._snapshot is None:
            raise SolverError("rollback called without begin_trial")
        for name, value in self._snapshot.items():
            setattr(self, name, value)
        self._snapshot = None

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def move_transactions(self, transactions, new_sites) -> None:
        """Relocate ``transactions[i]`` to ``new_sites[i]``.

        Transactions already on their target site are skipped; a
        transaction listed twice resolves to its last target.  Cost
        ``O(moved * |A|)``.
        """
        self._require_initialized()
        ts = np.asarray(transactions, dtype=np.intp).ravel()
        sites = np.asarray(new_sites, dtype=np.intp).ravel()
        if ts.size == 0:
            return
        if np.unique(ts).size != ts.size:
            _, first_of_reversed = np.unique(ts[::-1], return_index=True)
            keep = ts.size - 1 - first_of_reversed
            ts, sites = ts[keep], sites[keep]
        changed = self._home[ts] != sites
        if not changed.all():
            ts, sites = ts[changed], sites[changed]
        if ts.size:
            self._move(ts, sites)

    def set_replicas(self, attributes, sites, value: bool) -> None:
        """Set ``y[attributes[i], sites[i]] = value`` for each pair.

        Pairs already at ``value`` are skipped; duplicate pairs are
        applied once.  Cost ``O(toggled * (|T| + |Qw|))``.
        """
        self._require_initialized()
        a_arr = np.asarray(attributes, dtype=np.intp).ravel()
        s_arr = np.asarray(sites, dtype=np.intp).ravel()
        if a_arr.size == 0:
            return
        a_arr, s_arr = self._unique_pairs(a_arr, s_arr)
        changed = self._y[a_arr, s_arr] != value
        if not changed.all():
            a_arr, s_arr = a_arr[changed], s_arr[changed]
        if a_arr.size:
            signs = np.full(a_arr.shape, 1.0 if value else -1.0)
            self._apply_y_diff(a_arr, s_arr, signs)

    def assign_x(self, x_new: np.ndarray) -> None:
        """Diff ``x_new`` against the current placement and apply the
        moves; cost proportional to the changed transactions."""
        self._require_initialized()
        new_home = np.asarray(x_new).argmax(axis=1)
        moved = np.flatnonzero(new_home != self._home)
        if moved.size:
            self._move(moved, new_home[moved])

    def assign_y(self, y_new: np.ndarray) -> None:
        """Diff ``y_new`` against the current replication and apply the
        toggles; cost proportional to the changed entries."""
        self._require_initialized()
        y_new = np.asarray(y_new, dtype=bool)
        diff_a, diff_s = np.nonzero(self._y != y_new)
        if diff_a.size:
            signs = np.where(y_new[diff_a, diff_s], 1.0, -1.0)
            self._apply_y_diff(diff_a, diff_s, signs)

    # ------------------------------------------------------------------
    # Delta APIs
    # ------------------------------------------------------------------
    def delta_move_transactions(self, transactions, new_sites) -> float:
        """Apply the moves and return the change in objective (6).

        The mutation is kept; wrap in ``begin_trial``/``rollback`` to
        probe a candidate without committing it.
        """
        before = self.objective6()
        self.move_transactions(transactions, new_sites)
        return self.objective6() - before

    def delta_toggle_replicas(self, attributes, sites) -> float:
        """Flip ``y`` at each ``(attribute, site)`` pair (duplicates
        are flipped once) and return the change in objective (6).  Same
        trial semantics as :meth:`delta_move_transactions`."""
        self._require_initialized()
        before = self.objective6()
        a_arr = np.asarray(attributes, dtype=np.intp).ravel()
        s_arr = np.asarray(sites, dtype=np.intp).ravel()
        if a_arr.size:
            a_arr, s_arr = self._unique_pairs(a_arr, s_arr)
            signs = np.where(self._y[a_arr, s_arr], -1.0, 1.0)
            self._apply_y_diff(a_arr, s_arr, signs)
        return self.objective6() - before

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _unique_pairs(
        self, a_arr: np.ndarray, s_arr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        keys = a_arr * self.num_sites + s_arr
        if np.unique(keys).size != keys.size:
            _, unique_index = np.unique(keys, return_index=True)
            a_arr, s_arr = a_arr[unique_index], s_arr[unique_index]
        return a_arr, s_arr

    def _move(self, ts: np.ndarray, sites: np.ndarray) -> None:
        """Apply moves; ``ts`` distinct, all targets differ from home."""
        old_sites = self._home[ts].copy()
        # Signed per-site scatter in one matmul over the stacked block:
        # weight[s, i] = [sites[i] == s] - [old_sites[i] == s].
        weight = (sites[None, :] == self._sites_arange[:, None]).astype(float)
        weight -= old_sites[None, :] == self._sites_arange[:, None]
        self._xstate += weight @ self._x_block[ts]
        c1y, c3y = self._c1y, self._c3y
        self._bilinear += float(c1y[sites, ts].sum() - c1y[old_sites, ts].sum())
        both = np.concatenate((sites, old_sites))
        self._read_load += np.bincount(
            both,
            weights=np.concatenate((c3y[sites, ts], -c3y[old_sites, ts])),
            minlength=self.num_sites,
        )
        self._site_tx += np.bincount(sites, minlength=self.num_sites)
        self._site_tx -= np.bincount(old_sites, minlength=self.num_sites)
        self._home[ts] = sites
        self._snap_empty_sites(both)

    def _apply_y_diff(
        self, a_arr: np.ndarray, s_arr: np.ndarray, signs: np.ndarray
    ) -> None:
        """Toggle distinct ``(a, s)`` pairs: ``+1`` adds a replica that
        is absent, ``-1`` removes one that is present."""
        onehot = (s_arr[None, :] == self._sites_arange[:, None]) * signs[None, :]
        self._ystate += onehot @ self._y_block[a_arr]
        c1x_gather = self._c1x[s_arr, a_arr]
        c3x_gather = self._c3x[s_arr, a_arr]
        self._bilinear += float(signs @ c1x_gather)
        self._linear += float(signs @ self._c2[a_arr])
        if self._c5 is not None:
            self._migration += float(signs @ self._c5[a_arr, s_arr])
        self._read_load += np.bincount(
            s_arr, weights=signs * c3x_gather, minlength=self.num_sites
        )
        c4_gather = self._c4[a_arr]
        self._write_load += np.bincount(
            s_arr, weights=signs * c4_gather, minlength=self.num_sites
        )
        # signs are exactly +-1.0, so the float bincount is integral.
        self._site_rep += np.bincount(
            s_arr, weights=signs, minlength=self.num_sites
        ).astype(np.int64)
        self._y[a_arr, s_arr] = signs > 0
        if self._relevant_mode:
            self._overestimate += float(signs @ c4_gather)
            steps = signs.astype(np.int64)
            g_arr = self._group[a_arr]
            # Only the touched (group, site) rows can change the exact
            # write accounting: difference their contribution around the
            # scatter so objective4 stays O(1) for the relevant term.
            _, unique_index = np.unique(
                g_arr * self.num_sites + s_arr, return_index=True
            )
            g_rows = g_arr[unique_index]
            s_rows = s_arr[unique_index]
            touched_hit = self._hit[g_rows, s_rows]
            touched_bytes = self._wbyte[g_rows, s_rows]
            self._relevant -= float(touched_bytes[touched_hit > 0].sum())
            np.add.at(self._hit, (g_arr, s_arr), steps[:, None] * self._upd[a_arr])
            np.add.at(
                self._wbyte, (g_arr, s_arr), signs[:, None] * self._wbytes[a_arr]
            )
            touched_hit = self._hit[g_rows, s_rows]
            touched_bytes = self._wbyte[g_rows, s_rows]
            self._relevant += float(touched_bytes[touched_hit > 0].sum())
        self._snap_empty_sites(s_arr)

    def _relevant_total(self) -> float:
        """Section 2.1's exact write accounting: a scalar maintained by
        differencing the touched (group, site) rows of the hit/byte
        tensors on each toggle (transaction moves cannot change it)."""
        return self._relevant

    def _snap_empty_sites(self, sites: np.ndarray) -> None:
        """Zero the block columns of sites holding no transactions or
        no replicas, so they match the dense path exactly and stay free
        of accumulated round-off.  ``sites`` may contain duplicates."""
        no_tx = sites[self._site_tx[sites] == 0]
        if no_tx.size:
            self._xstate[no_tx] = 0.0
            self._read_load[no_tx] = 0.0
        no_rep = sites[self._site_rep[sites] == 0]
        if no_rep.size:
            self._ystate[no_rep] = 0.0
            self._write_load[no_rep] = 0.0
            self._read_load[no_rep] = 0.0

    def _require_initialized(self) -> None:
        if not self._initialized:
            raise SolverError("IncrementalEvaluator used before reset(x, y)")
