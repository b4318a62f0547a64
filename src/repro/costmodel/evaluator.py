"""Evaluate candidate solutions ``(x, y)`` under the cost model.

``x`` is a boolean/0-1 array of shape ``(|T|, |S|)`` (transaction
placement), ``y`` of shape ``(|A|, |S|)`` (attribute placement, possibly
replicated). The evaluator computes:

* objective (4) — the "actual cost" the paper reports in every table,
* the blended objective (6) — what the solvers minimise,
* the breakdown ``A = AR + AW`` and ``B`` (transfer bytes),
* per-site loads (equation (5)),
* the Appendix-A latency estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.costmodel.coefficients import CostCoefficients
from repro.costmodel.config import WriteAccounting
from repro.exceptions import InstanceError


@dataclass(frozen=True)
class CostBreakdown:
    """Full decomposition of a solution's cost."""

    objective4: float
    objective6: float
    read_access: float  # AR
    write_access: float  # AW
    transfer: float  # B (unweighted by p)
    site_loads: tuple[float, ...]
    max_load: float
    latency: float  # Appendix A estimate (0 unless latency_penalty > 0)
    migration: float = 0.0  # one-time move bytes (0 without a layout)

    @property
    def local_access(self) -> float:
        """``A = AR + AW``."""
        return self.read_access + self.write_access

    @property
    def weighted_transfer(self) -> float:
        """``p * B``."""
        return self.objective4 - self.local_access - self.migration


class SolutionEvaluator:
    """Evaluates solutions against a fixed :class:`CostCoefficients`.

    The evaluator is the single source of truth for costs: the QP
    objective, the SA search and the execution simulator are all
    cross-checked against it in the test suite.
    """

    def __init__(self, coefficients: CostCoefficients):
        self.coefficients = coefficients

    # ------------------------------------------------------------------
    # Core objectives
    # ------------------------------------------------------------------
    def objective4(self, x: np.ndarray, y: np.ndarray) -> float:
        """The paper's objective (4): ``A + pB`` as a coefficient sum.

        With a migration block attached the one-time move term
        ``sum c5 * y`` is added on top; without one the arithmetic is
        untouched (no ``+ 0.0``), keeping layout-free evaluations
        bitwise identical to the static model.
        """
        x, y = self._check_shapes(x, y)
        coeff = self.coefficients
        bilinear = float(np.einsum("as,at,ts->", y, coeff.c1, x))
        linear = float(coeff.c2 @ y.sum(axis=1))
        if coeff.parameters.write_accounting is WriteAccounting.RELEVANT_ATTRIBUTES:
            # Replace the overestimated AW (all fractions of touched
            # tables) by the exact "relevant attributes" accounting.
            overestimate = float(coeff.c4 @ y.sum(axis=1))
            total = bilinear + linear - overestimate + self._relevant_write_access(x, y)
        else:
            total = bilinear + linear
        if coeff.migration is not None:
            total += self.migration_cost(y)
        return total

    def migration_cost(self, y: np.ndarray) -> float:
        """``sum_{a,s} c5[a,s] * y[a,s]``: bytes moved to reach ``y``."""
        coeff = self.coefficients
        if coeff.migration is None:
            return 0.0
        c5 = coeff.migration.c5
        y = np.asarray(y, dtype=float)
        if c5.shape != y.shape:
            raise InstanceError(
                f"migration block spans {c5.shape} but y has shape "
                f"{y.shape}; rebuild the block for this site count"
            )
        return float((c5 * y).sum())

    def site_loads(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Equation (5): the work of each site."""
        x, y = self._check_shapes(x, y)
        coeff = self.coefficients
        read_load = np.einsum("as,at,ts->s", y, coeff.c3, x)
        write_load = coeff.c4 @ y
        return read_load + write_load

    def objective6(self, x: np.ndarray, y: np.ndarray) -> float:
        """The blended objective (6): ``lambda * cost + (1-lambda) * m``."""
        lam = self.coefficients.parameters.load_balance_lambda
        cost = self.objective4(x, y)
        if lam == 1.0:
            return cost
        max_load = float(self.site_loads(x, y).max())
        return lam * cost + (1.0 - lam) * max_load

    # ------------------------------------------------------------------
    # Breakdown
    # ------------------------------------------------------------------
    def breakdown(self, x: np.ndarray, y: np.ndarray) -> CostBreakdown:
        """Full cost decomposition; satisfies
        ``objective4 == AR + AW + p * B`` (property-tested)."""
        x, y = self._check_shapes(x, y)
        coeff = self.coefficients
        parameters = coeff.parameters

        read_access = float(np.einsum("as,at,ts->", y, coeff.read_weight @ coeff.indicators.gamma, x))
        if parameters.write_accounting is WriteAccounting.RELEVANT_ATTRIBUTES:
            write_access = self._relevant_write_access(x, y)
        elif parameters.write_accounting is WriteAccounting.NO_ATTRIBUTES:
            write_access = 0.0
        else:
            write_access = float(coeff.write_weight.sum(axis=1) @ y.sum(axis=1))

        # B = sum W alpha delta y  -  sum W alpha delta gamma x y
        transfer_total = float(coeff.transfer_weight.sum(axis=1) @ y.sum(axis=1))
        transfer_home = float(
            np.einsum("as,at,ts->", y, coeff.transfer_weight @ coeff.indicators.gamma, x)
        )
        transfer = transfer_total - transfer_home

        loads = self.site_loads(x, y)
        max_load = float(loads.max())
        objective4 = read_access + write_access + parameters.network_penalty * transfer
        migration = 0.0
        if coeff.migration is not None:
            migration = self.migration_cost(y)
            objective4 = objective4 + migration
        lam = parameters.load_balance_lambda
        objective6 = lam * objective4 + (1.0 - lam) * max_load
        latency = self.latency(x, y) if parameters.latency_penalty > 0 else 0.0
        return CostBreakdown(
            objective4=objective4,
            objective6=objective6,
            read_access=read_access,
            write_access=write_access,
            transfer=transfer,
            site_loads=tuple(float(load) for load in loads),
            max_load=max_load,
            latency=latency,
            migration=migration,
        )

    def latency(self, x: np.ndarray, y: np.ndarray) -> float:
        """Appendix A: ``p_l * sum_q f_q * psi_q``.

        ``psi_q = 1`` iff write query ``q`` has at least one replica of
        an updated attribute on a site other than its transaction's.
        Raises :class:`InstanceError` when a transaction is placed on no
        site (its "home site" would be undefined).
        """
        x, y = self._check_shapes(x, y)
        coeff = self.coefficients
        penalty = coeff.parameters.latency_penalty
        if penalty == 0.0:
            return 0.0
        placed = x.sum(axis=1)
        if np.any(placed < 1.0):
            bad = int(np.flatnonzero(placed < 1.0)[0])
            raise InstanceError(
                f"transaction {coeff.instance.transactions[bad].name!r} is on "
                f"no site; home sites are undefined for the latency estimate"
            )
        write_queries = coeff.write_queries
        if write_queries.size == 0:
            return 0.0
        home_sites = x.argmax(axis=1)  # (|T|,)
        query_home = home_sites[coeff.query_owner[write_queries]]  # (|Qw|,)
        replica_counts = y.sum(axis=1)  # (|A|,)
        remote = replica_counts[:, None] - y[:, query_home]  # (|A|, |Qw|)
        has_remote = (coeff.write_updates * remote).sum(axis=0) > 0
        frequencies = coeff.query_frequencies[write_queries]
        return penalty * float(frequencies[has_remote].sum())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _relevant_write_access(self, x: np.ndarray, y: np.ndarray) -> float:
        """Section 2.1's exact accounting: a fraction is written only if
        the write query updates an attribute co-located with it.

        Vectorised over the cached table groups: per (table group g,
        write query q, site s) compute the count of updated attributes
        of g present on s and the byte sum of g's present fractions; a
        group contributes its bytes wherever the count is positive.
        """
        coeff = self.coefficients
        if coeff.write_queries.size == 0:
            return 0.0
        onehot = coeff.group_onehot  # (|G|, |A|)
        updates = coeff.write_updates  # (|A|, |Qw|)
        wbytes = coeff.write_weights  # (|A|, |Qw|)
        present = y > 0  # (|A|, |S|)
        # (|A|, |Qw|, |S|) -> grouped (|G|, |Qw|, |S|)
        hit = np.tensordot(onehot, updates[:, :, None] * present[:, None, :], axes=(1, 0))
        byte_sums = np.tensordot(
            onehot, wbytes[:, :, None] * present[:, None, :], axes=(1, 0)
        )
        return float(byte_sums[hit > 0].sum())

    def _check_shapes(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        coeff = self.coefficients
        if x.ndim != 2 or x.shape[0] != coeff.num_transactions:
            raise InstanceError(
                f"x must have shape (|T|={coeff.num_transactions}, |S|), "
                f"got {x.shape}"
            )
        if y.ndim != 2 or y.shape[0] != coeff.num_attributes:
            raise InstanceError(
                f"y must have shape (|A|={coeff.num_attributes}, |S|), "
                f"got {y.shape}"
            )
        if x.shape[1] != y.shape[1]:
            raise InstanceError(
                f"x and y must agree on the number of sites, "
                f"got {x.shape[1]} != {y.shape[1]}"
            )
        return x, y


def feasibility_violations(
    coefficients: CostCoefficients, x: np.ndarray, y: np.ndarray
) -> list[str]:
    """Return human-readable descriptions of constraint violations.

    Checks the three families of constraints of model (4):

    * every transaction on exactly one site,
    * every attribute on at least one site,
    * read co-location: ``phi[a,t] = 1`` and ``x[t,s] = 1`` imply
      ``y[a,s] = 1``.
    """
    violations: list[str] = []
    x = np.asarray(x)
    y = np.asarray(y)
    instance = coefficients.instance
    transaction_sites = x.sum(axis=1)
    for t_index in np.flatnonzero(transaction_sites != 1):
        violations.append(
            f"transaction {instance.transactions[t_index].name!r} is on "
            f"{int(transaction_sites[t_index])} sites (must be exactly 1)"
        )
    attribute_sites = y.sum(axis=1)
    for a_index in np.flatnonzero(attribute_sites < 1):
        violations.append(
            f"attribute {instance.attributes[a_index].qualified_name!r} is "
            f"on no site"
        )
    phi = coefficients.phi_bool
    home = x.argmax(axis=1)
    for t_index in range(x.shape[0]):
        if transaction_sites[t_index] != 1:
            continue
        site = home[t_index]
        missing = np.flatnonzero(phi[:, t_index] & (y[:, site] == 0))
        for a_index in missing:
            violations.append(
                f"read co-location broken: transaction "
                f"{instance.transactions[t_index].name!r} on site {site} reads "
                f"{instance.attributes[a_index].qualified_name!r} which is not there"
            )
    return violations


def check_solution_feasible(
    coefficients: CostCoefficients, x: np.ndarray, y: np.ndarray
) -> bool:
    """True iff ``(x, y)`` satisfies all constraints of model (4)."""
    return not feasibility_violations(coefficients, x, y)
