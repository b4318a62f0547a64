"""Build the linearised MIP (7) from cost coefficients.

The quadratic terms ``x[t,s] * y[a,s]`` are replaced by continuous
variables ``u[t,a,s]`` with the three inequalities of Section 2.3:

* ``u <= x``, ``u <= y`` (binding when the coefficient is negative —
  ``c1`` contains the negative transfer-rebate term), and
* ``u >= x + y - 1`` (binding when the coefficient is positive).

``u`` is created only for ``(a, t)`` pairs whose coefficient in the
objective (``c1``) or the load constraint (``c3``) is non-zero, which
keeps the model far smaller than the dense ``|A| * |T| * |S|`` bound.

The model is emitted straight from the coefficient arrays: every
constraint family is one :class:`~repro.solver.model.RowBlock` built
with numpy index arithmetic.  Column order is ``x`` (transaction-major),
``y`` (attribute-major), ``u`` (per pair of :func:`linearization_pattern`,
then site), ``m``, ``psi``; row order is placement of ``x``, placement
of ``y``, read co-location, the ``u`` triples, load, ``psi`` bounds and
symmetry breaking.  ``tests/test_linearize.py`` pins this layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.costmodel.coefficients import CostCoefficients
from repro.costmodel.config import WriteAccounting
from repro.exceptions import SolverError
from repro.solver.model import MipModel, RowBlock


@dataclass(frozen=True)
class LinearizedModel:
    """The MIP together with the column indices needed for extraction."""

    model: MipModel
    coefficients: CostCoefficients
    num_sites: int
    x_columns: np.ndarray  # (|T|, |S|)
    y_columns: np.ndarray  # (|A|, |S|)
    #: ``(attribute, transaction)`` of each linearised pair, (P, 2).
    pairs: np.ndarray
    u_columns: np.ndarray  # (P, |S|)
    m_column: int | None
    #: Canonical indices of the queries with a ``psi`` variable.
    psi_queries: np.ndarray
    psi_columns: np.ndarray  # (len(psi_queries),)

    def extract(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Recover boolean ``(x, y)`` matrices from a solution vector."""
        return values[self.x_columns] > 0.5, values[self.y_columns] > 0.5

    def incumbent_vector(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Encode a known solution as a full vector over the model's columns."""
        values = np.zeros(self.model.num_variables)
        values[self.x_columns] = x
        values[self.y_columns] = y
        attributes, transactions = self.pairs.T
        values[self.u_columns] = x[transactions] & y[attributes]
        if self.m_column is not None:
            from repro.costmodel.evaluator import SolutionEvaluator

            loads = SolutionEvaluator(self.coefficients).site_loads(x, y)
            values[self.m_column] = float(loads.max())
        if self.psi_queries.size:
            coefficients = self.coefficients
            site = np.argmax(x, axis=1)[coefficients.query_owner[self.psi_queries]]
            updated = coefficients.indicators.alpha[:, self.psi_queries] > 0
            remote = y.sum(axis=1)[:, None] - y[:, site]  # (|A|, |psi|)
            values[self.psi_columns] = (updated * remote).sum(axis=0) > 0
        return values


#: The bound of every ``... >= 0`` / ``... <= 0`` row.  Negative zero is
#: the value these rows have always carried, so HiGHS's input stays
#: byte-identical to the one every pinned result was computed from.
_ZERO = -0.0


def linearization_pattern(
    coefficients: CostCoefficients, latency: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(|A|, |T|)`` mask of pairs that get ``u`` variables, and the
    canonical indices of the queries that get a ``psi`` variable.

    Shared by :func:`build_linearized_model` and
    :meth:`~repro.qp.solver.QpPartitioner.estimate_model_size`.
    """
    parameters = coefficients.parameters
    lam = parameters.load_balance_lambda
    need_pair = (coefficients.c1 != 0) | ((lam < 1.0) & (coefficients.c3 != 0))
    psi_queries = np.zeros(0, dtype=np.intp)
    if latency:
        indicators = coefficients.indicators
        # Cast before the product: a bool matmul is a logical one and
        # skips BLAS.
        write_alpha = (
            indicators.alpha * indicators.delta[None, :]
        ).astype(float) @ indicators.gamma  # (|A|, |T|) update counts
        need_pair = need_pair | (write_alpha > 0)
        if parameters.latency_penalty > 0:
            psi_queries = np.flatnonzero(
                (indicators.delta > 0) & (indicators.alpha > 0).any(axis=0)
            )
    return need_pair, psi_queries


def _block(
    rows: np.ndarray, cols: np.ndarray, data: np.ndarray, num_rows: int,
    lower: float | np.ndarray, upper: float | np.ndarray,
) -> RowBlock:
    """A row block with scalar or per-row bounds."""
    return RowBlock(
        rows, cols, np.asarray(data, dtype=float),
        np.full(num_rows, lower), np.full(num_rows, upper),
    )


def _rows_of(columns: np.ndarray, lower: float, upper: float) -> RowBlock:
    """One row per line of ``columns``: the sum of those columns."""
    num_rows, width = columns.shape
    return _block(
        np.repeat(np.arange(num_rows), width), columns.ravel(),
        np.ones(columns.size), num_rows, lower, upper,
    )


def sites_interchangeable(coefficients: CostCoefficients) -> bool:
    """True unless a migration term prices some attribute differently
    on different sites, which makes the sites unequal for symmetry
    breaking.  A zero-cost layout leaves them interchangeable."""
    migration = coefficients.migration
    return migration is None or bool(
        (migration.c5 == migration.c5[:, :1]).all()
    )


def build_linearized_model(
    coefficients: CostCoefficients,
    num_sites: int,
    allow_replication: bool = True,
    latency: bool = False,
    symmetry_breaking: bool = True,
    first_transactions: np.ndarray | None = None,
) -> LinearizedModel:
    """Construct the linearised model (7).

    Parameters
    ----------
    allow_replication:
        When False, ``sum_s y[a,s] == 1`` (Table 5's disjoint variant)
        instead of ``>= 1``.
    latency:
        Add Appendix A's ``psi_q`` latency variables and constraints
        (requires ``latency_penalty > 0`` in the cost parameters to have
        any effect on the objective).
    symmetry_breaking:
        Sites are homogeneous, so transaction ``t`` may be restricted to
        sites ``0..t`` without losing any solution; shrinks the search
        considerably.  Ignored when a current layout's migration term
        prices the sites differently (:func:`sites_interchangeable`).
    first_transactions:
        Over transaction classes, the original index of each class's
        first member: class ``k`` is restricted to the sites
        ``0..first_transactions[k]``, exactly the restriction the
        unreduced model puts on its members.
    """
    if num_sites < 1:
        raise SolverError(f"need at least one site, got {num_sites}")
    parameters = coefficients.parameters
    if parameters.write_accounting is WriteAccounting.RELEVANT_ATTRIBUTES:
        raise SolverError(
            "the linearised QP only supports the ALL_ATTRIBUTES / "
            "NO_ATTRIBUTES write accounting (Section 2.1 explains why "
            "RELEVANT_ATTRIBUTES needs |A|^2 |S| extra variables)"
        )
    migration = coefficients.migration
    if migration is not None and migration.c5.shape != (
        coefficients.num_attributes, num_sites
    ):
        raise SolverError(
            f"migration block spans {migration.c5.shape} but the model has "
            f"{(coefficients.num_attributes, num_sites)} y variables; "
            f"rebuild the block for this site count"
        )
    lam = parameters.load_balance_lambda
    num_transactions = coefficients.num_transactions
    num_attributes = coefficients.num_attributes
    need_pair, psi_queries = linearization_pattern(coefficients, latency)
    pair_a, pair_t = np.nonzero(need_pair)
    load_side = lam < 1.0

    # --- columns ------------------------------------------------------
    x_columns = np.arange(num_transactions * num_sites).reshape(-1, num_sites)
    y_columns = x_columns.size + np.arange(
        num_attributes * num_sites
    ).reshape(-1, num_sites)
    u_columns = x_columns.size + y_columns.size + np.arange(
        pair_a.size * num_sites
    ).reshape(-1, num_sites)
    next_column = x_columns.size + y_columns.size + u_columns.size
    m_column = next_column if load_side else None
    psi_columns = next_column + int(load_side) + np.arange(psi_queries.size)
    num_columns = next_column + int(load_side) + psi_queries.size

    # --- placement ----------------------------------------------------
    blocks = [
        _rows_of(x_columns, 1.0, 1.0),
        _rows_of(y_columns, 1.0, np.inf if allow_replication else 1.0),
    ]
    # --- read co-location (single-sitedness): y[a,s] - x[t,s] >= 0 -----
    read_a, read_t = np.nonzero(coefficients.phi_bool)
    y, x = y_columns[read_a].ravel(), x_columns[read_t].ravel()
    blocks.append(_block(
        np.repeat(np.arange(y.size), 2),
        np.stack([y, x], axis=1).ravel(),
        np.tile([1.0, -1.0], y.size),
        y.size, _ZERO, np.inf,
    ))

    # --- linearisation triples per (pair, site) ------------------------
    # u - x <= 0, u - y <= 0, u - x - y >= -1
    u = u_columns.ravel()
    x = x_columns[pair_t].ravel()
    y = y_columns[pair_a].ravel()
    blocks.append(_block(
        np.repeat(np.arange(3 * u.size), np.tile([2, 2, 3], u.size)),
        np.stack([u, x, u, y, u, x, y], axis=1).ravel(),
        np.tile([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0], u.size),
        3 * u.size,
        np.tile([-np.inf, -np.inf, -1.0], u.size),
        np.tile([_ZERO, _ZERO, np.inf], u.size),
    ))

    # --- max-load side: sum c3 u + sum c4 y - m <= 0 per site -----------
    if load_side:
        pair_load = coefficients.c3[pair_a, pair_t]
        loaded = np.flatnonzero(pair_load != 0.0)
        written = np.flatnonzero(coefficients.c4 != 0.0)
        sites = np.arange(num_sites)
        blocks.append(_block(
            np.concatenate([
                np.repeat(sites, loaded.size),
                np.repeat(sites, written.size),
                sites,
            ]),
            np.concatenate([
                u_columns[loaded].T.ravel(),
                y_columns[written].T.ravel(),
                np.full(num_sites, m_column),
            ]),
            np.concatenate([
                np.tile(pair_load[loaded], num_sites),
                np.tile(coefficients.c4[written], num_sites),
                np.full(num_sites, -1.0),
            ]),
            num_sites, -np.inf, _ZERO,
        ))

    # --- Appendix A latency ---------------------------------------------
    # n_q = sum_a alpha (sum_s y[a,s] - sum_s u[t,a,s]);
    # psi <= n_q (n = 0 forces psi = 0), n_q <= M psi (n > 0 forces 1)
    if psi_queries.size:
        num_psi = psi_queries.size
        pair_index = np.full(need_pair.shape, -1)
        pair_index[pair_a, pair_t] = np.arange(pair_a.size)
        updated, which = np.nonzero(
            coefficients.indicators.alpha[:, psi_queries] > 0
        )
        owner = coefficients.query_owner[psi_queries][which]
        n_rows = np.tile(np.repeat(which, num_sites), 2)
        n_cols = np.concatenate([
            y_columns[updated].ravel(),
            u_columns[pair_index[updated, owner]].ravel(),
        ])
        n_data = np.repeat([1.0, -1.0], updated.size * num_sites)
        big_m = np.bincount(which, minlength=num_psi) * float(num_sites)
        psi_rows = np.arange(num_psi)
        # Row 2k bounds psi from above, row 2k + 1 from below.
        blocks.append(_block(
            np.concatenate([
                2 * n_rows, 2 * psi_rows, 2 * n_rows + 1, 2 * psi_rows + 1,
            ]),
            np.concatenate([n_cols, psi_columns, n_cols, psi_columns]),
            np.concatenate([n_data, -np.ones(num_psi), n_data, -big_m]),
            2 * num_psi,
            np.tile([_ZERO, -np.inf], num_psi),
            np.tile([np.inf, _ZERO], num_psi),
        ))

    # --- symmetry breaking: x[t,s] <= 0 for s > first[t] ------------------
    if symmetry_breaking and sites_interchangeable(coefficients):
        first = (np.arange(num_transactions) if first_transactions is None
                 else first_transactions)
        sym_t, sym_s = np.nonzero(np.arange(num_sites) > first[:, None])
        blocks.append(_block(
            np.arange(sym_t.size), x_columns[sym_t, sym_s], np.ones(sym_t.size),
            sym_t.size, -np.inf, _ZERO,
        ))

    # --- objective and column bounds ------------------------------------
    # (accumulated onto zeros, so a zero price is +0.0 like an unset one)
    objective = np.zeros(num_columns)
    objective[u_columns] += lam * coefficients.c1[pair_a, pair_t][:, None]
    objective[y_columns] += lam * coefficients.c2[:, None]
    if migration is not None:
        objective[y_columns] += lam * migration.c5
    if load_side:
        objective[m_column] += 1.0 - lam
    objective[psi_columns] += (
        lam * parameters.latency_penalty
        * coefficients.query_frequencies[psi_queries].astype(float)
    )
    upper = np.ones(num_columns)
    integrality = np.ones(num_columns, dtype=bool)
    integrality[u_columns] = False
    if load_side:
        upper[m_column] = np.inf
        integrality[m_column] = False

    model = MipModel(
        f"qp[{coefficients.instance.name},S={num_sites}]",
        objective=objective,
        lower=np.zeros(num_columns),
        upper=upper,
        integrality=integrality,
        blocks=tuple(blocks),
    )
    return LinearizedModel(
        model=model,
        coefficients=coefficients,
        num_sites=num_sites,
        x_columns=x_columns,
        y_columns=y_columns,
        pairs=np.stack([pair_a, pair_t], axis=1),
        u_columns=u_columns,
        m_column=m_column,
        psi_queries=psi_queries,
        psi_columns=psi_columns,
    )
