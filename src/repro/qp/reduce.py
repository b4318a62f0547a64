"""Exact attribute classes: model (7) over fused attributes.

Section 4's "reasonable cuts" fuse the attributes of one table that
every query accesses together.  Every coefficient of such an attribute
is its width times a row the whole group shares, so one ``y`` row can
stand for the group whenever some optimum gives all members the same
sites:

* at ``lambda = 1`` objective (6) is linear in each attribute's ``y``
  row once ``x`` is fixed, so copying the cheapest member's row onto
  the others never raises the cost, nor any Appendix-A ``psi``;
* at ``lambda < 1`` members may split their sites to balance load, so
  an attribute fuses only when it is *pinned*: some transaction reads
  it, and, with replication allowed, ``c2[a] + sum_t min(c1[a,t], 0)
  >= 0``.  Then a replica beyond the sites its readers force never
  lowers the cost or any site's load, so given ``x`` every member's
  best ``y`` is the same forced row.

With a current layout the incumbent's ``y0`` row joins the key, because
``c5`` prices each attribute's sites separately.  The reduced model has
the original optimum, so its MIP bound and gap hold for the original.

>>> from repro.costmodel import CostParameters, build_coefficients
>>> from repro.instances import tpcc_instance
>>> coefficients = build_coefficients(
...     tpcc_instance(), CostParameters(load_balance_lambda=1.0))
>>> classes = attribute_classes(coefficients, allow_replication=True)
>>> coefficients.num_attributes, int(classes.max()) + 1
(92, 37)
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.costmodel.coefficients import CostCoefficients


def class_index(keys: np.ndarray) -> np.ndarray:
    """One class per distinct row of ``keys``, numbered in the order of
    each class's first member."""
    seen: dict[bytes, int] = {}
    return np.fromiter(
        (seen.setdefault(row.tobytes(), len(seen))
         for row in np.ascontiguousarray(keys)),
        dtype=np.intp,
        count=len(keys),
    )


def attribute_classes(
    coefficients: CostCoefficients, allow_replication: bool
) -> np.ndarray | None:
    """The class of each attribute, or ``None`` when every class would
    be a singleton."""
    num_attributes = coefficients.num_attributes
    keys = [coefficients.attribute_group[:, None], coefficients.indicators.alpha]
    if coefficients.migration is not None:
        keys.append(coefficients.migration.y0)
    if coefficients.parameters.load_balance_lambda < 1.0:
        pinned = coefficients.phi_bool.any(axis=1)
        if allow_replication:
            rebate = np.minimum(coefficients.c1, 0.0).sum(axis=1)
            pinned &= coefficients.c2 + rebate >= 0.0
        # An attribute that is not pinned keys on its own index.
        keys.append(np.where(pinned, -1, np.arange(num_attributes))[:, None])
    classes = class_index(np.column_stack(keys))
    return None if classes.max() + 1 == num_attributes else classes


def reduce_coefficients(
    coefficients: CostCoefficients, classes: np.ndarray
) -> CostCoefficients:
    """The coefficients of the model over ``classes``: ``c1``-``c4``,
    ``W`` and ``c5`` summed over each class, indicator and ``y0`` rows
    taken from its first member."""
    order = np.argsort(classes, kind="stable")
    starts = np.flatnonzero(np.diff(classes[order], prepend=-1))
    first = order[starts]

    def total(array: np.ndarray) -> np.ndarray:
        return np.add.reduceat(array[order], starts, axis=0)

    indicators = coefficients.indicators
    migration = coefficients.migration
    if migration is not None:
        migration = dataclasses.replace(
            migration, y0=migration.y0[first], c5=total(migration.c5)
        )
    return dataclasses.replace(
        coefficients,
        indicators=dataclasses.replace(
            indicators,
            alpha=indicators.alpha[first],
            beta=indicators.beta[first],
            phi=indicators.phi[first],
            rows=indicators.rows[first],
        ),
        weights=total(coefficients.weights),
        c1=total(coefficients.c1),
        c2=total(coefficients.c2),
        c3=total(coefficients.c3),
        c4=total(coefficients.c4),
        migration=migration,
    )
