"""Exact classes: model (7) over fused attributes and transactions.

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
``c5`` prices each attribute's sites separately.

The disjoint model fuses more.  There ``y[a,s] >= x[t,s]`` for every
reader ``t`` of ``a`` together with ``sum_s y[a,s] = 1`` forces
``y[a,.] = x[t,.]`` in *every* feasible solution, so each read-sharing
component (:func:`~repro.costmodel.coefficients.read_sharing_components`)
is one transaction class, and every attribute it reads joins one
attribute class with it, across tables, at any ``lambda`` and with any
layout.  Unread attributes keep the key above.

The reduced model has the original optimum, so its MIP bound and gap
hold for the original.

>>> from repro.costmodel import CostParameters, build_coefficients
>>> from repro.instances import tpcc_instance
>>> coefficients = build_coefficients(
...     tpcc_instance(), CostParameters(load_balance_lambda=1.0))
>>> _, classes = model_classes(coefficients, allow_replication=True)
>>> coefficients.num_attributes, int(classes.max()) + 1
(92, 37)

Every tpcc transaction reads the warehouse key, so its disjoint model
has a single component:

>>> transactions, classes = model_classes(coefficients, allow_replication=False)
>>> coefficients.num_transactions, int(transactions.max()) + 1
(5, 1)
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.costmodel.coefficients import CostCoefficients, read_sharing_components


@dataclasses.dataclass(frozen=True)
class ReducedCoefficients(CostCoefficients):
    """The coefficients of model (7) over classes.

    ``instance`` is still the unreduced one, so nothing derived from it
    may be read: ``W`` raises rather than answer for the original
    attributes.
    """

    @property
    def weights(self) -> np.ndarray:
        raise AttributeError(
            "reduced coefficients have no W: it is defined per original "
            "attribute and query, not per class"
        )


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


def _unless_singletons(classes: np.ndarray | None) -> np.ndarray | None:
    return None if classes is None or classes.max() + 1 == len(classes) else classes


def model_classes(
    coefficients: CostCoefficients, allow_replication: bool
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The class of each transaction and of each attribute; either is
    ``None`` when every class on its side would be a singleton."""
    num_attributes = coefficients.num_attributes
    phi = coefficients.phi_bool
    keys = [coefficients.attribute_group[:, None], coefficients.indicators.alpha]
    if coefficients.migration is not None:
        keys.append(coefficients.migration.y0)
    if coefficients.parameters.load_balance_lambda < 1.0:
        pinned = phi.any(axis=1)
        if allow_replication:
            rebate = np.minimum(coefficients.c1, 0.0).sum(axis=1)
            pinned &= coefficients.c2 + rebate >= 0.0
        # An attribute that is not pinned keys on its own index.
        keys.append(np.where(pinned, -1, np.arange(num_attributes))[:, None])
    keys = np.column_stack(keys)
    components = None
    if not allow_replication:
        components = read_sharing_components(coefficients)
        read = phi.any(axis=1)
        # A read attribute keys on its readers' component alone.
        component = np.where(read, components[phi.argmax(axis=1)], -1)
        keys = np.column_stack([component, np.where(read[:, None], 0, keys)])
    return _unless_singletons(components), _unless_singletons(class_index(keys))


def _fold(
    array: np.ndarray, classes: np.ndarray | None, axis: int,
    ufunc: np.ufunc = np.add,
) -> np.ndarray:
    """``array`` reduced by ``ufunc`` over each class along ``axis``."""
    if classes is None:
        return array
    order = np.argsort(classes, kind="stable")
    starts = np.flatnonzero(np.diff(classes[order], prepend=-1))
    return ufunc.reduceat(np.take(array, order, axis=axis), starts, axis=axis)


def reduce_coefficients(
    coefficients: CostCoefficients,
    classes: np.ndarray | None,
    transaction_classes: np.ndarray | None = None,
) -> ReducedCoefficients:
    """The coefficients of the model over attribute ``classes`` and
    ``transaction_classes`` (``None``: no fusion on that side).

    ``c1``/``c3`` are summed over both sides, ``c2``/``c4``/``c5`` over
    attribute classes; indicator rows and ``gamma``/``phi`` columns are
    OR-ed, and each class keeps its first member's ``y0`` row.
    """
    indicators = coefficients.indicators
    alpha, beta, phi = (
        _fold(array, classes, 0, np.logical_or)
        for array in (indicators.alpha, indicators.beta, indicators.phi)
    )
    migration = coefficients.migration
    if migration is not None and classes is not None:
        first = np.unique(classes, return_index=True)[1]
        migration = dataclasses.replace(
            migration, y0=migration.y0[first], c5=_fold(migration.c5, classes, 0)
        )
    return ReducedCoefficients(
        instance=coefficients.instance,
        parameters=coefficients.parameters,
        indicators=dataclasses.replace(
            indicators,
            alpha=alpha,
            beta=beta,
            gamma=_fold(indicators.gamma, transaction_classes, 1, np.logical_or),
            phi=_fold(phi, transaction_classes, 1, np.logical_or),
        ),
        c1=_fold(_fold(coefficients.c1, classes, 0), transaction_classes, 1),
        c2=_fold(coefficients.c2, classes, 0),
        c3=_fold(_fold(coefficients.c3, classes, 0), transaction_classes, 1),
        c4=_fold(coefficients.c4, classes, 0),
        migration=migration,
    )
