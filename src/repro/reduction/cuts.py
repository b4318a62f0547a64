"""Reasonable cuts: co-access groups of attributes (Section 4).

Two attributes of one table that every query either accesses both of
or neither of form one group.  The paper notes this does not improve
the worst case but can shrink instances dramatically (TPC-C's 92
attributes collapse to 37 groups).

Solving over the groups is exact only where some optimum gives every
member the same sites.  That holds at ``lambda = 1``, but under
``lambda < 1`` two members may split their sites to balance load, so a
grouped solve can miss the optimum.  The QP therefore solves over the
finer exact classes of :mod:`repro.qp.reduce`, which share this key.
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.constants import build_indicators
from repro.model.instance import ProblemInstance
from repro.qp.reduce import class_index


def attribute_groups(instance: ProblemInstance) -> list[list[int]]:
    """Partition attribute indices into co-access groups.

    Two attributes are grouped iff they belong to the same table and
    have identical access rows ``alpha[a, :]`` (then ``beta``, ``rows``
    and ``phi`` agree automatically, because those follow from the
    table and ``alpha``).  Groups are ordered by their first member.
    """
    table = np.empty(instance.num_attributes)
    for index, members in enumerate(instance.table_attributes.values()):
        table[list(members)] = index
    alpha = build_indicators(instance).alpha
    classes = class_index(np.column_stack([table, alpha]))
    return [
        np.flatnonzero(classes == group).tolist()
        for group in range(int(classes.max()) + 1)
    ]
