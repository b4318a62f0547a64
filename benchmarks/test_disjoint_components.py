"""Work counters of the disjoint QP over read-sharing components.

A disjoint model (7) puts each read-sharing component on one ``x`` row
and fuses the attributes it reads into one ``y`` row, so HiGHS sees a
model of a few hundred columns where the unreduced one has tens of
thousands.  These counters pin that reduction on the benchmark's
``exact-disjoint`` requests (four sites, instance seed 20); seconds are
left to ``perfbench``.
"""

import pytest

from repro.api import Advisor, SolveRequest
from repro.instances.library import named_instance

#: instance -> (transaction classes, solved variables, unreduced variables)
EXPECTED = {
    "rndAt16x100": (5, 173, 22089),
    "rndAt64x100": (8, 3265, 24077),
    "rndBt64x100": (5, 45, 8897),
    "rndDupAt8x400": (3, 69, 64121),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_disjoint_qp_solves_over_components(name):
    report = Advisor().advise(SolveRequest(
        instance=named_instance(name, seed=20), num_sites=4,
        allow_replication=False, strategy="qp",
    ))
    metadata = report.metadata
    counts = (
        metadata["transaction_classes"],
        metadata["variables"],
        metadata["unreduced_variables"],
    )
    print(f"\n{name}: transaction classes, variables, unreduced = {counts}")
    assert counts == EXPECTED[name]
    assert report.result.proven_optimal
