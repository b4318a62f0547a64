"""Partition the full TPC-C benchmark, reproducing the paper's headline.

Reproduces the Section 5 story: a ~25-40% cost reduction at two sites,
almost nothing more from further sites (Table 5), a concrete three-site
layout (Table 4), and the replication-vs-disjoint comparison.

Run with:  python examples/tpcc_advisor.py
"""

from repro import (
    CostParameters,
    build_coefficients,
    render_layout,
    single_site_partitioning,
    tpcc_instance,
)
from repro.qp import QpPartitioner


def main() -> None:
    instance = tpcc_instance()
    parameters = CostParameters()  # p = 8, cost-dominant blending
    coefficients = build_coefficients(instance, parameters)

    baseline = single_site_partitioning(coefficients)
    print(f"TPC-C |A|={instance.num_attributes}, |T|={instance.num_transactions}")
    print(f"single-site cost: {baseline.objective:.0f}\n")

    print(f"{'sites':>5}  {'replicated':>10}  {'disjoint':>10}  "
          f"{'reduction':>9}  {'ratio':>6}")
    results = {}
    for num_sites in (2, 3, 4):
        replicated = QpPartitioner(coefficients, num_sites).solve(time_limit=60)
        disjoint = QpPartitioner(
            coefficients, num_sites, allow_replication=False
        ).solve(time_limit=60)
        results[num_sites] = replicated
        reduction = 100 * (1 - replicated.objective / baseline.objective)
        ratio = 100 * replicated.objective / disjoint.objective
        print(f"{num_sites:>5}  {replicated.objective:>10.0f}  "
              f"{disjoint.objective:>10.0f}  {reduction:>8.1f}%  {ratio:>5.0f}%")

    print("\nThree-site layout (the paper's Table 4):\n")
    print(render_layout(results[3]))


if __name__ == "__main__":
    main()
