"""Batched serving with the unified advisor API.

Simulates what a partitioning service sees: a queue of heterogeneous
requests — different cost parameters, replication modes and strategies,
some arriving as JSON — all served through one long-lived
:class:`~repro.api.Advisor` that shares coefficient products across
them, with an ``"auto"`` strategy that routes each
request to the QP or SA solver by model size.

Run with:  python examples/advisor_service.py
"""

from repro import Advisor, CostParameters, SolveRequest, tpcc_instance


def build_queue() -> list[SolveRequest]:
    instance = tpcc_instance()
    queue: list[SolveRequest] = []
    # A penalty sweep, alternating replicated and disjoint requests.
    for penalty in (1.0, 2.0, 4.0, 8.0):
        for allow_replication in (True, False):
            queue.append(SolveRequest(
                instance,
                num_sites=2,
                parameters=CostParameters(network_penalty=penalty),
                allow_replication=allow_replication,
                strategy="qp",
                time_limit=30,
            ))
    # "auto" picks QP or SA from the model-size estimate.
    queue.append(SolveRequest(instance, num_sites=3, strategy="auto",
                              time_limit=30))
    # Requests round-trip through JSON, so they can arrive over the wire.
    wire = SolveRequest(
        instance, num_sites=3, strategy="sa-portfolio",
        options={"restarts": 4, "inner_loops": 10, "max_outer_loops": 20},
    ).to_json()
    queue.append(SolveRequest.from_json(wire))
    return queue


def main() -> None:
    advisor = Advisor()
    reports = advisor.advise_many(build_queue(), master_seed=7)

    print(f"{'strategy':>16}  {'p':>4}  {'repl':>4}  {'objective':>10}  "
          f"{'time s':>6}")
    for report in reports:
        request = report.request
        print(f"{report.strategy:>16}  "
              f"{request.parameters.network_penalty:>4.0f}  "
              f"{'yes' if request.allow_replication else 'no':>4}  "
              f"{report.objective:>10.0f}  {report.wall_time:>6.2f}")

    stats = advisor.cache_stats()
    print(f"\nserved {advisor.requests_served} requests; "
          f"coefficient cache {stats['coefficient_hits']} hits / "
          f"{stats['coefficient_misses']} misses")


if __name__ == "__main__":
    main()
