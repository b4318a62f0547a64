"""Ablation benchmarks for the design choices the paper discusses.

Each probes one decision: write accounting (Section 2.1), the
reasonable-cuts reduction and 20/80 refinement (Section 4), the
Appendix-A latency term, and the value of the QP/SA formulation over
classic baselines.
"""

from repro.bench import ablations

from benchmarks.conftest import run_and_print


def test_ablation_write_accounting(benchmark, profile):
    table = run_and_print(benchmark, ablations.ablation_write_accounting, profile)
    for instance in {row["instance"] for row in table.rows}:
        rows = {
            row["accounting"]: row
            for row in table.rows
            if row["instance"] == instance
        }
        # RELEVANT is exact: never above ALL; NONE drops AW entirely.
        assert rows["relevant"]["write access AW"] <= rows["all"]["write access AW"]
        assert rows["none"]["write access AW"] == 0
        assert (
            rows["none"]["objective (4)"]
            <= rows["relevant"]["objective (4)"]
            <= rows["all"]["objective (4)"]
        )


def test_ablation_reduction(benchmark, profile):
    table = run_and_print(benchmark, ablations.ablation_reduction, profile)
    for row in table.rows:
        # The exact classes keep the optimum and shrink the model.
        assert row["cost grouped"] == row["cost full"]
        assert row["QP vars grouped"] < row["QP vars full"]
        assert row["groups"] < row["|A|"]


def test_ablation_heavy(benchmark, profile):
    table = run_and_print(benchmark, ablations.ablation_heavy, profile)
    for row in table.rows:
        # The heavy-first warm start lands within 2x of the full QP.
        assert row["heavy-first cost"] <= 2.0 * row["QP cost"]
        assert row["heavy txns"] >= 1


def test_ablation_latency(benchmark, profile):
    table = run_and_print(benchmark, ablations.ablation_latency, profile)
    # Increasing the latency penalty never increases the number of
    # remote-writing queries the optimum tolerates.
    writers = [row["remote-writing queries"] for row in table.rows[1:]]
    assert writers == sorted(writers, reverse=True)


def test_ablation_baselines(benchmark, profile):
    table = run_and_print(benchmark, ablations.ablation_baselines, profile)
    for row in table.rows:
        # The QP is the floor; SA close; baselines in between or worse.
        assert row["QP"] <= row["SA"] * 1.02
        assert row["QP"] <= row["single-site"] * 1.02
        assert row["SA"] <= 1.2 * min(
            row["round-robin"], row["affinity"], row["binpack"],
            row["hill-climb"], row["single-site"],
        )
