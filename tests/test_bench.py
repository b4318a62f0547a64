"""Benchmark harness plumbing (formatting, config, fast table targets)."""

import ast
import json
import re
from pathlib import Path

import pytest

from repro.bench.artifact_schema import (
    ARTIFACT_SCHEMAS,
    validate_artifact,
    validate_schema,
)
from repro.bench.config import BenchProfile, get_profile
from repro.bench.formatting import BenchTable, format_cell, render_table
from repro.bench.runner import TABLE_FUNCTIONS, run_table
from repro.exceptions import ArtifactError, ReproError
from repro.sa.options import SaOptions

FAST_PROFILE = BenchProfile(
    name="test",
    qp_time_limit=10.0,
    qp_gap=1e-3,
    sa_options=SaOptions(inner_loops=4, max_outer_loops=4, seed=0),
    include_large=False,
    table1_sizes=(20,),
)


class TestFormatting:
    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(3.0) == "3"
        assert format_cell(3.25) == "3.250"
        assert format_cell("x") == "x"

    def test_render_aligns_columns(self):
        table = BenchTable(title="T", columns=["a", "long_header"])
        table.add_row(a=1, long_header="v")
        table.add_row(a=22, long_header="w")
        text = render_table(table)
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long_header" in lines[2]
        assert len({line.index("v") for line in lines if "v" in line}) == 1

    def test_notes_rendered(self):
        table = BenchTable(title="T", columns=["a"], notes=["hello"])
        assert "note: hello" in render_table(table)

    def test_column_values(self):
        table = BenchTable(title="T", columns=["a"])
        table.add_row(a=1)
        table.add_row(a=2)
        assert table.column_values("a") == [1, 2]


class TestProfiles:
    def test_default_profile_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        assert get_profile().name == "quick"

    def test_env_var_selects_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "paper")
        assert get_profile().name == "paper"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ReproError, match="unknown bench profile"):
            get_profile("warp-speed")

    def test_sa_for_reduces_large_instances(self):
        profile = get_profile("paper")
        small = profile.sa_for(100)
        large = profile.sa_for(1000)
        assert large.max_outer_loops <= small.max_outer_loops

    def test_backend_env_var_overrides_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_BACKEND", "process")
        assert get_profile("quick").sa_options.backend == "process"
        monkeypatch.delenv("REPRO_BENCH_BACKEND")
        assert get_profile("quick").sa_options.backend is None

    def test_backend_env_var_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_BACKEND", "carrier-pigeon")
        with pytest.raises(ReproError, match="unknown execution backend"):
            get_profile("quick")


class TestTargets:
    def test_all_paper_tables_registered(self):
        for name in ("table1", "table2", "table3", "table4", "table5", "table6"):
            assert name in TABLE_FUNCTIONS

    def test_unknown_target_rejected(self):
        with pytest.raises(ReproError, match="unknown bench target"):
            run_table("table99")

    def test_table2_lists_all_named_instances(self):
        table = run_table("table2", FAST_PROFILE)
        from repro.instances.library import TABLE2_INSTANCES

        assert len(table.rows) == len(TABLE2_INSTANCES)
        assert "rndAt4x15" in table.column_values("name")

    def test_table4_produces_three_sites(self):
        table = run_table("table4", FAST_PROFILE)
        assert table.column_values("site") == [1, 2, 3]
        # All five transactions distributed.
        transactions = ", ".join(str(v) for v in table.column_values("transactions"))
        for name in ("NewOrder", "Payment", "Delivery"):
            assert name in transactions
        assert any("objective" in note for note in table.notes)


# One (target, artifact file, schema family) triple per bench emitter
# that persists a machine-readable artifact.  New emitters must appear
# here AND in repro.bench.artifact_schema, or the completeness test
# below fails.
ARTIFACT_EMITTERS = [
    ("drift", "BENCH_drift.json", "drift"),
    ("service", "BENCH_service.json", "service"),
    ("transport", "BENCH_transport.json", "transport"),
    ("compression", "BENCH_compression.json", "compression"),
    ("calibrate", "BENCH_calibration.json", "calibration"),
]


class TestArtifactSchemas:
    """Every persisted ``BENCH_*.json`` validates against its family schema."""

    @pytest.mark.parametrize(
        "target,filename,family", ARTIFACT_EMITTERS, ids=lambda v: str(v)
    )
    def test_emitter_output_validates(self, target, filename, family,
                                      tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ARTIFACT_DIR", str(tmp_path))
        run_table(target, FAST_PROFILE)
        path = tmp_path / filename
        assert path.exists(), f"{target} did not write {filename}"
        payload = json.loads(path.read_text())
        assert validate_artifact(payload) == family
        assert payload["profile"] == FAST_PROFILE.name

    def test_every_schema_family_has_an_emitter(self):
        assert {family for _, _, family in ARTIFACT_EMITTERS} == set(
            ARTIFACT_SCHEMAS
        )

    def test_missing_required_key_is_rejected(self):
        payload = {
            "bench": "drift", "profile": "test", "seed": 0,
            "generated_at": "now", "rows": [],
        }  # misses migration_cost
        with pytest.raises(ArtifactError, match="migration_cost"):
            validate_artifact(payload)

    def test_row_shape_is_enforced(self):
        payload = {
            "bench": "transport", "profile": "test", "seed": 0,
            "generated_at": "now",
            "storm": {"requeue_count": 0, "retried_restarts": 0,
                      "worker_failures": 0},
            "rows": [{"metric": "m", "ratio": "fast", "detail": "d"}],
        }
        with pytest.raises(ArtifactError, match=r"rows\[0\]\.ratio"):
            validate_artifact(payload)

    def test_enum_and_const_violations_are_reported(self):
        with pytest.raises(ArtifactError, match="not one of"):
            validate_schema("maybe", {"enum": ["stay", "migrate"]})
        with pytest.raises(ArtifactError, match="expected"):
            validate_schema("drift", {"const": "service"})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ArtifactError, match="expected integer"):
            validate_schema(True, {"type": "integer"})

    def test_unknown_family_is_rejected(self):
        with pytest.raises(ArtifactError, match="unknown artifact family"):
            validate_artifact({"bench": "mystery"})


# ----------------------------------------------------------------------
# The no-wall-clock convention, enforced mechanically
# ----------------------------------------------------------------------
_TIMEISH = re.compile(
    r"(^|_)(wall|elapsed|seconds?|duration|perf_counter|monotonic)(_|$)",
    re.IGNORECASE,
)


def _identifiers(node):
    """Every dotted / subscripted identifier string under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _absolute_time_assertions(source, filename):
    """Assertions comparing a time-ish quantity against a numeric literal.

    Comparing wall-clock against a hard-coded bound makes a test hang
    its verdict on machine speed; bench code must gate on ratios,
    iteration budgets, or computed (relative) budgets instead.  Literal
    ``0`` is allowed — non-negativity is not a wall-clock budget.
    """
    violations = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Assert):
            continue
        for compare in ast.walk(node.test):
            if not isinstance(compare, ast.Compare):
                continue
            sides = [compare.left, *compare.comparators]
            timeish = [
                side for side in sides
                if any(_TIMEISH.search(name) for name in _identifiers(side))
            ]
            literal = [
                side for side in sides
                if isinstance(side, ast.Constant)
                and isinstance(side.value, (int, float))
                and not isinstance(side.value, bool)
                and side.value != 0
            ]
            if timeish and literal:
                violations.append(f"{filename}:{node.lineno}")
    return violations


class TestNoWallClockConvention:
    def test_bench_sources_never_assert_absolute_time(self):
        root = Path(__file__).parent.parent
        sources = sorted(
            list((root / "src" / "repro" / "bench").glob("*.py"))
            + list((root / "benchmarks").glob("*.py"))
        )
        assert sources, "bench sources not found — repo layout changed?"
        violations = []
        for path in sources:
            violations += _absolute_time_assertions(
                path.read_text(), str(path.relative_to(root))
            )
        assert not violations, (
            "absolute wall-clock assertions found (gate on ratios or "
            f"iteration budgets instead): {violations}"
        )

    def test_the_audit_actually_detects_violations(self):
        flagged = _absolute_time_assertions(
            "assert wall_time < 2.5\n", "example.py"
        )
        assert flagged == ["example.py:1"]
        ok = _absolute_time_assertions(
            "assert portfolio_wall <= budget\nassert wall_time >= 0\n",
            "example.py",
        )
        assert ok == []
