"""The command-line interface."""

import pytest

from repro.cli import build_parser, main

SCHEMA_SQL = "CREATE TABLE t (id INT, name VARCHAR(16), blob VARCHAR(200));"
WORKLOAD_SQL = """
-- transaction Lookup
SELECT id, name FROM t WHERE id = ?;
-- transaction Save
UPDATE t SET blob = ? WHERE id = ?;
"""


def test_info_tpcc(capsys):
    assert main(["info", "--instance", "tpcc"]) == 0
    output = capsys.readouterr().out
    assert "|A|: 92" in output.replace(" ", "").replace("|A|:", "|A|: ")


def test_advise_sa(capsys):
    exit_code = main([
        "advise", "--instance", "rndBt4x15", "--sites", "2",
        "--solver", "sa", "--seed", "0",
    ])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "objective (4)" in output
    assert "reduction" in output


def test_advise_qp_with_layout(capsys):
    exit_code = main([
        "advise", "--instance", "rndBt4x15", "--sites", "2",
        "--solver", "qp", "--time-limit", "10", "--layout",
    ])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Site 1" in output


def test_advise_portfolio_backend_and_prune(capsys):
    exit_code = main([
        "advise", "--instance", "rndBt4x15", "--sites", "2",
        "--solver", "sa-portfolio", "--seed", "0", "--restarts", "2",
        "--backend", "socket", "--workers", "0", "--prune",
    ])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "best-of-2" in output
    assert "socket executor" in output


def test_backend_requires_sa_family_solver(capsys):
    exit_code = main([
        "advise", "--instance", "rndBt4x15", "--sites", "2",
        "--solver", "greedy", "--backend", "socket",
    ])
    assert exit_code == 1
    assert "--backend" in capsys.readouterr().err


def test_unknown_backend_is_error(capsys):
    exit_code = main([
        "advise", "--instance", "rndBt4x15", "--sites", "2",
        "--solver", "sa-portfolio", "--restarts", "2",
        "--backend", "carrier-pigeon",
    ])
    assert exit_code == 1
    assert "unknown execution backend" in capsys.readouterr().err


def test_advise_sql_files(tmp_path, capsys):
    schema = tmp_path / "schema.sql"
    workload = tmp_path / "workload.sql"
    schema.write_text(SCHEMA_SQL)
    workload.write_text(WORKLOAD_SQL)
    exit_code = main([
        "advise", "--schema", str(schema), "--workload", str(workload),
        "--sites", "2", "--solver", "qp", "--time-limit", "10",
    ])
    assert exit_code == 0
    assert "workload" in capsys.readouterr().out


def test_schema_without_workload_is_error(tmp_path, capsys):
    schema = tmp_path / "schema.sql"
    schema.write_text(SCHEMA_SQL)
    exit_code = main(["info", "--schema", str(schema)])
    assert exit_code == 1
    assert "together" in capsys.readouterr().err


def test_unknown_instance_is_error(capsys):
    assert main(["info", "--instance", "nope"]) == 1
    assert "unknown instance" in capsys.readouterr().err


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("info", "advise", "bench"):
        assert command in text


def test_bench_rejects_unknown_target():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["bench", "tableX"])
