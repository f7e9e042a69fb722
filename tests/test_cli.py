import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import identiscope
from identiscope.bench import REPORT_SCHEMA, corpus_dir

TOY = "model toy\nstates x\nparams k\nddt x = -k*x\noutput y = x\n"

# The CLI runs in a child process, which must import the same identiscope
# as the tests, also when only pytest's own `pythonpath` setting found it.
SRC = str(Path(identiscope.__file__).resolve().parents[1])


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("IDENTISCOPE_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "identiscope.cli", *args],
        capture_output=True, text=True, env=env,
    )


@pytest.fixture()
def toy_path(tmp_path):
    p = tmp_path / "toy.idm"
    p.write_text(TOY)
    return str(p)


def test_analyze_toy_both_engines(toy_path):
    res = run_cli("analyze", toy_path, "--engine", "both", "--seed", "7")
    assert res.returncode == 0
    assert "observable" in res.stdout
    assert "SLI" in res.stdout
    assert "consensus: engines agree" in res.stdout
    # timing goes to stderr, keeping stdout deterministic
    assert "ms" not in res.stdout
    assert "ms" in res.stderr


def test_analyze_stdout_deterministic(toy_path):
    a = run_cli("analyze", toy_path, "--seed", "3")
    b = run_cli("analyze", toy_path, "--seed", "3")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_analyze_ffprob_on_non_rational_exits_1():
    path = str(corpus_dir() / "competition.idm")
    res = run_cli("analyze", path, "--engine", "ffprob")
    assert res.returncode == 1
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error"] == "NonRationalExpr"
    assert "ln(" in err["message"]


def test_check_reports_syntax_position(tmp_path):
    bad = tmp_path / "bad.idm"
    bad.write_text("model m\nstates x\nddt x = -x\noutput y = z\n")
    res = run_cli("check", str(bad))
    assert res.returncode == 2
    assert "line 4" in res.stderr and "col 12" in res.stderr


def test_check_valid_model(toy_path):
    res = run_cli("check", toy_path)
    assert res.returncode == 0
    assert "states=1 params=1" in res.stdout
    assert "(rational)" in res.stdout


def test_explain_lists_augmented_state():
    res = run_cli("explain", str(corpus_dir() / "c2m_c.idm"))
    assert res.returncode == 0
    assert "n_z = 8" in res.stdout
    assert "d/dt w" in res.stdout


def test_help_lists_flags_with_defaults():
    res = run_cli("analyze", "--help")
    assert res.returncode == 0
    for flag in ("--engine", "--seed", "--prime", "--trials", "--max-level",
                 "--series-order", "--timeout-s", "--json", "--require-consensus"):
        assert flag in res.stdout
    assert "default" in res.stdout


def test_env_seed_override(toy_path):
    default = run_cli("analyze", toy_path)
    via_env = run_cli("analyze", toy_path, env_extra={"IDENTISCOPE_SEED": "0"})
    assert default.stdout == via_env.stdout
    seeded = run_cli("analyze", toy_path, "--seed", "123")
    via_env2 = run_cli("analyze", toy_path, env_extra={"IDENTISCOPE_SEED": "123"})
    assert seeded.stdout == via_env2.stdout


def test_json_output_validates(toy_path, tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("analyze", toy_path, "--json", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert {r["engine"] for r in doc["reports"]} == {"symbolic", "ffprob"}


def test_require_consensus_ok_on_agreement(toy_path):
    res = run_cli("analyze", toy_path, "--require-consensus")
    assert res.returncode == 0


def test_require_consensus_unconfirmed_is_not_disagreement():
    path = str(corpus_dir() / "competition.idm")
    res = run_cli("analyze", path, "--engine", "both", "--require-consensus")
    assert res.returncode == 0
    assert "unconfirmed" in res.stdout


def test_usage_error_exit_2():
    res = run_cli("analyze")  # missing path
    assert res.returncode == 2


def test_analyze_timeout_exits_1(toy_path):
    res = run_cli("analyze", str(corpus_dir() / "gene_p53.idm"),
                  "--engine", "symbolic", "--timeout-s", "0.000001")
    assert res.returncode == 1
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error"] == "EngineTimeout"


def test_analyze_missing_file_exits_2():
    res = run_cli("analyze", "/nonexistent/model.idm")
    assert res.returncode == 2


def test_bench_csv_format(tmp_path):
    import shutil
    d = tmp_path / "corpus"
    d.mkdir()
    for name in ("c2m_a", "competition"):
        shutil.copy(corpus_dir() / f"{name}.idm", d / f"{name}.idm")
    res = run_cli("bench", str(d), "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "model,engine,status,rank,n_z,time_ms"
    assert len(lines) == 5  # 2 models x 2 engines
    assert any(line.startswith("competition,ffprob,na") for line in lines)


def test_bench_json_document(tmp_path):
    import shutil
    d = tmp_path / "corpus"
    d.mkdir()
    shutil.copy(corpus_dir() / "c2m_a.idm", d / "c2m_a.idm")
    out = tmp_path / "bench.json"
    res = run_cli("bench", str(d), "--json", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["consensus"][0]["agreement"] == "agree"


@pytest.mark.parametrize("command,flags,env", [
    pytest.param("analyze", ["--prime", "7"], None, id="analyze-prime-below-2^20"),
    pytest.param("analyze", ["--prime", "100"], None, id="analyze-prime-not-prime"),
    pytest.param("analyze", ["--prime", str(2**61 - 1)], None, id="analyze-prime-above-max"),
    pytest.param("bench", ["--prime", "100"], None, id="bench-prime-not-prime"),
    pytest.param("analyze", ["--trials", "0"], None, id="analyze-trials-0"),
    pytest.param("bench", ["--trials", "0"], None, id="bench-trials-0"),
    pytest.param("analyze", ["--series-order", "0"], None, id="analyze-series-order-0"),
    pytest.param("analyze", ["--max-level", "-1"], None, id="analyze-max-level-negative"),
    pytest.param("analyze", ["--timeout-s", "0"], None, id="analyze-timeout-0"),
    pytest.param("bench", ["--timeout-s", "-1"], None, id="bench-timeout-negative"),
    pytest.param("analyze", [], {"IDENTISCOPE_SEED": "abc"}, id="env-seed-not-int"),
])
def test_bad_run_settings_exit_2_with_message(command, flags, env, toy_path, tmp_path):
    target = toy_path if command == "analyze" else str(tmp_path)  # bench: empty corpus
    res = run_cli(command, target, *flags, env_extra=env)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert res.stdout == ""
