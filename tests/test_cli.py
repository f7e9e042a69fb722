import io
import json
import os
import re
import string
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import identiscope
from identiscope import bench, cli
from identiscope._linalg import MAX_PRIME
from identiscope.bench import corpus_dir
from identiscope.errors import EngineTimeout, ModelError
from identiscope.model import ModelDef, load_model, parse_model
from identiscope.report import DISAGREE, ENGINES, FFPROB, REPORT_SCHEMA, SYMBOLIC

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
                 "--timeout-s", "--json", "--require-consensus"):
        assert flag in res.stdout
    assert "--series-order" not in res.stdout
    assert "default" in res.stdout


def test_env_seed_override(toy_path):
    default = run_cli("analyze", toy_path)
    via_env = run_cli("analyze", toy_path, env_extra={"IDENTISCOPE_SEED": "0"})
    assert default.stdout == via_env.stdout
    seeded = run_cli("analyze", toy_path, "--seed", "123")
    via_env2 = run_cli("analyze", toy_path, env_extra={"IDENTISCOPE_SEED": "123"})
    assert seeded.stdout == via_env2.stdout


def test_bad_env_seed_exits_2_unless_a_seed_is_given(toy_path, monkeypatch):
    monkeypatch.setenv("IDENTISCOPE_SEED", "abc")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli.main(["analyze", toy_path])
    assert exc.value.code == 2
    assert err.getvalue() == "error: IDENTISCOPE_SEED='abc': need an integer\n"
    assert out.getvalue() == ""
    with redirect_stdout(io.StringIO()):  # --seed wins, and the variable is not read
        assert cli.main(["analyze", toy_path, "--seed", "2"]) == 0


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


@pytest.mark.parametrize("level", [0, 2])
def test_max_level_caps_both_engines_at_one_depth(level):
    # Level k of the symbolic matrix is block k of ffprob's, so both engines
    # capped at the same k rank the same matrix and agree.
    path = str(corpus_dir() / "hiv2.idm")
    res = run_cli("analyze", path, "--max-level", str(level), "--require-consensus")
    assert res.returncode == 0, res.stdout
    assert "consensus: engines agree" in res.stdout
    # Both stop at the cap, and name that stop with one word.
    assert res.stdout.count("(stop: max_level)") == 2, res.stdout


def test_require_consensus_unconfirmed_is_not_disagreement():
    path = str(corpus_dir() / "competition.idm")
    res = run_cli("analyze", path, "--engine", "both", "--require-consensus")
    assert res.returncode == 0
    assert "unconfirmed" in res.stdout


def test_usage_error_exit_2():
    res = run_cli("analyze")  # missing path
    assert res.returncode == 2


@pytest.mark.parametrize("engine", ENGINES)
def test_analyze_timeout_exits_1(toy_path, engine):
    res = run_cli("analyze", str(corpus_dir() / "gene_p53.idm"),
                  "--engine", engine, "--timeout-s", "0.000001")
    assert res.returncode == 1
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error"] == "EngineTimeout"


def test_analyze_keeps_every_record_when_an_engine_fails(tmp_path, monkeypatch):
    # A failed engine does not drop the other's report: both records go to
    # stdout and --json, then the error line ends stderr and analyze exits 1.
    def timed_out(md, opts):
        raise EngineTimeout("analysis exceeded its wall-clock bound")

    monkeypatch.setitem(bench._ENGINE_RUNS, FFPROB, timed_out)
    path = tmp_path / "report.json"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["analyze", str(corpus_dir() / "hiv2.idm"), "--timeout-s", "30",
                         "--json", str(path)])
    assert code == 1
    assert "engine: symbolic\nstatus: ok\n" in out.getvalue()
    assert "verdicts:\n" in out.getvalue()
    assert "engine: ffprob\nstatus: timeout\n" in out.getvalue()
    assert json.loads(err.getvalue().splitlines()[-1])["error"] == "EngineTimeout"
    doc = json.loads(path.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert [(r["engine"], r["status"]) for r in doc["reports"]] == [
        (SYMBOLIC, "ok"), (FFPROB, "timeout")]


def test_analyze_gives_each_engine_its_own_deadline(toy_path, monkeypatch):
    # --timeout-s bounds each engine from its own start, as bench bounds
    # each (model, engine) pair.
    entries = []

    def recorded(run, pause):
        def stub(md, opts):
            entries.append((opts.deadline, time.monotonic()))
            time.sleep(pause)
            return run(md, opts)
        return stub

    monkeypatch.setitem(bench._ENGINE_RUNS, SYMBOLIC, recorded(bench._ENGINE_RUNS[SYMBOLIC], 0.05))
    monkeypatch.setitem(bench._ENGINE_RUNS, FFPROB, recorded(bench._ENGINE_RUNS[FFPROB], 0))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(["analyze", toy_path, "--timeout-s", "5"]) == 0
    (first, first_entry), (second, second_entry) = entries
    assert second - first >= 0.05
    assert 0 < first - first_entry <= 5 and 0 < second - second_entry <= 5


def _in_process(*argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def ffprob_flips_b(monkeypatch):
    # ffprob's real report on hiv2, with b turned from SLI to SU.
    run = bench._ENGINE_RUNS[FFPROB]

    def flipped(md, opts):
        rep = run(md, opts)
        assert rep.verdicts["b"] == "SLI"
        return replace(rep, verdicts={**rep.verdicts, "b": "SU"})

    monkeypatch.setitem(bench._ENGINE_RUNS, FFPROB, flipped)


@pytest.mark.parametrize("flags, exit_code", [((), 0), (("--require-consensus",), 3)])
def test_analyze_disagreement_exits_3_under_require_consensus(ffprob_flips_b, flags, exit_code):
    code, out, _ = _in_process("analyze", str(corpus_dir() / "hiv2.idm"), *flags)
    assert code == exit_code
    assert out.endswith("\nconsensus: engines DISAGREE on b\n")


def test_bench_disagreement_exits_3_under_require_consensus(ffprob_flips_b, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "hiv2.idm").write_text((corpus_dir() / "hiv2.idm").read_text())
    path = tmp_path / "report.json"
    code, out, _ = _in_process("bench", str(corpus), "--require-consensus", "--json", str(path))
    assert code == 3
    assert out.splitlines()[-1] == f"{'hiv2':<22} disagree  (b)"
    (entry,) = json.loads(path.read_text())["consensus"]
    assert entry["agreement"] == "disagree"


@pytest.mark.parametrize("name, engine, first", [
    ("competition", SYMBOLIC, "transcendental subterms were replaced by independent symbols"),
    ("c2m_c", "both", "unknown-input derivative chains truncated (w^(2)=0), ")])
def test_analyze_prints_each_warning_as_a_note(name, engine, first):
    path = str(corpus_dir() / f"{name}.idm")
    engines = ENGINES if engine == "both" else (engine,)
    warnings = [w for r, _ in bench.run_model(load_model(path), engines, bench.Options(), None)
                for w in r.warnings]
    assert warnings[0].startswith(first)
    code, out, _ = _in_process("analyze", path, "--engine", engine)
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("note: ")] == [
        f"note: {w}" for w in warnings]


def test_analyze_missing_file_exits_2():
    res = run_cli("analyze", "/nonexistent/model.idm")
    assert res.returncode == 2


@pytest.mark.parametrize("command", ["check", "analyze"])
def test_file_that_is_not_utf8_exits_2_with_message(command, tmp_path):
    path = tmp_path / "bin.idm"
    path.write_bytes(b"\xff\xfe")
    res = run_cli(command, str(path))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert res.stdout == ""


# Model texts that parse to no expression: a zero divisor, 0 to a negative
# power, and nesting deeper than the parser's recursion.
UNPARSABLE = {
    "zero-divisor": TOY.replace("-k*x", "-k*x/0"),
    "zero-to-negative-power": TOY.replace("output y = x", "output y = x*(1-1)^-1"),
    "deep-nesting": TOY.replace("-k*x", "(1+x*" * 1000 + "k" + ")" * 1000),
}


@pytest.mark.parametrize("name", UNPARSABLE)
@pytest.mark.parametrize("command", ["check", "analyze"])
def test_model_that_does_not_parse_exits_2_with_its_line(command, name, tmp_path):
    path = tmp_path / f"{name}.idm"
    path.write_text(UNPARSABLE[name])
    res = run_cli(command, str(path))
    assert res.returncode == 2
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and re.match(r"error: line \d+, col \d+: ", lines[0]), res.stderr
    assert res.stdout == ""


def test_check_rejects_a_model_wider_than_the_engines_take(tmp_path):
    # n_z = 40,003 > MAX_COLS; the model is only parsed, never augmented.
    path = tmp_path / "wide.idm"
    path.write_text(TOY.replace("params k", "params k\nunknown_inputs w order 40000"))
    res = run_cli("check", str(path))
    assert res.returncode == 2
    assert res.stderr == ("error: model 'toy' has n_z = 40003 (states, params and "
                          "unknown-input chains), above the engines' limit of 32767\n")
    assert res.stdout == ""


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


def test_bench_records_a_model_that_does_not_load(tmp_path):
    import shutil
    d = tmp_path / "corpus"
    d.mkdir()
    shutil.copy(corpus_dir() / "c2m_a.idm", d / "c2m_a.idm")
    (d / "bad_file.idm").write_text(TOY.replace("-k*x", "-k*x*q"))
    out = tmp_path / "bench.json"
    res = run_cli("bench", str(d), "--json", str(out), "--require-consensus")
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert "bad_file.idm           ffprob    error    rank -" in res.stdout.splitlines()
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    bad = [r for r in doc["reports"] if r["model"] == "bad_file.idm"]
    assert [(r["engine"], r["status"]) for r in bad] == [("ffprob", "error"), ("symbolic", "error")]
    assert all(r["error"].startswith("UndeclaredSymbol: ") for r in bad)
    assert {c["model"]: c["agreement"] for c in doc["consensus"]} == {
        "bad_file.idm": "unconfirmed", "c2m_a": "agree"}


@pytest.mark.parametrize("flag", ["--max-level", "--series-order"])
def test_bench_rejects_analyze_only_flags(flag, tmp_path):
    # bench runs every engine at its default depth, n_z - 1; it takes no
    # --max-level, and --series-order is a flag of no command.
    res = run_cli("bench", str(tmp_path), flag, "1")
    assert res.returncode == 2
    assert "unrecognized arguments" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command,flags,env", [
    pytest.param("analyze", ["--prime", "7"], None, id="analyze-prime-below-2^20"),
    pytest.param("analyze", ["--prime", "100"], None, id="analyze-prime-not-prime"),
    pytest.param("analyze", ["--prime", str(2**61 - 1)], None, id="analyze-prime-above-max"),
    pytest.param("bench", ["--prime", "100"], None, id="bench-prime-not-prime"),
    pytest.param("analyze", ["--prime", "2147483647", "--prime", "2147483647"], None,
                 id="analyze-prime-repeated"),
    pytest.param("bench", ["--prime", "2147483629", "--prime", "2147483629"], None,
                 id="bench-prime-repeated"),
    pytest.param("analyze", ["--trials", "0"], None, id="analyze-trials-0"),
    pytest.param("bench", ["--trials", "0"], None, id="bench-trials-0"),
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


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    """The paths that argument vectors draw from: model files, corpus
    directories and --json targets, good and bad."""
    root = tmp_path_factory.mktemp("cli")
    (root / "toy.idm").write_text(TOY)
    (root / "binary.idm").write_bytes(b"\xff\xfe")
    (root / "one").mkdir()
    (root / "one" / "toy.idm").write_text(TOY)
    (root / "empty").mkdir()
    (root / "out.json").write_text("")
    models = [root / "toy.idm", root / "missing.idm", root / "one", root / "binary.idm"]
    corpora = [root / "one", root / "empty", root / "missing", root / "toy.idm"]
    targets = [root / "out.json", root / "missing" / "out.json", root / "empty"]
    return tuple([str(p) for p in paths] for paths in (models, corpora, targets))


# Each run setting at and across the bounds of check_settings: primes at
# and below 2^20, a composite, MAX_PRIME (even) and above it, and a prime
# that may be drawn twice; trials are kept at most 2, since more reach the
# symbolic engine's memory wall on large models.
PRIMES = [2, 1048573, 2**21, MAX_PRIME, MAX_PRIME + 1, 2147483647]
TIMEOUTS = ["0", "-1", "1e-9", "nan", "inf"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_main_exits_with_a_code_or_one_error_line(cli_paths, data):
    models, corpora, targets = cli_paths
    draw = data.draw
    command = draw(st.sampled_from(["check", "explain", "analyze", "bench"]))
    target = draw(st.sampled_from(corpora if command == "bench" else models))
    argv = [command, target]
    if command in ("analyze", "bench"):
        for p in draw(st.lists(st.sampled_from(PRIMES), max_size=2)):
            argv += ["--prime", str(p)]
        options = {"--engine": st.sampled_from(["symbolic", "ffprob", "both"]),
                   "--seed": st.integers(0, 3), "--trials": st.integers(0, 2),
                   "--timeout-s": st.sampled_from(TIMEOUTS),
                   "--json": st.sampled_from(targets)}
        if command == "analyze":
            options["--max-level"] = st.integers(-1, 2)
        else:
            options["--format"] = st.sampled_from(["json", "csv"])
        for flag in draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=3)):
            argv += [flag, str(draw(options[flag]))]
        if draw(st.booleans()):
            argv.append("--require-consensus")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, err.getvalue())
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    if code == 2:
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert len(errors) == 1, (argv, err.getvalue())
    if command == "bench" and not Path(target).is_dir():
        assert code == 2, argv


# Mutated corpus texts: one token deleted, duplicated or swapped with
# another, or 1-3 printable characters spliced in.  The counts keep both
# tests to a few seconds; for a one-off deep run, raise them to 20000 and
# 1000 (under two minutes on one core).
PARSE_MUTANTS = 300
RUN_MUTANTS = 20
CORPUS_TEXTS = [path.read_text() for path in sorted(corpus_dir().glob("*.idm"))]
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|\S")


@st.composite
def mutants(draw):
    text = draw(st.sampled_from(CORPUS_TEXTS))
    spans = [m.span() for m in _TOKEN.finditer(text)]
    a, b = draw(st.sampled_from(spans))
    how = draw(st.sampled_from(["delete", "duplicate", "swap", "splice"]))
    if how == "delete":
        return text[:a] + text[b:]
    if how == "duplicate":
        return text[:b] + " " + text[a:b] + text[b:]
    if how == "swap":
        (a, b), (c, d) = sorted([(a, b), draw(st.sampled_from(spans))])
        if c < b:  # the same token
            return text
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.text(string.printable, min_size=1, max_size=3)) + text[at:]


@pytest.fixture(scope="module")
def mutant_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


@settings(max_examples=PARSE_MUTANTS, deadline=None)
@given(text=mutants())
def test_a_mutated_model_parses_or_exits_2_with_one_error_line(mutant_dir, text):
    try:
        parsed = isinstance(parse_model(text), ModelDef)
    except ModelError:
        parsed = False
    path = mutant_dir / "mutant.idm"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(["check", str(path)])
        except SystemExit as exc:
            code = exc.code
    if parsed:
        assert code == 0, text
    else:
        assert code == 2, text
        assert [line.startswith("error: ") for line in err.getvalue().splitlines()] == [True]


@settings(max_examples=RUN_MUTANTS, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(text=mutants())
def test_a_mutated_model_that_parses_gives_one_record_per_engine(mutant_dir, text):
    # Most mutants do not parse; they are cheap to draw and skip.
    try:
        parse_model(text)
    except ModelError:
        assume(False)
    corpus = mutant_dir / "corpus"
    corpus.mkdir(exist_ok=True)
    (corpus / "mutant.idm").write_text(text)
    reports = bench.run_corpus(corpus, timeout_s=0.3)
    assert sorted(r.engine for r in reports) == sorted(ENGINES), text
    assert [c.agreement for c in bench.compare_engines(reports)] != [DISAGREE], text
