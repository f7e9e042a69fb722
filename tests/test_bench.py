import ast
import json
import shutil
import time
from dataclasses import fields, replace
from pathlib import Path

import jsonschema
import pytest

import identiscope
from identiscope import bench, cli, ffprob, lie_orc
from identiscope.bench import (
    Options,
    check_settings,
    compare_engines,
    corpus_dir,
    emit_report,
    fixtures_dir,
    run_corpus,
)
from identiscope.errors import EngineTimeout
from identiscope.ffprob import FfprobOptions, analyze_ffprob
from identiscope.lie_orc import SymbolicOptions, analyze_symbolic
from identiscope.model import load_model
from identiscope.symexpr import SymbolKind
from identiscope.report import (AGREEMENTS, ENGINES, REPORT_SCHEMA, STATUSES, STOPS,
                                TIMING_FIELDS, VERDICTS, AnalysisReport, ConsensusResult)

from oracles import load_corpus


def test_public_names_resolve_without_duplicates():
    assert len(set(identiscope.__all__)) == len(identiscope.__all__)
    for name in identiscope.__all__:
        assert hasattr(identiscope, name), name


def test_public_names_are_the_engines_and_the_model_kernel():
    # The test oracles (series solver, cross-check, rational evaluation,
    # free symbols) live in tests/oracles.py, not in the public API.
    assert sorted(identiscope.__all__) == [
        "AnalysisReport", "AugmentedSystem", "DivisionByZero", "DivisionByZeroModP",
        "DuplicateDeclaration", "EngineTimeout", "Expr", "FfprobOptions",
        "IdentiscopeError", "InputSpec", "LieCache", "MissingDynamics", "ModelDef",
        "ModelError", "ModelSyntaxError", "NonIntegerExponent", "NonRationalExpr",
        "RetriesExhausted", "Symbol", "SymbolKind", "SymbolicOptions",
        "UndeclaredSymbol", "UnknownInputSpec", "analyze_ffprob", "analyze_symbolic",
        "augment", "differentiate", "eval_mod_p", "extended_lie_derivative",
        "is_rational_expr", "load_model", "parse_model", "print_model", "to_string",
    ]


def test_library_modules_use_every_name_they_import():
    # __init__.py imports names to re-export them.
    for path in sorted(Path(identiscope.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(a.asname or a.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_only_errors_reads_the_clock():
    # errors.RunContext and errors.deadline_after are the one place where
    # the package reads the time.
    for path in sorted(Path(identiscope.__file__).parent.glob("*.py")):
        names = [a.name for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for a in node.names if "time" in (a.name, getattr(node, "module", None))]
        assert names == ([] if path.name != "errors.py" else ["time"]), path.name


def test_no_function_takes_a_deadline():
    # An engine turns Options.deadline into a RunContext at its entry and
    # passes that on, never the float.
    for path in sorted(Path(identiscope.__file__).parent.glob("*.py")):
        params = [(node.name, a.arg) for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                  for a in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
                  if a.arg == "deadline"]
        assert params == [], path.name


# The texts of the settings check; each is written in one module only.
SETTINGS_MESSAGES = ("at least one prime is required", "is not a prime in", "is repeated",
                     "trials must be >= 1", "max_level must be >= 0", "timeout_s must be")


def test_each_settings_message_is_written_in_one_module():
    # One check serves the CLI, bench and both engines, so no other module
    # carries a copy of its messages.
    found = {message: set() for message in SETTINGS_MESSAGES}
    for path in sorted(Path(identiscope.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for message in SETTINGS_MESSAGES:
                    if message in node.value:
                        found[message].add(path.name)
    assert found == {message: {"_linalg.py"} for message in SETTINGS_MESSAGES}


def test_schema_describes_the_report_fields_and_words():
    # report.py defines the document once: the schema's keys are the
    # dataclass fields in their order, and its enums are report's tuples.
    defs = REPORT_SCHEMA["$defs"]
    report, consensus = defs["report"]["properties"], defs["consensus"]["properties"]
    keys = ["schema_version", *(f.name for f in fields(AnalysisReport))]
    assert list(report) == keys
    assert list(AnalysisReport("m", "symbolic").to_dict()) == keys
    assert list(AnalysisReport("m", "symbolic").to_dict(include_timing=False)) == \
        [key for key in keys if key not in TIMING_FIELDS]
    assert list(consensus) == [f.name for f in fields(ConsensusResult)]
    assert list(ConsensusResult("m", "agree").to_dict()) == list(consensus)
    assert report["status"]["enum"] == list(STATUSES)
    assert report["engine"]["enum"] == list(ENGINES)
    assert report["verdicts"]["additionalProperties"]["enum"] == list(VERDICTS)
    assert report["stop_reason"]["enum"] == [*STOPS, None]
    assert consensus["agreement"]["enum"] == list(AGREEMENTS)


def test_agreement_words_are_written_in_report_only():
    for path in sorted(Path(identiscope.__file__).parent.glob("*.py")):
        if path.name == "report.py":
            continue
        words = [node.value for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Constant) and node.value in AGREEMENTS]
        assert words == [], path.name


def test_engine_names_are_written_in_report_only():
    for path in sorted(Path(identiscope.__file__).parent.glob("*.py")):
        if path.name == "report.py":
            continue
        names = [node.value for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Constant) and node.value in ENGINES]
        assert names == [], path.name


def test_symbol_kind_words_are_written_in_symexpr_only():
    # Code outside symexpr compares kinds with SymbolKind, not with a copy
    # of its words.
    words = {kind.value for kind in SymbolKind}
    for path in sorted(Path(identiscope.__file__).parent.glob("*.py")):
        if path.name == "symexpr.py":
            continue
        found = [node.value for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Constant) and node.value in words]
        assert found == [], path.name


def test_library_builds_expressions_only_through_the_smart_constructors():
    # A node built by its class constructor is not interned, so it is not
    # the canonical node of its value; the smart constructors reject it.
    classes = {"Const", "Symbol", "Add", "Mul", "Pow", "Func"}
    for path in sorted(Path(identiscope.__file__).parent.glob("*.py")):
        calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and (getattr(node.func, "id", None) in classes
                      or getattr(node.func, "attr", None) in classes)]
        assert calls == [], (path.name, calls)


def test_corpus_has_25_entries(corpus_entries):
    assert len(corpus_entries) == 25


def test_corpus_dimension_fidelity(corpus_entries):
    for entry in corpus_entries:
        md = load_model(entry.path)
        assert (md.n, md.p, md.q, md.q_w, md.m) == entry.dims, entry.name
        assert md.is_rational() == entry.rational, entry.name


def test_contested_tags():
    entries = {e.name: e for e in load_corpus()}
    assert {n for n, e in entries.items() if e.contested} == \
        {"hiv1_b", "jak_stat2", "a_thaliana"}
    for e in entries.values():
        if e.contested:
            assert e.expected_verdicts is None


@pytest.fixture()
def mini_corpus(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    for name in ("c2m_a", "c2m_b", "competition"):
        shutil.copy(corpus_dir() / f"{name}.idm", d / f"{name}.idm")
        fx = fixtures_dir() / f"{name}.expected.json"
        (tmp_path / "fixtures").mkdir(exist_ok=True)
        shutil.copy(fx, tmp_path / "fixtures" / fx.name)
    return d


def test_run_corpus_mixed_engines_has_na_record(mini_corpus):
    reports = run_corpus(mini_corpus)
    assert len(reports) == 6
    keys = [(r.model, r.engine, r.status) for r in reports]
    assert keys == sorted(keys)  # canonical (model, engine) ordering
    na = [r for r in reports if r.status == "na"]
    assert [(r.model, r.engine) for r in na] == [("competition", "ffprob")]
    assert na[0].verdicts is None and na[0].error == "NonRationalExpr"


def test_run_corpus_rejects_bad_prime_before_any_pair(mini_corpus, monkeypatch):
    def no_pair(*args):
        raise AssertionError(f"pair {args[:2]} ran")

    monkeypatch.setattr(bench, "analyze", no_pair)
    with pytest.raises(ValueError, match=r"\b100 is not a prime"):
        run_corpus(mini_corpus, opts=Options(primes=(100,)))


@pytest.mark.parametrize("opts, match", [
    (Options(trials=0), r"trials must be >= 1"),
    (Options(primes=()), r"at least one prime"),
])
def test_run_corpus_rejects_empty_batch_before_any_pair(mini_corpus, monkeypatch, opts, match):
    def no_pair(*args):
        raise AssertionError(f"pair {args[:2]} ran")

    monkeypatch.setattr(bench, "analyze", no_pair)
    with pytest.raises(ValueError, match=match):
        run_corpus(mini_corpus, opts=opts)


UNDECLARED = "model broken\nstates x\nparams k\nddt x = -k*x*q\noutput y = x\n"


def test_run_corpus_records_a_file_that_does_not_load(mini_corpus, monkeypatch):
    # Each file is parsed once for both engines; one that does not load
    # gives an error record per engine, named after the file, not a crash.
    (mini_corpus / "bad_file.idm").write_text(UNDECLARED)
    (mini_corpus / "binary.idm").write_bytes(b"\xff\xfe")
    (mini_corpus / "folder.idm").mkdir()
    loaded, load = [], bench.load_model

    def counted(path):
        loaded.append(Path(path).name)
        return load(path)

    monkeypatch.setattr(bench, "load_model", counted)
    reports = run_corpus(mini_corpus)
    assert sorted(loaded) == ["bad_file.idm", "binary.idm", "c2m_a.idm", "c2m_b.idm",
                              "competition.idm", "folder.idm"]
    assert len(reports) == 12
    for name, error in [("bad_file.idm", "UndeclaredSymbol: "),
                        ("binary.idm", "UnicodeDecodeError: "),
                        ("folder.idm", "IsADirectoryError: ")]:
        bad = [r for r in reports if r.model == name]
        assert [(r.engine, r.status) for r in bad] == [("ffprob", "error"), ("symbolic", "error")]
        for r in bad:
            assert r.error.startswith(error) and r.verdicts is None and r.rank is None
    consensus = compare_engines(reports)
    assert {c.model: c.agreement for c in consensus} == {
        "bad_file.idm": "unconfirmed", "binary.idm": "unconfirmed", "c2m_a": "agree",
        "c2m_b": "agree", "competition": "unconfirmed", "folder.idm": "unconfirmed"}
    jsonschema.validate(json.loads(emit_report(reports, consensus)), REPORT_SCHEMA)


def test_run_corpus_records_a_model_that_does_not_parse(tmp_path):
    # A zero divisor, 0 to a negative power and nesting deeper than the
    # parser's recursion are parse errors, which become records.
    body = {"div": "-k*x/0", "pow": "-k*x*(1-1)^-1", "deep": "(1+x*" * 1000 + "k" + ")" * 1000}
    for name, rhs in body.items():
        (tmp_path / f"{name}.idm").write_text(UNDECLARED.replace("-k*x*q", rhs))
    reports = run_corpus(tmp_path)
    assert [(r.model, r.engine, r.status) for r in reports] == [
        (f"{name}.idm", engine, "error") for name in sorted(body)
        for engine in ("ffprob", "symbolic")]
    assert all(r.error.startswith("ModelSyntaxError: line 4, col ") for r in reports)


def test_run_corpus_records_a_second_file_with_the_same_model_name(tmp_path):
    # Consensus groups reports by model name: b.idm's reports would be
    # compared with a.idm's under "toy".  The later file gives error records
    # named after it instead, and toy's engines agree.
    (tmp_path / "a.idm").write_text("model toy\nstates x\nparams k\nddt x = -k*x\noutput y = x\n")
    (tmp_path / "b.idm").write_text(
        "model toy\nstates x\nparams k j\nddt x = -k*j*x\noutput y = x\n")
    reports = run_corpus(tmp_path)
    assert [(r.model, r.engine, r.status) for r in reports] == [
        ("b.idm", "ffprob", "error"), ("b.idm", "symbolic", "error"),
        ("toy", "ffprob", "ok"), ("toy", "symbolic", "ok")]
    for r in reports[:2]:
        assert r.error == "DuplicateDeclaration: model name 'toy' is also declared by a.idm"
    assert {c.model: c.agreement for c in compare_engines(reports)} == {
        "b.idm": "unconfirmed", "toy": "agree"}
    assert cli.main(["bench", str(tmp_path), "--require-consensus"]) == 0


def test_a_failed_file_is_not_named_after_another_files_model(tmp_path, capsys):
    # a.idm declares model b, and b.idm does not parse.  b.idm's records are
    # named after the file, which has a dot, so no model name can equal it.
    (tmp_path / "a.idm").write_text("model b\nstates x\nparams k\nddt x = -k*x\noutput y = x\n")
    (tmp_path / "b.idm").write_text(UNDECLARED)
    reports = run_corpus(tmp_path)
    assert [(r.model, r.engine, r.status) for r in reports] == [
        ("b", "ffprob", "ok"), ("b", "symbolic", "ok"),
        ("b.idm", "ffprob", "error"), ("b.idm", "symbolic", "error")]
    assert {c.model: c.agreement for c in compare_engines(reports)} == {
        "b": "agree", "b.idm": "unconfirmed"}
    assert cli.main(["bench", str(tmp_path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "b,ffprob,ok,2,2,0.0", "b,symbolic,ok,2,2,0.0",
        "b.idm,ffprob,error,,,0.0", "b.idm,symbolic,error,,,0.0"]


def test_run_corpus_records_a_model_wider_than_the_engines_take(tmp_path):
    # n_z = 40,003 > MAX_COLS: wide.idm gives error records and toy still runs.
    toy = "model toy\nstates x\nparams k\nddt x = -k*x\noutput y = x\n"
    (tmp_path / "toy.idm").write_text(toy)
    wide = toy.replace("params k", "params k\nunknown_inputs w order 40000")
    (tmp_path / "wide.idm").write_text(wide)
    reports = run_corpus(tmp_path)
    assert [(r.model, r.engine, r.status) for r in reports] == [
        ("toy", "ffprob", "ok"), ("toy", "symbolic", "ok"),
        ("wide.idm", "ffprob", "error"), ("wide.idm", "symbolic", "error")]
    for r in reports[2:]:
        assert r.error.startswith("ModelError: model 'toy' has n_z = 40003 "), r.error


@pytest.mark.parametrize("field, value", [
    ("trials", 1.5), ("trials", True), ("max_level", 1.5), ("max_level", False),
    ("seed", "x"), ("seed", 1.5), ("seed", True), ("seed", None),
    ("primes", (2147483647, 1.5)), ("primes", (True,)), ("primes", 2147483647), ("primes", "ab"),
    ("deadline", "1"), ("deadline", True),
])
def test_options_rejects_a_field_of_the_wrong_type(field, value):
    # The type check runs again in the replace of run_model.
    with pytest.raises(TypeError, match=rf"^Options\.{field} must be "):
        Options(**{field: value})
    with pytest.raises(TypeError, match=rf"^Options\.{field} must be "):
        replace(Options(), **{field: value})


@pytest.mark.parametrize("field, value", [
    ("trials", None), ("trials", 2), ("max_level", None), ("max_level", 0), ("seed", -3),
    ("primes", None), ("primes", (2147483647,)), ("deadline", None), ("deadline", 5),
    ("deadline", 2.5),
])
def test_options_takes_each_accepted_kind(field, value):
    assert getattr(Options(**{field: value}), field) == value


@pytest.mark.parametrize("engine", bench.ENGINES)
def test_analyze_rejects_empty_primes(engine):
    md = load_model(corpus_dir() / "c2m_b.idm")
    with pytest.raises(ValueError, match=r"at least one prime"):
        bench.analyze(md, engine, Options(primes=()))


P = 2147483647


# A bad setting as (primes, trials, max_level), the text that every entry
# point raises for it, with {lo} the floor of the primes taken, and whether
# analyze_symbolic, which takes one prime above a floor of 1, can be given it.
@pytest.mark.parametrize("primes, trials, max_level, text, symbolic", [
    pytest.param((), None, None, "at least one prime is required", False, id="no-prime"),
    pytest.param((1,), None, None, "1 is not a prime in ({lo}, 3037000498]", True,
                 id="below-every-floor"),
    pytest.param((1048573,), None, None, "1048573 is not a prime in (2^20, 3037000498]", False,
                 id="prime-below-2^20"),
    pytest.param((3037000507,), None, None, "3037000507 is not a prime in ({lo}, 3037000498]",
                 True, id="prime-above-max"),
    pytest.param((2**21,), None, None, "2097152 is not a prime in ({lo}, 3037000498]", True,
                 id="composite"),
    pytest.param((P, P), None, None, f"prime {P} is repeated", False, id="repeated"),
    pytest.param((P,), 0, None, "trials must be >= 1", True, id="trials-0"),
    pytest.param((P,), None, -1, "max_level must be >= 0", True, id="max-level-negative"),
])
def test_every_entry_point_rejects_a_bad_setting_with_one_text(primes, trials, max_level, text,
                                                              symbolic, monkeypatch):
    def unreachable(md):
        raise AssertionError("augment reached")

    monkeypatch.setattr(ffprob, "augment", unreachable)
    monkeypatch.setattr(lie_orc, "augment", unreachable)
    md = load_model(corpus_dir() / "c2m_b.idm")
    given = {"trials": trials, "max_level": max_level}
    kw = {key: value for key, value in given.items() if value is not None}
    calls = [
        ("2^20", lambda: check_settings(primes, trials, max_level)),
        ("2^20", lambda: bench.analyze(md, "symbolic", Options(primes=primes, **given))),
        ("2^20", lambda: bench.analyze(md, "ffprob", Options(primes=primes, **given))),
        ("2^20", lambda: analyze_ffprob(md, FfprobOptions(primes=primes, **kw))),
    ]
    if symbolic:
        calls.append(("1", lambda: analyze_symbolic(md, SymbolicOptions(primes=(primes[0],),
                                                                        **kw))))
    for lo, call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == text.format(lo=lo)


@pytest.mark.parametrize("timeout_s", [0, -1, float("nan")])
def test_run_model_rejects_a_bad_timeout_before_any_engine(timeout_s, monkeypatch):
    # deadline_after(nan) would be a deadline that never fires.
    def no_run(*args):
        raise AssertionError(f"engine {args[1]} ran")

    monkeypatch.setattr(bench, "analyze", no_run)
    with pytest.raises(ValueError) as expected:
        check_settings(None, timeout_s=timeout_s)
    with pytest.raises(ValueError) as exc:
        bench.run_model(load_model(corpus_dir() / "c2m_a.idm"), ENGINES, Options(), timeout_s)
    assert str(exc.value) == str(expected.value)


def test_run_model_times_a_run_that_fails(monkeypatch):
    # A failed run's record keeps the time it ran, as an ok report does.
    def slow_timeout(md, opts):
        time.sleep(0.05)
        raise EngineTimeout("analysis exceeded its wall-clock bound")

    monkeypatch.setitem(bench._ENGINE_RUNS, "symbolic", slow_timeout)
    ((rep, exc),) = bench.run_model(load_model(corpus_dir() / "c2m_a.idm"), ("symbolic",),
                                    Options(), 1.0)
    assert isinstance(exc, EngineTimeout)
    assert rep.status == "timeout" and rep.wall_time_ms >= 50


def test_analyze_rejects_an_unknown_engine():
    with pytest.raises(ValueError, match=r"^unknown engine 'nope'$"):
        bench.analyze(load_model(corpus_dir() / "c2m_a.idm"), "nope")


def test_emit_report_rejects_an_unknown_format():
    with pytest.raises(ValueError, match=r"^unknown format 'xml'$"):
        emit_report([AnalysisReport(model="m", engine="symbolic")], fmt="xml")


def test_run_corpus_empty_dir(tmp_path):
    assert run_corpus(tmp_path) == []


@pytest.mark.parametrize("engine", bench.ENGINES)
def test_run_corpus_timeout_record_has_no_verdicts(mini_corpus, engine):
    reports = run_corpus(mini_corpus, (engine,), timeout_s=1e-9)
    assert reports
    for r in reports:
        # ffprob rejects the non-rational model before its run starts.
        na = engine == "ffprob" and r.model == "competition"
        assert r.status == ("na" if na else "timeout")
        assert r.verdicts is None and r.rank is None


def test_compare_engines_agreement(reports_by_key, corpus_entries):
    rational = {e.name for e in corpus_entries if e.rational}
    consensus = compare_engines(list(reports_by_key.values()))
    by_model = {c.model: c for c in consensus}
    for name in rational:
        assert by_model[name].agreement == "agree", by_model[name].disagreements


def test_non_rational_models_are_unconfirmed(reports_by_key, corpus_entries):
    consensus = {c.model: c for c in compare_engines(list(reports_by_key.values()))}
    for e in corpus_entries:
        if e.rational:
            continue
        assert consensus[e.name].agreement == "unconfirmed"


def test_compare_engines_synthetic_disagreement():
    a = AnalysisReport(model="m", engine="symbolic", verdicts={"x": "observable", "k": "SLI"})
    b = AnalysisReport(model="m", engine="ffprob", verdicts={"x": "observable", "k": "SU"})
    (res,) = compare_engines([a, b])
    assert res.agreement == "disagree"
    assert res.disagreements == [{"symbol": "k", "symbolic": "SLI", "ffprob": "SU"}]


def test_frozen_verdict_fixtures_still_hold(reports_by_key, corpus_entries):
    # Regression net: current consensus output must match the frozen
    # fixtures (contested entries carry none).
    for e in corpus_entries:
        if e.expected_verdicts is None or e.contested:
            continue
        rep = reports_by_key[(e.name, "symbolic")]
        assert rep.verdicts == e.expected_verdicts, e.name


def test_emit_csv_layout():
    ok = AnalysisReport(model="m1", engine="symbolic", rank=3, n_z=4, wall_time_ms=12.3)
    to = AnalysisReport(model="m2", engine="ffprob", status="timeout")
    data = emit_report([ok, to], fmt="csv").decode()
    lines = data.splitlines()
    assert lines[0] == "model,engine,status,rank,n_z,time_ms"
    assert lines[1].startswith("m1,symbolic,ok,3,4,")
    assert lines[2] == "m2,ffprob,timeout,,,0.0"


def test_emit_json_validates_against_schema(reports_by_key):
    reports = list(reports_by_key.values())
    consensus = compare_engines(reports)
    doc = json.loads(emit_report(reports, consensus, fmt="json"))
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_emit_report_deterministic(reports_by_key):
    reports = list(reports_by_key.values())
    reports.sort(key=lambda r: (r.model, r.engine))
    consensus = compare_engines(reports)
    a = emit_report(reports, consensus, include_timing=False)
    b = emit_report(reports, consensus, include_timing=False)
    assert a == b


def test_rerun_byte_identical_modulo_timing(mini_corpus):
    a = run_corpus(mini_corpus)
    b = run_corpus(mini_corpus)
    assert emit_report(a, include_timing=False) == emit_report(b, include_timing=False)


GOLDEN = Path(__file__).parent / "golden" / "bench_seed0.json"


def test_report_bytes_match_golden(corpus_reports):
    """The default bench report (whole corpus, seed 0) keeps its bytes.

    A change that alters them on purpose regenerates the file with
    emit_report(corpus_reports, compare_engines(corpus_reports),
    include_timing=False) and says why.
    """
    got = emit_report(corpus_reports, compare_engines(corpus_reports), include_timing=False)
    assert got == GOLDEN.read_bytes()
