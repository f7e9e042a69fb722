"""One workload in one fresh process; started by run.py.

    python3 perfbench/worker.py setup <workload>
        Import identiscope, load and augment the workload's models, and
        print the seconds that took, scaled as in ``SpeedProbe``.
    python3 perfbench/worker.py run <workload> <seed> <seconds> <trace>
        Run the workload's pairs and print one JSON object of results.

A pair is one (model, engine) analysis, run as ``identiscope analyze`` and
``bench`` run it: caches cleared, the model loaded from the corpus, the
engine called with the corpus budget.  Every verdict and rank is checked
against the reference.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from bisect import bisect_left
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from workloads import WORKLOADS, models  # noqa: E402

# The vCPUs this runs on are shared with other tenants, and the speed of
# the same interpreter work drifts by up to 2x over seconds to minutes, so
# raw times of one workload spread by 20-50 % between runs.  Times are
# therefore reported at a reference speed: a probe, a fixed slice of
# interpreter work, runs every PROBE_INTERVAL_S in the measured thread
# itself, and an interval's time, less the probes run inside it, is scaled
# by (PROBE_REF_S / probe time around it) ** PROBE_EXPONENT.  The probe time
# is the harmonic mean of the samples, i.e. the interval's mean speed.  The
# engines slow down more than the probe as the host gets busier: over two
# 8-10 minute runs of ffprob and symbolic pairs on the 2-vCPU Xeon host,
# log pair time against log probe time had slope 1.26-1.39 (r 0.94-0.98),
# and scaling with slope 1.35 halved the spread left by slope 1.  Pairs of
# corpus-small take 20-100 ms, so the probe also runs at both ends of every
# pair, and an interval is scaled by the samples nearest to it: taking
# PROBE_MIN_SAMPLES = 3 rather than 21 cut the spread of pair_p50_s there
# from 0.10-0.21 to 0.05.
PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 0.0006  # the probe's median time on that host, engines running
PROBE_EXPONENT = 1.35
PROBE_MIN_SAMPLES = 3  # shorter intervals borrow the nearest samples
PROBE_MARK_SAMPLES = 2  # at each end of a pair
# Set-up is mostly importing the program and numpy, a quarter of a second
# in a fresh process.  Over 150 such processes on that host, IQR/median was
# 0.20 raw and 0.07 scaled with slope 1 by probes taken every 10 ms during
# the set-up itself; probes taken before and after it gave 0.16, and slope
# 1.35 gave 0.10.
SETUP_PROBE_INTERVAL_S = 0.01
SETUP_PROBE_EXPONENT = 1.0


class SpeedProbe:
    """Samples how fast this thread runs, from a SIGALRM handler while
    active and on demand through ``sample``."""

    def __init__(self, interval_s: float = PROBE_INTERVAL_S,
                 exponent: float = PROBE_EXPONENT):
        self.interval_s = interval_s
        self.exponent = exponent
        self.starts: list[float] = []
        self.secs: list[float] = []

    @staticmethod
    def _work() -> int:
        d, s = {}, 0
        for i in range(3000):
            d[i & 63] = s
            s = (s * 31 + i) % 1000003
        return s

    def sample(self, *_):
        t0 = time.perf_counter()
        self._work()
        self.starts.append(t0)
        self.secs.append(time.perf_counter() - t0)

    def mark(self):
        """Samples taken between pairs, with the timer's own held back."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            for _ in range(PROBE_MARK_SAMPLES):
                self.sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def adjust(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] of ``perf_counter`` would have
        taken at the reference speed, the probes run inside it excluded."""
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        busy = t1 - t0 - sum(self.secs[lo:hi])
        while hi - lo < min(PROBE_MIN_SAMPLES, len(self.secs)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.secs))
        speed = PROBE_REF_S / statistics.harmonic_mean(self.secs[lo:hi])
        return busy * speed ** self.exponent


class _Program:
    """The identiscope modules, looked up by attribute at call time so that
    the tracer's wrappers are seen."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        pkg = importlib.import_module("identiscope")
        if not Path(pkg.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"identiscope imported from {pkg.__file__}, not from {SRC}")
        for name in ("bench", "errors", "ffprob", "lie_orc", "model", "report", "symexpr"):
            setattr(self, name, importlib.import_module(f"identiscope.{name}"))

    def model_path(self, name: str) -> str:
        return str(self.bench.corpus_dir() / f"{name}.idm")

    def run_pair(self, name: str, engine: str, seed: int, budget_s: float):
        """Analyze one pair; failures become records, as in ``bench``.

        This repeats ``bench._run_one`` through public entry points only, so
        the benchmark keeps working when that private helper is replaced."""
        rep, err = self.report, self.errors
        self.symexpr.clear_caches()
        md = self.model.load_model(self.model_path(name))
        deadline = time.monotonic() + budget_s
        try:
            if engine == "symbolic":
                return self.lie_orc.analyze_symbolic(
                    md, self.lie_orc.SymbolicOptions(seed=seed, deadline=deadline))
            return self.ffprob.analyze_ffprob(
                md, self.ffprob.FfprobOptions(seed=seed, deadline=deadline))
        except err.NonRationalExpr:
            if engine != "ffprob":
                raise
            status, error = rep.STATUS_NA, "NonRationalExpr"
        except err.EngineTimeout:
            status, error = rep.STATUS_TIMEOUT, "EngineTimeout"
        except err.IdentiscopeError as exc:
            status, error = rep.STATUS_ERROR, f"{type(exc).__name__}: {exc}"
        return rep.AnalysisReport(model=md.name, engine=engine, status=status,
                                  seed=seed, error=error)


def load_reference(prog: _Program, names) -> dict[str, dict]:
    """Expected rank, rationality and verdicts per model.  Frozen fixture
    verdicts are used where they exist; the rest come from reference.json."""
    recorded = json.loads((HERE / "reference.json").read_text())["models"]
    out = {}
    for name in names:
        ref = dict(recorded[name])
        fixture = prog.bench.fixtures_dir() / f"{name}.expected.json"
        if fixture.exists():
            frozen = json.loads(fixture.read_text()).get("verdicts")
            if frozen:
                ref["verdicts"] = frozen
        if not ref.get("verdicts"):
            raise KeyError(f"no reference verdicts for {name}")
        out[name] = ref
    return out


def check(report, ref: dict) -> tuple[bool, bool]:
    """(decided, matches reference) for one pair's report.  Decided means
    ok, or the na expected of ffprob on a non-rational model."""
    expected_na = report.engine == "ffprob" and not ref["rational"]
    if report.status == "na":
        return expected_na, expected_na
    if report.status != "ok":
        return False, False
    return True, (not expected_na and report.rank == ref["rank"]
                  and report.verdicts == ref["verdicts"])


def run_pass(prog: _Program, pairs, seed: int, budget_s: float, tracer=None,
             probe: SpeedProbe | None = None) -> dict:
    """All pairs once, then consensus and the serialized report, as
    ``identiscope bench`` does them.  Returns the ``perf_counter`` interval
    of each pair and of consensus plus report; the pass is their sum.

    Garbage is collected before each pair, untimed, so that no pair pays
    for collecting what the pairs before it left: that cut the run-to-run
    variation of the 0.1 s pairs of corpus-small from 12 % to 6 %."""
    clock = time.perf_counter
    if tracer:
        tracer.begin("pass")
    reports, spans = [], []
    for name, engine in pairs:
        gc.collect()
        if probe:
            probe.mark()
        ts = clock()
        if tracer:
            tracer.begin("pair", pair=f"{name}:{engine}")
        reports.append(prog.run_pair(name, engine, seed, budget_s))
        if tracer:
            tracer.end()
        spans.append((ts, clock()))
        if probe:
            probe.mark()
    ts = clock()
    consensus = prog.bench.compare_engines(reports)
    prog.bench.emit_report(reports, consensus)
    tail = (ts, clock())
    if tracer:
        tracer.end()
    wall = sum(t1 - t0 for t0, t1 in (*spans, tail)) - (tracer.post_s if tracer else 0.0)
    return {"wall": wall, "spans": spans, "tail": tail,
            "reports": reports, "consensus": consensus}


def summarize(passes, refs) -> dict:
    reports = [r for p in passes for r in p["reports"]]
    outcomes = [check(r, refs[r.model]) for r in reports]
    mismatches = sorted({f"{r.model}:{r.engine}:{r.status}"
                         for r, (_, match) in zip(reports, outcomes)
                         if not match and r.status in ("ok", "na")})
    return {"attempted": len(reports),
            "decided": sum(d for d, _ in outcomes),
            "matched": sum(m for _, m in outcomes),
            "checked": sum(r.status in ("ok", "na") for r in reports),
            "mismatches": mismatches}


def end_to_end(passes, summary, probe: SpeedProbe | None) -> dict[str, float]:
    def secs(span):
        return probe.adjust(*span) if probe else span[1] - span[0]

    # A pair's time is its median over passes, so a pair that hit a burst
    # of host load in one pass does not set the slowest or typical pair.
    per_pair = [statistics.median(secs(span) for span in spans)
                for spans in zip(*(p["spans"] for p in passes))]
    unconfirmed = sum(c.agreement != "agree" for c in passes[-1]["consensus"])
    return {
        "wall_s": statistics.median(sum(map(secs, (*p["spans"], p["tail"])))
                                    for p in passes),
        "raw_wall_s": statistics.median(p["wall"] for p in passes),
        "slowest_pair_s": max(per_pair),
        "pair_p50_s": statistics.median(per_pair),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided_frac": summary["decided"] / summary["attempted"],
        "verdict_match_frac": (summary["matched"] / summary["checked"]
                               if summary["checked"] else 0.0),
        "unconfirmed_models": unconfirmed,
        "passes": len(passes),
    }


def cmd_setup(workload: str):
    with SpeedProbe(SETUP_PROBE_INTERVAL_S, SETUP_PROBE_EXPONENT) as probe:
        probe.mark()  # so that a set-up shorter than the interval has samples
        t0 = time.perf_counter()
        prog = _Program()
        for name in models(workload):
            prog.model.augment(prog.model.load_model(prog.model_path(name)))
        t1 = time.perf_counter()
    print(probe.adjust(t0, t1))


def cmd_run(workload: str, seed: int, seconds: float, trace: bool):
    # The traced run compares an untraced pass with a traced one, and
    # neither runs the speed probe.
    probe = None if trace else SpeedProbe()
    prog = _Program()
    pairs = WORKLOADS[workload]
    refs = load_reference(prog, models(workload))
    budget = prog.bench.DEFAULT_TIMEOUT_S

    # Passes repeat until the run length is used up; the traced run makes
    # one untraced pass, to compare against the traced one.
    passes = []
    t_end = time.perf_counter() + seconds
    with probe or contextlib.nullcontext():
        while not passes or (not trace and time.perf_counter() < t_end):
            passes.append(run_pass(prog, pairs, seed, budget, probe=probe))

    checked, metrics = list(passes), None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(prog, pairs, seed, budget, tracer)
        finally:
            tracer.uninstall()
        checked.append(traced)
        metrics = tracer.metrics(traced["wall"], passes[0]["wall"])
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{workload}-seed{seed}.json.gz",
                     {"workload": workload, "seed": seed,
                      "untraced_wall_s": passes[0]["wall"], "traced_wall_s": traced["wall"]})

    summary = summarize(checked, refs)
    result = {"summary": summary, "end_to_end": end_to_end(passes, summary, probe)}
    if metrics is not None:
        result["per_layer"] = metrics
    print(json.dumps(result))


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 2:
        cmd_setup(argv[1])
    elif argv[:1] == ["run"] and len(argv) == 5:
        cmd_run(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    else:
        sys.exit(f"usage: {sys.argv[0]} setup <workload> | run <workload> <seed> <seconds> <0|1>")


if __name__ == "__main__":
    main(sys.argv[1:])
