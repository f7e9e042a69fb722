"""identiscope benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the program is imported from
``src/``).  Each workload runs in its own fresh, single-threaded Python
process (``worker.py``); workloads and the reasons for them are listed in
``workloads.py`` and ``BENCHMARK.json``.

``--trace 0`` starts passes over the workload's pairs until ``--seconds``
have gone (so at least one pass) and prints the end-to-end metrics.  The
pass, pair and set-up times are seconds at a fixed reference speed of the
host: a speed probe runs inside the measured process and scales out the
drift of a shared vCPU (see ``SpeedProbe`` in ``worker.py``); the raw time
of a pass goes to standard error.

    wall_s              one pass: every pair, then consensus and the report,
                        without the garbage collection before each pair
                        (median over passes)
    slowest_pair_s      the largest pair time; a pair's time is its median
                        over passes
    pair_p50_s          the median pair time; ``attempted`` counts the samples
    setup_s             import plus loading and augmenting the workload's
                        models, median over several fresh processes
    peak_rss_mb         peak resident memory of the worker process
    decided_frac        pairs that returned ok, or the na expected of ffprob on
                        a non-rational model, over pairs attempted
    verdict_match_frac  pairs whose rank and verdicts (or na) equal the
                        reference, over pairs that returned ok or na
    unconfirmed_models  models without two-engine agreement; on a workload
                        that runs one engine, every model

``--trace 1`` runs one untraced pass and one traced pass, prints the
per-layer metrics described in ``tracer.py``, and writes the spans to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every verdict and rank matched the reference; a mismatch prints
the result and exits 1, and a broken checkout or a run over its time limit
exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0  # one workload, set-up probes included

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "slowest_pair_s": "s",
    "pair_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decided_frac": "ratio",
    "verdict_match_frac": "ratio",
    "unconfirmed_models": "count",
}


class RunFailed(Exception):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Fixed string hashing, so set iteration order and every count repeat.
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _worker(args: list[str], deadline: float) -> str:
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {' '.join(args)} exceeded the run limit") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(workload: str, deadline: float) -> float:
    _worker(["setup", workload], deadline)  # warm-up: bytecode compiled, files cached
    return statistics.median(float(_worker(["setup", workload], deadline))
                             for _ in range(SETUP_PROBES))


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup_s = None if trace else setup_seconds(workload, deadline)
    res = json.loads(_worker(["run", workload, str(seed), str(seconds), str(int(trace))],
                             deadline))
    summary, e2e = res["summary"], res["end_to_end"]
    e2e["setup_s"] = setup_s
    if trace:
        from tracer import metric_specs
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit, _ in metric_specs()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(f"{workload} seed {seed}: {summary['attempted']} pairs in {e2e['passes']} pass(es), "
          f"{e2e['raw_wall_s']:.3f} s raw per pass, "
          f"{summary['decided']} decided, {len(summary['mismatches'])} verdict mismatches "
          f"{summary['mismatches'] or ''}", file=sys.stderr)
    return {"correct": not summary["mismatches"], "attempted": summary["attempted"],
            "failed": summary["attempted"] - summary["matched"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (HERE.parent / "src" / "identiscope" / "__init__.py").is_file():
        print("perfbench: run from a checkout that has src/identiscope", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        for w, res in results.items():
            print(w, " ".join(f"{k}={m['value']:.6g}{m['unit']}"
                              for k, m in res["metrics"].items()))
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": m for w, r in results.items()
                              for k, m in r["metrics"].items()}}
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
