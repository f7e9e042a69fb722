"""Record reference.json: the expected rank and rationality of every model
the workloads run, and verdicts for models whose fixture freezes none.

    python3 perfbench/record_reference.py

Both engines run on every model at seed 0.  A model is recorded only when
the engines that can run it agree on rank and verdicts; a non-rational
model has only the symbolic engine.  Run this once; the benchmark then
checks every run against the file.
"""

import json
import sys

from workloads import WORKLOADS, models
from worker import HERE, _Program


def main():
    prog = _Program()
    budget = prog.bench.DEFAULT_TIMEOUT_S
    names = list(dict.fromkeys(m for w in WORKLOADS for m in models(w)))
    out = {}
    for name in names:
        sym = prog.run_pair(name, "symbolic", 0, budget)
        ffp = prog.run_pair(name, "ffprob", 0, budget)
        rational = ffp.status != "na"
        if sym.status != "ok" or (rational and ffp.status != "ok"):
            sys.exit(f"{name}: no verdict (symbolic {sym.status}, ffprob {ffp.status})")
        if rational and (sym.rank, sym.verdicts) != (ffp.rank, ffp.verdicts):
            sys.exit(f"{name}: engines disagree (ranks {sym.rank} and {ffp.rank})")
        out[name] = {"rank": sym.rank, "n_z": sym.n_z, "rational": rational}
        fixture = prog.bench.fixtures_dir() / f"{name}.expected.json"
        frozen = json.loads(fixture.read_text()).get("verdicts") if fixture.exists() else None
        if not frozen:
            out[name]["verdicts"] = sym.verdicts
        elif frozen != sym.verdicts:
            sys.exit(f"{name}: verdicts differ from the frozen fixture")
        print(f"{name}: rank {sym.rank}/{sym.n_z}, rational {rational}", file=sys.stderr)
    doc = {"seed": 0, "models": out}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
