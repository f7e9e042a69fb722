"""Outside-in tracing of identiscope's layers.

The tracer replaces public functions with timing wrappers on the module
where their caller looks them up at call time, so the program itself is
not changed.  Each outermost call of a layer opens a span (name, start,
end, parent span, pair id); a call made while the same layer is already
open, such as ``differentiate`` recursing through its own module global,
runs unwrapped.  Spans stay in memory and are written once, when the run
ends.  A layer whose function is missing or renamed is reported absent
with a warning instead of failing the run.

Per-layer metrics of the traced pass:

    <layer>.calls, .total_s, .self_s
        outermost calls, their time, and that time less the time spent in
        the wrapped layers they called
    symexpr.eval_mod_p.failed   eval_mod_p calls that raised (a vanishing
                                denominator, followed by a resample)
    lie_orc.lie_nodes           distinct expression-DAG nodes of each Lie
                                level, summed over levels and pairs
    lie_orc.eval_useful_ratio   final-matrix entries x trials / eval_mod_p calls
    ffprob.retries              series_solve and output_jacobian calls that
                                raised (a resampled trial)
    ffprob.order                series order reached, summed over pairs
    ffprob.order_useful_ratio   blocks of the output Jacobian up to the one
                                after which its rank stops rising, over all
                                blocks (order + 1); first trial of each pair
    trace.overhead_s            traced pass time less untraced pass time
    trace.covered_frac          self time of all layers but the engine entry
                                points, over the traced pass time
    trace.absent_layers         layers whose function was not found
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time

# Layer name -> (module, attribute) pairs, each the module where a caller
# looks the function up.  The engines import ``augment`` by name, so it is
# wrapped in the engine modules as well as in ``model``.  Layer names drop
# the leading underscore of ``_linalg``: metric names start with a letter.
LAYERS = {
    "symexpr.differentiate": [("symexpr", "differentiate")],
    "symexpr.eval_mod_p": [("symexpr", "eval_mod_p")],
    "symexpr.clear_caches": [("symexpr", "clear_caches")],
    "lie_orc.analyze_symbolic": [("lie_orc", "analyze_symbolic")],
    "lie_orc.build_matrix": [("lie_orc", "build_matrix")],
    "lie_orc.extended_lie_derivative": [("lie_orc", "extended_lie_derivative")],
    "lie_orc.rank_by_random_eval": [("lie_orc", "rank_by_random_eval")],
    "lie_orc.classify_columns": [("lie_orc", "classify_columns")],
    "ffprob.analyze_ffprob": [("ffprob", "analyze_ffprob")],
    "ffprob.series_solve": [("ffprob", "series_solve")],
    "ffprob.output_jacobian": [("ffprob", "output_jacobian")],
    "linalg.rank_mod_p": [("_linalg", "rank_mod_p")],
    "linalg.deleted_column_ranks": [("_linalg", "deleted_column_ranks")],
    "model.load_model": [("model", "load_model")],
    "model.augment": [("model", "augment"), ("lie_orc", "augment"), ("ffprob", "augment")],
    "bench.compare_engines": [("bench", "compare_engines")],
    "bench.emit_report": [("bench", "emit_report")],
}

# Engine entry points are spans (parents of the layers below them) but not
# layers: their self time is what no named layer accounts for.
ENTRY_POINTS = ("lie_orc.analyze_symbolic", "ffprob.analyze_ffprob")

# Counters derived from arguments and results, besides calls and times.
DERIVED = (
    ("symexpr.eval_mod_p.failed", "count", "lower"),
    ("lie_orc.lie_nodes", "count", "lower"),
    ("lie_orc.eval_useful_ratio", "ratio", "higher"),
    ("ffprob.retries", "count", "lower"),
    ("ffprob.order", "count", "lower"),
    ("ffprob.order_useful_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.covered_frac", "ratio", "higher"),
    ("trace.absent_layers", "count", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric the traced run prints."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"),
                (f"{layer}.total_s", "s", "lower"),
                (f"{layer}.self_s", "s", "lower")]
    return out + list(DERIVED)


class _Layer:
    __slots__ = ("name", "depth", "calls", "failed", "total", "self_time", "present")

    def __init__(self, name):
        self.name = name
        self.depth = 0
        self.calls = 0
        self.failed = 0
        self.total = 0.0
        self.self_time = 0.0
        self.present = False


class Tracer:
    """Spans and per-layer totals for one traced pass."""

    def __init__(self):
        self.layers = {name: _Layer(name) for name in LAYERS}
        self.spans: list[list] = []  # [name, start, end, parent id, pair id]
        self._stack: list[list] = [[None, 0.0]]  # [span id, child time]
        self._patched: list[tuple[object, str, object]] = []
        self.pair = None
        self.post_s = 0.0  # time spent deriving counters between pairs
        self._pair_capture: dict = {}
        self.lie_nodes_by_pair: dict[str, list[int]] = {}
        self.eval_entries_x_trials = 0
        self.orders: dict[str, int] = {}
        self.saturating_blocks: dict[str, tuple[int, int]] = {}
        self.warnings: list[str] = []
        self._broken_hooks: set[str] = set()

    # -- installing wrappers ----------------------------------------------

    def install(self):
        hooks = {
            "lie_orc.build_matrix": self._on_build_matrix,
            "lie_orc.classify_columns": self._on_classify_columns,
            "ffprob.series_solve": self._on_series_solve,
            "ffprob.output_jacobian": self._on_output_jacobian,
        }
        for name, targets in LAYERS.items():
            layer = self.layers[name]
            for mod_name, attr in targets:
                try:
                    module = importlib.import_module(f"identiscope.{mod_name}")
                except ImportError:
                    continue
                orig = getattr(module, attr, None)
                if not callable(orig):
                    continue
                setattr(module, attr, self._wrap(layer, orig, hooks.get(name)))
                self._patched.append((module, attr, orig))
                layer.present = True
            if not layer.present:
                self._warn(f"layer {name} absent: none of "
                           f"{', '.join(f'{m}.{a}' for m, a in targets)} found")

    def uninstall(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def _warn(self, msg: str):
        self.warnings.append(msg)
        print(f"perfbench: warning: {msg}", file=sys.stderr)

    def _wrap(self, layer: _Layer, orig, hook):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            if layer.depth:
                return orig(*args, **kwargs)
            layer.depth = 1
            span = [layer.name, 0.0, 0.0, stack[-1][0], self.pair]
            frame = [len(spans), 0.0]
            spans.append(span)
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stack[-1][1] += dur
                span[1] = t0
                span[2] = t1
                layer.depth = 0
                layer.calls += 1
                layer.total += dur
                layer.self_time += dur - frame[1]
                if not ok:
                    layer.failed += 1
            if hook is not None:
                self._guarded(layer.name, hook, args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _guarded(self, name, fn, *args):
        """Run a counter function; if the program's data no longer has the
        shape it reads, warn once and stop taking those counters."""
        if name in self._broken_hooks:
            return
        try:
            fn(*args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            self._broken_hooks.add(name)
            self._warn(f"counters taken from {name} are absent: {exc!r}")

    # -- spans opened by the benchmark itself -----------------------------

    def begin(self, name: str, pair: str | None = None):
        """Open a span owned by the benchmark: "pass", or "pair" with the
        pair id.  Counters derived from a pair's captures are computed when
        its span ends; their cost is kept in ``post_s``."""
        if pair is not None:
            self.pair = pair
            self._pair_capture = {}
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1][0], self.pair])
        self._stack.append([len(self.spans) - 1, 0.0])

    def end(self):
        t1 = time.perf_counter()
        span_id, _ = self._stack.pop()
        span = self.spans[span_id]
        span[2] = t1
        self._stack[-1][1] += t1 - span[1]
        if span[0] == "pair":
            self._finish_pair()
            self.pair = None

    # -- counters from arguments and results ------------------------------

    def _on_build_matrix(self, args, kwargs, result):
        cache = args[2] if len(args) > 2 else kwargs.get("cache")
        if cache is not None:
            self._pair_capture["lie_cache"] = cache

    def _on_classify_columns(self, args, kwargs, result):
        M = args[0]
        trials = args[2] if len(args) > 2 else kwargs["trials"]
        rows, cols = M.shape
        self.eval_entries_x_trials += rows * cols * trials

    def _on_series_solve(self, args, kwargs, result):
        order = args[3] if len(args) > 3 else kwargs["order"]
        self.orders[self.pair] = max(self.orders.get(self.pair, 0), order)

    def _on_output_jacobian(self, args, kwargs, result):
        if "jacobian" not in self._pair_capture:
            self._pair_capture["jacobian"] = (result, args[0].order, args[0].p)

    def _finish_pair(self):
        t0 = time.perf_counter()
        cap = self._pair_capture
        self._pair_capture = {}
        if "lie_cache" in cap:
            self._guarded("lie_orc.build_matrix", self._count_lie_nodes, cap["lie_cache"])
        if "jacobian" in cap:
            self._guarded("ffprob.output_jacobian", self._count_saturation, *cap["jacobian"])
        self.post_s += time.perf_counter() - t0

    def _count_lie_nodes(self, cache):
        self.lie_nodes_by_pair[self.pair] = [dag_nodes(level) for level in cache.lies]

    def _count_saturation(self, jac, order, p):
        self.saturating_blocks[self.pair] = (first_saturating_block(jac, order + 1, p),
                                             order + 1)

    # -- results ----------------------------------------------------------

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        out: dict[str, float] = {}
        covered = 0.0
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.total_s"] = layer.total
            out[f"{name}.self_s"] = layer.self_time
            if name not in ENTRY_POINTS:
                covered += layer.self_time
        evals = self.layers["symexpr.eval_mod_p"].calls
        blocks = list(self.saturating_blocks.values())
        out.update({
            "symexpr.eval_mod_p.failed": self.layers["symexpr.eval_mod_p"].failed,
            "lie_orc.lie_nodes": sum(sum(v) for v in self.lie_nodes_by_pair.values()),
            "lie_orc.eval_useful_ratio": self.eval_entries_x_trials / evals if evals else 0.0,
            "ffprob.retries": (self.layers["ffprob.series_solve"].failed
                               + self.layers["ffprob.output_jacobian"].failed),
            "ffprob.order": sum(self.orders.values()),
            "ffprob.order_useful_ratio": (sum(b + 1 for b, _ in blocks)
                                          / sum(n for _, n in blocks)) if blocks else 0.0,
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
            "trace.covered_frac": covered / traced_wall_s,
            "trace.absent_layers": sum(not layer.present for layer in self.layers.values()),
        })
        return out

    def write(self, path, header: dict):
        """Write the spans and per-pair counters as gzipped JSON."""
        doc = dict(header)
        doc["warnings"] = self.warnings
        doc["lie_nodes_by_pair"] = self.lie_nodes_by_pair
        doc["ffprob_order_by_pair"] = self.orders
        doc["ffprob_saturating_block_by_pair"] = self.saturating_blocks
        doc["span_fields"] = ["name", "start", "end", "parent", "pair"]
        doc["spans"] = self.spans
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _children(node):
    for attr in ("terms", "factors"):
        kids = getattr(node, attr, None)
        if kids is not None:
            return kids
    for attr in ("base", "arg"):
        kid = getattr(node, attr, None)
        if kid is not None:
            return (kid,)
    return ()


def dag_nodes(exprs) -> int:
    """Distinct nodes reachable from a list of expression DAGs."""
    seen = set()
    todo = list(exprs)
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        todo.extend(_children(node))
    return len(seen)


def first_saturating_block(rows, n_blocks: int, p: int) -> int:
    """Index of the first block of rows (blocks of equal height, in order)
    after which the rank mod p no longer rises."""
    height = len(rows) // n_blocks
    basis: dict[int, list[int]] = {}  # pivot column -> row with a 1 there
    rank_after = []
    for b in range(n_blocks):
        for row in rows[b * height:(b + 1) * height]:
            v = [x % p for x in row]
            for c in range(len(v)):
                x = v[c]
                if x == 0:
                    continue
                piv = basis.get(c)
                if piv is None:
                    inv = pow(x, -1, p)
                    basis[c] = [y * inv % p for y in v]
                    break
                # piv is zero left of c, so earlier columns stay reduced.
                v = [(y - x * z) % p for y, z in zip(v, piv)]
        rank_after.append(len(basis))
    return rank_after.index(rank_after[-1])
