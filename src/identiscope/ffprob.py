"""Probabilistic finite-field engine for rational models.

For each (prime, trial) pair the augmented ODE is solved as a truncated
power series at a random specialization of the initial augmented state and
of the known-input series, together with the first-order sensitivities
S(t) = dz(t)/dz0 (variational system, S(0) = I).  The observability matrix
is the Jacobian of the output-series coefficients with respect to z0; since
k! * coeff_k(y) = L^k h, its block k is level k of the symbolic engine's
matrix at that point.  The series order grows one block at a time, and a
trial stops when the rank reaches n_z (full_rank), when a block k > 0 does
not raise it (saturation), or at the order cap (max_level): n_z - 1, or
``FfprobOptions.max_level``, which ``analyze --max-level`` sets for both
engines.  The exact rank over F_p is aggregated by maximum across all trials
and primes.  A random point or an unlucky prime can only underestimate the
generic rank, so the max is sound; running several primes by default makes
prime-sensitive rank drops visible in the per-prime record.

The solver integrates coefficient by coefficient in forward mode.  F and h
are compiled once per analysis into a flat tape; every node carries its
value series and an n_z tangent vector d/dz0 per order, in int64 numpy.  The
tangents of z are S, and block k of the output Jacobian is the order-k
tangent of the h nodes.  One sweep per order advances every (prime, trial)
run at once: runs are an array axis, each with its prime broadcast along it.
The input jets and integration factors of an order are drawn and computed
when the sweep reaches it, so only the orders some run reaches cost time.
An order k >= 1 is swept in two phases.  The first computes the z leaves
and the waves that the h nodes read, which is all that block k needs; the
echelon forms take the block and decide which runs stop.  Only if some run
goes on does the second phase compute the other waves, which order k + 1
reads through z' = F, so at the order where the sweep ends the nodes that
only F reads are not evaluated.  Order 0 is swept whole, because a restart
reads every denominator at t = 0.
At order k a product convolves the k + 1 terms of its two series only when
both vary in time.  A parameter, a constant input, and any node built from
such only, is time-constant: its series is zero past order 0, so its
product a with b takes the one term a_0 b_k, and a wave of time-constant
nodes is evaluated at order 0 alone (Bostan, Chyzak, Ollivier, Salvy, Schost
& Sedoglavic, "Fast computation of power series solutions of systems of
differential equations", SODA 2007).  Only the operands of a convolution or
of a reciprocal, and the reciprocals, are read at earlier orders, so only
they keep every order reached; every other node keeps order 0 and the last
two orders, which is all that sums, one-term products, h and z' = F read
(van der Hoeven, "Relax, but don't be too lazy", J. Symb. Comput. 2002).
Every product of two residues is reduced mod p before it is added to
anything but one other such product (two sum below 2^64 in uint64), which
keeps the arithmetic exact for p <= MAX_PRIME.  A run whose point makes a
denominator of F or h vanish at t = 0 restarts at its next random point
(order 0 is redone; the other runs keep theirs).
"""

from __future__ import annotations

import bisect
import heapq
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

import numpy as np

from . import _linalg, _rng
from . import symexpr as sx
from ._linalg import DEFAULT_PRIMES
from .errors import DivisionByZeroModP, NonRationalExpr, RetriesExhausted, RunContext
from .model import AugmentedSystem, ModelDef, augment, CONSTANT
from .report import FFPROB, FULL_RANK, MAX_LEVEL, SATURATION, AnalysisReport, ok_report
from .symexpr import Expr, Symbol

DEFAULT_TRIALS_PER_PRIME = 2
RETRIES = 25  # random points per run before RetriesExhausted


# --------------------------------------------------------------------------
# Forward-mode sweep over a flat tape of F and h
# --------------------------------------------------------------------------

_CONST, _LEAF, _ADD, _MUL, _RECIP = range(5)


class _Compiler:
    """Compiles expressions into tape nodes (kind, operand ids, constant),
    each with its depth and whether it is time-constant; node 0 is the
    constant 0 and nodes 1..n_leaves the leaves, numbered by ``env``, whose
    flags ``still`` gives.  Operands always precede their users.

    An add node's constant is the weight of each operand: a sum adds a term
    c*m as m with weight c, and a product c*m alone is an add of m with
    weight c.  A product of several factors is a tree of binary muls that
    always joins the two shallowest operands, time-constant ones first at
    equal depth, so that it takes as few waves as it can and its
    time-constant factors make one operand.  Where it is no deeper, the
    product of its time-varying factors is built apart and taken once by
    that of the others: in hiv2, b*x1*x4 is then b*(x1*x4), and it shares
    the convolution x1*x4 with q1*b*x1*x4 and q2*b*x1*x4.  A mul node with a
    time-constant operand has it first, and otherwise the lower id first;
    two products of the same operands are one node, so a product that
    several terms share, such as k3*x1*x10 in nfkb1's x1' and x2', is
    evaluated once."""

    def __init__(self, env: dict[Symbol, int], still: list[bool]):
        self.env = env
        self.nodes: list[tuple] = [(_CONST, (), Fraction(0))] + [(_LEAF, (), None)] * len(env)
        self.depth = [0] * len(self.nodes)
        self.still = [True] + still
        self.memo: dict[Expr, int] = {}
        self.products: dict[tuple[int, int], int] = {}  # mul operands -> node

    def _node(self, kind, ops=(), const=None) -> int:
        depth, still = self.depth, self.still
        if kind == _MUL:
            x, y = ops
            if (not still[x], x) > (not still[y], y):
                ops = y, x
            got = self.products.get(ops)
            if got is not None:
                return got
            self.products[ops] = len(self.nodes)
        self.nodes.append((kind, ops, const))
        depth.append(1 + max(map(depth.__getitem__, ops)) if ops else 0)
        still.append(all(map(still.__getitem__, ops)))
        return len(self.nodes) - 1

    def _product(self, factors) -> int:
        if len(factors) == 1:
            return self.compile(factors[0])
        ops = list(map(self.compile, factors))
        varying = [o for o in ops if not self.still[o]]
        if 1 < len(varying) < len(ops):
            fixed = [o for o in ops if self.still[o]]
            if max(self._height(fixed), self._height(varying)) < self._height(ops):
                return self._node(_MUL, (self._tree(fixed), self._tree(varying)))
        return self._tree(ops)

    def _height(self, ops) -> int:
        """The depth of the tree that ``_tree`` builds over ops: joining the
        two shallowest first reaches ceil(log2(sum of 2^depth))."""
        return (sum(1 << self.depth[o] for o in ops) - 1).bit_length()

    def _tree(self, ops) -> int:
        """The product of ops, always joining the two shallowest operands."""
        depth, still = self.depth, self.still
        operands = [(depth[o], not still[o], n, o) for n, o in enumerate(ops)]
        heapq.heapify(operands)
        n = len(operands)
        while len(operands) > 1:
            x, y = heapq.heappop(operands)[-1], heapq.heappop(operands)[-1]
            o = self._node(_MUL, (x, y))
            heapq.heappush(operands, (depth[o], not still[o], n, o))
            n += 1
        return operands[0][-1]

    def compile(self, e: Expr) -> int:
        """The id of e's root node, compiling what is new."""
        got = self.memo.get(e)
        if got is not None:
            return got
        if isinstance(e, sx.Const):
            out = 0 if e.value == 0 else self._node(_CONST, const=e.value)
        elif isinstance(e, sx.Symbol):
            out = self.env[e]
        elif isinstance(e, sx.Add):
            ops, weights = [], []
            for t in e.terms:
                if isinstance(t, sx.Mul) and isinstance(t.factors[0], sx.Const):
                    ops.append(self._product(t.factors[1:]))
                    weights.append(t.factors[0].value)
                else:
                    ops.append(self.compile(t))
                    weights.append(1)
            out = self._node(_ADD, tuple(ops), tuple(weights))
        elif isinstance(e, sx.Mul):
            if isinstance(e.factors[0], sx.Const):
                out = self._node(_ADD, (self._product(e.factors[1:]),), (e.factors[0].value,))
            else:
                out = self._product(e.factors)
        elif isinstance(e, sx.Pow):
            k = abs(e.exponent)
            out, sq = None, self.compile(e.base)
            while k:
                if k & 1:
                    out = sq if out is None else self._node(_MUL, (out, sq))
                k >>= 1
                if k:
                    sq = self._node(_MUL, (sq, sq))
            if e.exponent < 0:
                out = self._node(_RECIP, (out,))
        else:
            raise NonRationalExpr(f"transcendental node {sx.to_string(e)}")
        self.memo[e] = out
        return out


class _Tape:
    """F and h compiled into a flat tape.  Node 0 is the constant 0, nodes
    1..n_z the z leaves, the next q the input jets, then the other constants.
    The other nodes (weighted add, binary mul, reciprocal) are numbered by
    wave: one kind at one depth forms a wave, a contiguous range whose
    operands all come earlier, evaluated by one numpy expression.  A node's
    depth is one more than its deepest operand's, except for a time-varying
    node that no other node and no output reads: only z' = F reads it, at
    the next order, so it takes the depth of the deepest time-varying node
    of its kind and joins that wave instead of making one (hiv2's four
    waves become three).
    ``fractions`` lists the values of the constant nodes ``const_ids``, then
    the weights of every add wave that has some other than 1, row by row,
    each row padded with 0 to the wave's widest; such a wave's constant is
    the slice of its weights in ``fractions``, and None when every weight is
    1.

    A node is time-constant (``still``), its series zero past order 0, when
    it is a constant, a z leaf whose F is 0 (a parameter, the last
    derivative of an unknown input's chain), a constant input, or a node of
    time-constant operands only.  A product with a time-constant operand
    has it first, and its coefficient k is the one term a_0 b_k.  Such
    products come first in their mul wave, whose constant is their number:
    past order 0 a mul wave is one numpy expression for them and one for
    the products that convolve.  A wave of time-constant nodes only is
    still, and is evaluated at order 0 alone.

    The first ``out_waves`` waves are those that the h nodes read: the waves
    of the h nodes and, whole, every wave that a node of theirs reads.  They
    come first, in depth order, then the other waves in depth order, so a
    sweep can stop an order after them (see ``_Sweep.advance``).  A wave is
    never split for this: one that holds both a node h reads and a node only
    F reads is a first-phase wave whole, so the tape has no more waves than
    the (depth, kind) groups.  Splitting such waves cost the small models
    more at every order than it saved at the last (``BENCH_23.json``).

    ``history`` lists, in order, the nodes that are read at earlier orders:
    the operands of the products that convolve and of the reciprocals, and
    the reciprocals themselves, in the waves that are not still."""

    def __init__(self, A: AugmentedSystem):
        n_z, q = A.n_z, len(A.model.known_inputs)
        self.n_z, self.q = n_z, q
        env = {s: 1 + l for l, s in enumerate(A.z)}
        env.update({spec.symbol: 1 + n_z + i
                    for i, spec in enumerate(A.model.known_inputs)})
        c = _Compiler(env, [Fl is sx.ZERO for Fl in A.F]
                      + [spec.mode == CONSTANT for spec in A.model.known_inputs])
        F = [(1 + l, c.compile(Fl)) for l, Fl in enumerate(A.F) if Fl is not sx.ZERO]
        h = [c.compile(hi) for hi in A.outputs]
        nodes, still = c.nodes, c.still
        lead = 1 + n_z + q
        # A time-varying node that only F reads joins the deepest
        # time-varying wave of its kind, which costs no wave of its own.
        depth, operands = c.depth[:], set(h)
        deepest: dict[int, int] = {}
        for o in range(lead, len(nodes)):
            kind, ops, _ = nodes[o]
            operands.update(ops)
            if not still[o] and depth[o] > deepest.get(kind, 0):
                deepest[kind] = depth[o]
        for o in range(lead, len(nodes)):
            if not (still[o] or o in operands):
                depth[o] = deepest[nodes[o][0]]
        # The waves the outputs read: those of the h nodes, then every wave
        # that one of their nodes reads, whole.
        members: dict[tuple, list[int]] = {}
        for o in range(lead, len(nodes)):
            members.setdefault((depth[o], nodes[o][0]), []).append(o)
        read, todo = set(), [(depth[x], nodes[x][0]) for x in h if x >= lead]
        while todo:
            wave = todo.pop()
            if wave not in read:
                read.add(wave)
                todo += [(depth[x], nodes[x][0])
                         for o in members[wave] for x in nodes[o][1] if x >= lead]
        # The sort key: the waves the outputs read before the others, each
        # part by wave, then the products with a time-constant operand
        # before the others.
        key = [((depth[o], kind) not in read and kind != _CONST, depth[o], kind,
                not (kind == _MUL and still[ops[0]]), o)
               for o, (kind, ops, _) in enumerate(nodes)]
        order = list(range(lead)) + sorted(range(lead, len(nodes)), key=key.__getitem__)
        new = {old: i for i, old in enumerate(order)}
        self.size = len(order)
        self.still = [still[o] for o in order]
        self.const_ids = np.zeros(0, dtype=np.intp)
        self.fractions: list[Fraction] = []
        self.waves: list[tuple] = []  # (kind, lo, hi, operand ids, constants, still)
        self.out_waves = 0
        lo = lead
        for (late, _, kind), olds in groupby(order[lead:], key=lambda o: key[o][:3]):
            olds = list(olds)
            group = [nodes[o] for o in olds]
            hi = lo + len(group)
            if kind == _CONST:
                self.const_ids = np.arange(lo, hi)
                self.fractions = [c for _, _, c in group]
            else:
                width = max(len(o) for _, o, _ in group)
                ops = np.array([[new[x] for x in o] + [0] * (width - len(o))  # adds padded with node 0
                                for _, o, _ in group], dtype=np.intp)
                consts = None
                if kind == _MUL:
                    ops, consts = ops.T, sum(not key[o][3] for o in olds)
                elif kind == _RECIP:
                    ops = ops[:, 0]
                elif any(w != 1 for _, _, ws in group for w in ws):
                    start = len(self.fractions)
                    for _, _, ws in group:
                        self.fractions += ws + (0,) * (width - len(ws))
                    consts = slice(start, len(self.fractions))
                self.waves.append((kind, lo, hi, ops, consts, all(self.still[lo:hi])))
                self.out_waves += not late
            lo = hi
        self.z_leaves = np.array([l for l, _ in F], dtype=np.intp)
        self.z_rhs = np.array([new[f] for _, f in F], dtype=np.intp)
        self.h = np.array([new[x] for x in h], dtype=np.intp)
        history = set()
        for kind, lo, hi, ops, consts, still in self.waves:
            if kind == _MUL and not still:
                history.update(ops[:, consts:].ravel().tolist())
            elif kind == _RECIP and not still:
                history.update([*ops.tolist(), *range(lo, hi)])
        self.history = np.array(sorted(history), dtype=np.intp)


def _products(a: np.ndarray, b: np.ndarray, Pu: np.ndarray, out: np.ndarray) -> None:
    """a b with its tangent T(a) b + a T(b), reduced mod p, written to out
    (which may be a), for values and tangents on the last axis; b is
    overwritten.  Two products below p^2 < 2^63 sum below 2^64."""
    np.multiply(a[..., 1:], b[..., :1], out=out[..., 1:])
    b *= a[..., :1]
    out[..., 0] = 0
    t = out.view(np.uint64)
    t += b.view(np.uint64)
    t %= Pu


class _Sweep:
    """Value and tangent series of every tape node over a batch of runs.

    Coefficient k of a node is an array over (run, 1 + n_z): its value, then
    its derivative with respect to each z0_l, so that a linear step
    (weighted sum, integration) takes one numpy expression for both.  The
    order-0 tangent of z leaf l is e_l, so the tangents of z are S.  Only
    the orders that a later step reads are kept, in three arrays:

    - ``X0[node]``, order 0 of every node;
    - ``ring[k % 2, node]``, order k >= 1 of every node until order k + 2
      overwrites it.  A sum, a one-term product and h read order k, and a
      z leaf reads F at order k - 1.  A time-constant node is never written
      past order 0, so its rows stay zero;
    - ``H[k, i]``, every order reached of the history node
      ``tape.history[i]`` (see ``_Tape``), which a convolution or a
      reciprocal reads at all orders up to k.  The leaves and each wave copy
      their history nodes into ``H[k]`` as soon as they are computed, since
      later waves of the same order read them; H doubles up to the cap.

    ``at(k)`` is the array of order k, for k = 0 and the last two orders
    reached.  The input jets and integration factors of an order are
    computed when it is reached.  A product convolves the k + 1 terms of its
    operands at order k unless one of them is time-constant, and a still
    wave is evaluated at order 0 alone.  Operands are gathered with
    ``take``, which costs less than fancy indexing on a contiguous array
    but first copies a view that is not, such as a reversed range of orders.
    A step works in place in its gathered operands and writes its result
    straight into its rows: with arrays this small, the temporaries that
    every order would otherwise allocate and free are given back to the
    system and faulted in again, which made the 40-compartment chain take
    about 1.5 times as long (``BENCH_20.json``).
    """

    def __init__(self, tape: _Tape, primes, order: int):
        self.tape = tape
        self.order = order
        B, n_z = len(primes), tape.n_z
        self.primes = list(primes)
        self.P = np.array(primes, dtype=np.int64)
        self.Pt = self.P[:, None]
        self.Pu = self.Pt.view(np.uint64)
        shape = (tape.size, B, 1 + n_z)
        X = np.zeros((3,) + shape, dtype=np.int64)
        self.X0, self.ring = X[0], X[1:]
        hist = tape.history
        self.H = np.zeros((min(order + 1, 4), len(hist)) + shape[1:], dtype=np.int64)
        leaves = np.arange(n_z)
        self.X0[1 + leaves, :, 1 + leaves] = 1
        self.jets = [None] * B
        self.still_a: dict[int, np.ndarray] = {}  # see advance

        # The history nodes of a node range and their rows of H, which are
        # consecutive, or None if it has none.
        hist_list = hist.tolist()

        def keep(lo, hi):
            i, j = bisect.bisect_left(hist_list, lo), bisect.bisect_left(hist_list, hi)
            return (hist[i:j], slice(i, j)) if i < j else None

        row = np.zeros(tape.size, dtype=np.intp)
        row[hist] = np.arange(len(hist))
        self.keep_leaves = keep(0, 1 + n_z + tape.q)
        self.keep = [None] * len(tape.waves)  # a wave's history copy to H
        # A mul wave's operands, split: a and b of every product, b of the
        # products whose a is time-constant, and the rows of H that the
        # convolutions read (None if the wave has none).
        self.mul = {}
        self.rows = {}  # the rows of H that a reciprocal wave reads and fills
        for w, (kind, lo, hi, ops, consts, still) in enumerate(tape.waves):
            if kind == _MUL:
                ia, ib = map(np.ascontiguousarray, ops)
                ha = hb = None
                if not still and consts < hi - lo:
                    ha, hb = row[ops[:, consts:]]
                self.mul[w] = ia, ib, ib[:consts], ha, hb
            if still:
                continue
            if kind == _RECIP:  # computed in H
                self.rows[w] = row[ops], keep(lo, hi)[1]
            else:
                self.keep[w] = keep(lo, hi)
        # The tape's fractions mod each prime, computed once for all the runs
        # on it; a prime that divides a denominator fails every run on it, at
        # every attempt.
        self.bad: dict[int, str] = {}
        residues = {}
        for p in dict.fromkeys(primes):
            try:
                residues[p] = [sx.const_mod_p(c, p) for c in tape.fractions]
            except DivisionByZeroModP as exc:
                residues[p] = [0] * len(tape.fractions)
                self.bad.update((b, str(exc)) for b, q in enumerate(primes) if q == p)
        R = np.array([residues[p] for p in primes], dtype=np.int64).reshape(B, -1).T
        self.X0[tape.const_ids, :, 0] = R[:len(tape.const_ids)]
        # The weights of each add wave that has some other than 1, as
        # (nodes, operands, runs, 1).
        self.weights = {w: R[consts].reshape(ops.shape + (B, 1))
                        for w, (kind, _, _, ops, consts, _) in enumerate(tape.waves)
                        if kind == _ADD and consts is not None}

    def set_point(self, run: int, z0, jet) -> None:
        """Initial state of one run and its input jets: jet(j) is the list of
        the inputs' coefficients j, called once per order reached.  A
        constant input's coefficients past 0 must be 0."""
        n_z, p = self.tape.n_z, int(self.P[run])
        self.jets[run] = jet
        self.X0[1:1 + n_z + self.tape.q, run, 0] = [v % p for v in [*z0, *jet(0)]]

    def at(self, k: int) -> np.ndarray:
        """Order k of every node, as (node, run, 1 + n_z)."""
        return self.ring[k % 2] if k else self.X0

    def _hold(self, k: int) -> None:
        """Make room for order k in H."""
        held = len(self.H)
        if k < held:
            return
        grown = np.zeros((min(self.order + 1, 2 * held),) + self.H.shape[1:], dtype=np.int64)
        grown[:held] = self.H
        self.H = grown

    def advance(self, k: int, outputs: bool = False) -> dict[int, str]:
        """Coefficient k of the z leaves (z' = F, from order k - 1), then of
        every other node.  With ``outputs``, the first phase only: the
        leaves and the first ``tape.out_waves`` waves, which hold every node
        the h nodes read, so that block k can be read; ``finish(k)`` is the
        second phase, the other waves, which order k + 1 needs.  At k = 0,
        returns the runs whose point makes a denominator vanish, with the
        reason; their values are not meaningful."""
        self._hold(k)
        X, H, Pt = self.at(k), self.H, self.Pt
        n_z, q = self.tape.n_z, self.tape.q
        if k:
            if q:
                X[1 + n_z:1 + n_z + q, :, 0] = np.array(
                    [[v % p for v in jet(k)] for jet, p in zip(self.jets, self.primes)]).T
            # z_k = F_(k-1) / k
            inv = np.array([pow(k, -1, p) for p in self.primes])
            zl, f = self.tape.z_leaves, self.tape.z_rhs
            z = self.at(k - 1).take(f, 0)
            z *= inv[:, None]
            z %= Pt
            X[zl] = z
            if self.keep_leaves:
                nodes, rows = self.keep_leaves
                H[k, rows] = X.take(nodes, 0)
        failed = dict(self.bad) if k == 0 else {}
        self._waves(k, range(self.tape.out_waves if outputs else len(self.tape.waves)), failed)
        if k == 0:
            H[0] = X.take(self.tape.history, 0)
        return failed

    def finish(self, k: int) -> None:
        """The waves of order k > 0 that ``advance(k, outputs=True)`` left."""
        self._waves(k, range(self.tape.out_waves, len(self.tape.waves)), {})

    def _waves(self, k: int, waves: range, failed: dict[int, str]) -> None:
        """Coefficient k of the nodes of ``waves``, in order; at k = 0 a run
        whose point makes a denominator vanish goes into ``failed``."""
        X, H, P, Pt = self.at(k), self.H, self.P, self.Pt
        for w in waves:
            kind, lo, hi, ops, consts, still = self.tape.waves[w]
            if k and still:
                continue
            if kind == _ADD:
                Y, W = X.take(ops, 0), self.weights.get(w)
                if W is not None:
                    Y *= W
                    Y %= Pt
                Y.sum(1, out=X[lo:hi])
                X[lo:hi] %= Pt
            elif kind == _MUL:
                # (a b)_k = sum_j a_j b_(k-j), which is a_0 b_k for the first
                # ``consts`` products, whose a is time-constant, and at k = 0.
                # Those a_0 are kept from order 0.
                ia, ib, ib_still, ha, hb = self.mul[w]
                if k == 0:
                    a = X.take(ia, 0)
                    self.still_a[w] = a[:consts]
                    _products(a, X.take(ib, 0), self.Pu, X[lo:hi])
                    continue
                n = consts
                if n:
                    _products(self.still_a[w], X.take(ib_still, 0), self.Pu, X[lo:lo + n])
                if ha is not None:
                    a = H[:k + 1].take(ha, 1)
                    _products(a, H[:k + 1].take(hb, 1)[::-1], self.Pu, a)
                    a.sum(0, out=X[lo + n:hi])
                    X[lo + n:hi] %= Pt
            elif k == 0:  # reciprocal: c_0 = 1/a_0, T(c)_0 = -T(a)_0 / a_0^2
                a0 = X[ops, :, 0]
                for run in np.flatnonzero((a0 == 0).any(0)):
                    failed.setdefault(int(run), "denominator series has zero constant term")
                inv = np.array([[pow(int(v), -1, int(p)) if v else 0
                                 for v, p in zip(row, P)] for row in a0], dtype=np.int64)
                X[lo:hi, :, 0] = inv
                X[lo:hi, :, 1:] = -(inv * inv % P)[..., None] * X[ops, :, 1:] % Pt
            else:  # reciprocal: from sum_j a_j c_(k-j) = 0 and its tangent,
                # computed in its rows of H
                ha, rows = self.rows[w]
                A, C = H[:k + 1].take(ha, 1), H[:k + 1, rows]
                a, inv0 = A[1:, ..., 0], C[0, ..., 0]
                C[k, ..., 0] = -inv0 * ((a * C[k - 1::-1, ..., 0] % P).sum(0) % P) % P
                t = ((A[..., 1:] * C[k::-1, ..., :1] % Pt).sum(0)
                     + (a[..., None] * C[k - 1::-1, ..., 1:] % Pt).sum(0)) % Pt
                C[k, ..., 1:] = -inv0[..., None] * t % Pt
                X[lo:hi] = C[k]
            if k and self.keep[w]:
                nodes, rows = self.keep[w]
                H[k, rows] = X.take(nodes, 0)


# --------------------------------------------------------------------------
# Analysis entry points
# --------------------------------------------------------------------------

FfprobOptions = _linalg.Options


def _require_rational(md: ModelDef):
    for e in (*(md.dynamics[s] for s in md.states), *(h for _, h in md.outputs)):
        hit = sx.first_transcendental(e)
        if hit is not None:
            raise NonRationalExpr(
                f"model {md.name!r} is non-rational (contains {sx.to_string(hit)}); "
                "use the symbolic engine")


def _draw_trial(A: AugmentedSystem, seed: int, p: int, trial: int,
                attempt: int) -> tuple[list[int], Callable[[int], list[int]]]:
    """The random point of one attempt: z0, and the function of j that
    draws coefficient j of each known input's jet (a constant input's jet is
    zero past order 0)."""
    draw = _rng.drawer(("ffp-z0", seed, p, trial, attempt), p)
    z0 = [draw(s.name) for s in A.z]
    specs = A.model.known_inputs
    draw_u = _rng.drawer(("ffp-u", seed, p, trial, attempt), p)

    def jet(j: int) -> list[int]:
        return [draw_u(f"{spec.symbol.name}{_rng.SEP}{j}")
                if j == 0 or spec.mode != CONSTANT else 0 for spec in specs]

    return z0, jet


@dataclass
class _Run:
    """One (prime, trial) run: the attempt that drew its point, the last
    series order whose block its echelon form took (-1 before the first),
    and why it stopped."""
    prime: int
    trial: int
    attempt: int = 0
    order: int = -1
    stop: str | None = None


def _start(A: AugmentedSystem, sw: _Sweep, runs: list[_Run], seed: int) -> None:
    """Order 0 of every run.  A run whose point makes a denominator of F or h
    vanish at t = 0 moves to its next attempt, and order 0 is redone; the
    other runs keep their points."""
    todo = range(len(runs))
    last: dict[int, str] = {}
    while todo:
        for b in todo:
            run = runs[b]
            if run.attempt == RETRIES:
                raise RetriesExhausted(
                    f"all {RETRIES} random specializations hit a vanishing "
                    f"denominator mod {run.prime}: {last.get(b)}")
            sw.set_point(b, *_draw_trial(A, seed, run.prime, run.trial, run.attempt))
        failed = sw.advance(0)
        todo = sorted(failed)
        for b in todo:
            runs[b].attempt += 1
            last[b] = failed[b]


def _sweep_runs(A: AugmentedSystem, runs: list[_Run], seed: int, max_level: int,
                ctx: RunContext | None = None) -> _linalg.Echelons:
    """Grow every run's output Jacobian one block per series order, all runs
    in one sweep; returns their echelon forms, form b being run b's.
    Block k is the order-k tangent of the h nodes, and one
    ``Echelons.extend`` step adds it to the form of every run still going;
    a run that has stopped takes a block of zeros, which leaves its form
    unchanged.  A run stops when its rank reaches n_z (full_rank), when a
    block k > 0 leaves it unchanged (saturation), or at block ``max_level``
    (max_level); the sweep ends when every run has stopped.  The run context
    ``ctx`` (unbounded if None) is checked before each order, and past order
    0 an order's second phase runs only if some run goes on."""
    n_z, ctx = A.n_z, ctx or RunContext()
    tape = _Tape(A)
    sw = _Sweep(tape, [run.prime for run in runs], max_level)
    forms = _linalg.Echelons(n_z, [run.prime for run in runs])
    for k in range(max_level + 1):
        ctx.check()
        if k == 0:
            _start(A, sw, runs, seed)
        else:
            sw.advance(k, outputs=True)
        blocks = sw.at(k)[tape.h, :, 1:].swapaxes(0, 1)
        stopped = [run.stop is not None for run in runs]
        if any(stopped):
            blocks[stopped] = 0
        before = forms.ranks
        for run, r0, r in zip(runs, before, forms.extend(blocks)):
            if run.stop is not None:
                continue
            run.order = k
            if r == n_z:
                run.stop = FULL_RANK
            elif k > 0 and r == r0:
                run.stop = SATURATION
        if all(run.stop is not None for run in runs):
            return forms
        if k:
            sw.finish(k)
    for run in runs:
        run.stop = run.stop or MAX_LEVEL
    return forms


def analyze_ffprob(md: ModelDef, opts: FfprobOptions | None = None) -> AnalysisReport:
    """Rank analysis from random finite-field series solutions.

    Every (prime, trial) run grows the series order one block at a time and
    stops at full rank, at the first block that does not raise its rank, or
    at the order cap; one sweep per order advances all runs.  The aggregated
    rank is the max over all runs; an entry is identifiable when its column
    is independent of the others (deleting it drops the rank by one) in
    every run that reaches that rank.  Per-prime ranks are reported so that
    prime-dependent rank drops are visible.
    """
    opts = opts or FfprobOptions()
    primes = DEFAULT_PRIMES if opts.primes is None else opts.primes
    trials = DEFAULT_TRIALS_PER_PRIME if opts.trials is None else opts.trials
    _linalg.check_settings(primes, trials, opts.max_level)
    ctx = RunContext(opts.deadline)
    _require_rational(md)
    A = augment(md)
    max_level = opts.max_level if opts.max_level is not None else A.n_z - 1

    runs = [_Run(p, trial) for p in primes for trial in range(trials)]
    forms = _sweep_runs(A, runs, opts.seed, max_level, ctx)

    ranks = forms.ranks
    if max(ranks) == A.n_z:
        stop = FULL_RANK
    elif all(run.stop == SATURATION for run in runs):
        stop = SATURATION
    else:
        stop = MAX_LEVEL
    per_prime = {str(p): ranks[i * trials:(i + 1) * trials] for i, p in enumerate(primes)}
    return ok_report(FFPROB, A, forms, stop, ctx, [], per_prime_ranks=per_prime,
                     seed=opts.seed, primes=list(primes), trials=trials)
