"""Total boolean circuits over fixed-width bit vectors.

The IR has two leaf families (gate networks and truth tables, plus the named
codec blocks of ``encodings.BLOCKS``) and a handful of combinators:
composition, parallel application on a split input, output slicing, zero
padding, a value-threshold guard, constant add/sub/xor, and a first-match
piecewise dispatch.  Evaluation is total: every node produces an output for
every input value.

Nodes are evaluated as a tree, by one of two interpreters.  ``apply_many``
maps a numpy array of input values to an array of output values and is what
makes exhaustive solving affordable; it only evaluates piecewise branches on
the inputs they are selected for, so partial decoders stay safe inside
guarded constructions.  ``eval_all`` runs it over every input value, in
blocks of 2**16 consecutive inputs, into one int64 array reserved for the
whole range (32 MB at its cap ``MAX_EVAL_WIDTH``), whose pages become
resident only as blocks are written.  ``table_prefix`` fills the blocks only
up to a given input and a later call resumes where it stopped, so a search
that finds its answer early evaluates no further.  Once every block is
filled the array is cached on the circuit as its read-only table.
``Circuit.eval`` and ``Circuit.value_at`` map one input to one output: they
index that table when the circuit has one, and otherwise run the scalar
interpreter ``_eval_value``, memoized per circuit.  Their array form
``values_at`` indexes the table too, and otherwise runs ``apply_many`` on
just the points asked for, never tabulating the circuit.  A ``GateNet``
evaluates on bit-planes: one uint8 array per gate (64 KB for an ``eval_all``
block rather than 512 KB), with inputs and outputs held in the narrowest
unsigned dtype until the int64 result is formed.  A ``Table`` keeps its rows
as one read-only int64 array, which is also its ``eval_all`` table; rows
wider than 62 bits stay a tuple of exact Python ints.

Text format (see ``to_text``/``from_text``): a ``CIRCUIT in=<w> out=<w>``
header followed by one node.  ``to_text`` writes leaf content lines (table
rows, netlist gates) at the node's own indent and combinator children two
spaces deeper.  ``COMPOSE`` children are listed outer first, i.e.
``Compose(f, g)`` with output ``f(g(x))``.  Each word is written once, in
a table that printer and parser both read: ``_COMBINATORS`` for the five
combinators, ``GateNet._ARITY`` for the gate ops (a gate line carries
exactly its op's operands) and ``encodings.BLOCKS`` for the codec blocks.
``from_text`` skips blank lines anywhere and checks the indent of node and
piecewise case lines only; table rows and netlist gates may sit at any
indent, and a row may end in blanks.
Table rows move in bulk: ``to_text`` prints them from one uint8 character
array, and ``from_text`` checks and converts them the same way when they are
all spaces then the digits, of one length.  Other rows are read one at a
time, which reports the first bad row with its line number.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encodings import BLOCKS
from .errors import CapabilityError, DomainError, ParseError
from .numerics import BitString, bits_of

MAX_TABLE_WIDTH = 20
MAX_EVAL_WIDTH = 22
MAX_VECTOR_WIDTH = 62  # apply_many packs values into int64
# eval_all inputs per apply_many call: 2**16 keeps a GateNet bit-plane at
# 64 KB and an int64 intermediate at 512 KB, about the size of an L2 cache
_EVAL_BLOCK = 1 << 16

# Deepest nesting a circuit may have, counted in nodes from the root to the
# deepest leaf, as the text form nests them.  The combinators refuse to build
# deeper circuits and the parser refuses to read them.  The deepest circuit
# that a registry entry builds within MAX_EVAL_WIDTH has 18 levels (entry
# 17 at m=5, a 15-stage shrink chain inside a piecewise); the cap leaves room
# for chained reductions and keeps the recursive parser and evaluators far
# from Python's recursion limit.
MAX_PARSE_DEPTH = 100


def _mask_array(xs, width):
    return xs & np.int64((1 << width) - 1)


class Circuit:
    """Base node; subclasses set in_width/out_width and the eval methods."""

    in_width: int
    out_width: int
    depth = 1  # nesting levels; combinators set theirs in _nest
    _table: np.ndarray | None = None  # set by table_prefix once every block is filled
    _fill: tuple[np.ndarray, int] | None = None  # table_prefix's array, inputs filled so far

    def eval(self, x: BitString) -> BitString:
        if x.width != self.in_width:
            raise DomainError(f"input width {x.width}, circuit expects {self.in_width}")
        return BitString(self.out_width, self.value_at(x.value))

    def value_at(self, v: int) -> int:
        """Output value for the input value v, 0 <= v < 2**in_width."""
        if self._table is not None:
            return int(self._table[v])
        # point evaluations repeat heavily during verification; memoize by value
        memo = self.__dict__.setdefault("_eval_memo", {})
        got = memo.get(v)
        if got is None:
            got = memo[v] = self._eval_value(v)
        return got

    def _eval_value(self, v: int) -> int:
        raise NotImplementedError

    def _apply_many(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _children(self) -> tuple["Circuit", ...]:
        return ()

    def _nest(self) -> None:
        """Set a combinator's depth from its children's, or raise past
        MAX_PARSE_DEPTH."""
        self.depth = 1 + max(c.depth for c in self._children())
        if self.depth > MAX_PARSE_DEPTH:
            raise CapabilityError(f"circuit nested deeper than {MAX_PARSE_DEPTH} levels")

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self._key() == other._key()
            and self._children() == other._children()
        )

    def __hash__(self):
        return hash((type(self).__name__, self._key(), self._children()))

    def _key(self):
        return (self.in_width, self.out_width)


def apply_many(c: Circuit, xs: np.ndarray) -> np.ndarray:
    """Evaluate c on an int64 array of input values."""
    if c.in_width > MAX_VECTOR_WIDTH or c.out_width > MAX_VECTOR_WIDTH:
        raise DomainError(f"width beyond vector limit {MAX_VECTOR_WIDTH}")
    return c._apply_many(np.asarray(xs, dtype=np.int64))


def values_at(c: Circuit, xs: np.ndarray) -> np.ndarray:
    """Array form of ``Circuit.value_at``: the cached table indexed at xs when
    the circuit has one, otherwise ``apply_many`` on these points only, so a
    wide circuit is never tabulated for a few lookups."""
    xs = np.asarray(xs, dtype=np.int64)
    if c._table is not None:
        return c._table[xs]
    if not xs.size:
        return np.zeros(xs.shape, dtype=np.int64)
    return apply_many(c, xs.ravel()).reshape(xs.shape)


def table_prefix(c: Circuit, hi: int) -> np.ndarray:
    """Outputs of c on the input values 0 .. hi-1: a read-only prefix of
    ``eval_all(c)``.

    ``apply_many`` fills blocks of ``_EVAL_BLOCK`` consecutive inputs, so
    every intermediate array stays cache-sized, into one array reserved for
    every input.  A call fills only the blocks up to hi that earlier calls
    left; ``hi = 0`` evaluates nothing but still refuses a circuit wider than
    ``MAX_EVAL_WIDTH``.  A failing block raises as ``apply_many`` does on it,
    and a later call evaluates it again.  Once the last block is filled, the
    array becomes the circuit's read-only table, which point evaluations
    index.
    """
    if c._table is None:
        if c.in_width > MAX_EVAL_WIDTH:
            raise CapabilityError(f"eval_all capped at in_width {MAX_EVAL_WIDTH}, got {c.in_width}")
        size = 1 << c.in_width
        if c._fill is None:
            c._fill = (np.empty(size, dtype=np.int64), 0)
        table, done = c._fill
        while done < min(hi, size):
            top = min(size, done + _EVAL_BLOCK)
            table[done:top] = apply_many(c, np.arange(done, top, dtype=np.int64))
            done = top
            c._fill = (table, done)
        if done < size:
            prefix = table[:hi]
            prefix.flags.writeable = False
            return prefix
        table.flags.writeable = False
        c._table, c._fill = table, None
    return c._table if hi >= len(c._table) else c._table[:hi]


def eval_all(c: Circuit) -> np.ndarray:
    """Outputs of c on every input value 0 .. 2**in_width - 1, in order: the
    whole of ``table_prefix``.  It is computed once and kept on the circuit;
    later calls return that same read-only array."""
    return table_prefix(c, 1 << c.in_width)


# ---------------------------------------------------------------------------
# leaves


class Table(Circuit):
    """Explicit truth table: row i is the output for input value i.

    Up to MAX_VECTOR_WIDTH output bits the rows are one read-only int64 array,
    which is also the circuit's ``eval_all`` table; wider rows stay a tuple of
    exact Python ints and have no vector form.
    """

    def __init__(self, in_width: int, out_width: int, rows: Sequence[int] | np.ndarray):
        if in_width > MAX_TABLE_WIDTH:
            raise CapabilityError(f"table in_width {in_width} beyond cap {MAX_TABLE_WIDTH}")
        if out_width <= MAX_VECTOR_WIDTH:
            try:
                rows = np.array(rows, dtype=np.int64)
            except OverflowError:
                raise DomainError("table row out of range") from None
            rows.flags.writeable = False
            self._table = rows
        else:
            rows = tuple(int(r) for r in rows)
        if len(rows) != 1 << in_width:
            raise DomainError(f"table needs {1 << in_width} rows, got {len(rows)}")
        lo, hi = (rows.min(), rows.max()) if self._table is not None else (min(rows), max(rows))
        if lo < 0 or hi >> out_width:
            raise DomainError("table row out of range")
        self.in_width = in_width
        self.out_width = out_width
        self.rows = rows

    def _key(self):
        rows = self.rows.tobytes() if self._table is not None else self.rows
        return (self.in_width, self.out_width, rows)

    def _eval_value(self, v):
        return int(self.rows[v])

    def _apply_many(self, xs):
        if self._table is None:
            raise DomainError(f"table rows wider than vector limit {MAX_VECTOR_WIDTH}")
        return self._table[xs]


@dataclass(frozen=True)
class Gate:
    op: str  # a key of GateNet._ARITY
    a: int = 0
    b: int = 0


class GateNet(Circuit):
    """DAG of boolean gates; gates may only reference earlier gates."""

    # op -> how many earlier gates it reads; INPUT and CONST read a number instead
    _ARITY = {"INPUT": 0, "CONST": 0, "NOT": 1, "AND": 2, "OR": 2, "XOR": 2}

    def __init__(self, in_width: int, gates: Sequence[Gate], outputs: Sequence[int]):
        gates = tuple(gates)
        outputs = tuple(outputs)
        for i, g in enumerate(gates):
            if g.op not in self._ARITY:
                raise DomainError(f"unknown gate op {g.op!r}")
            if g.op == "INPUT" and not 0 <= g.a < in_width:
                raise DomainError(f"gate {i} reads input bit {g.a} of {in_width}")
            if g.op == "CONST" and g.a not in (0, 1):
                raise DomainError(f"gate {i} CONST must be 0 or 1")
            for ref in (g.a, g.b)[:self._ARITY[g.op]]:
                if not 0 <= ref < i:
                    raise DomainError(f"gate {i} references gate {ref}")
        for o in outputs:
            if not 0 <= o < len(gates):
                raise DomainError(f"output references gate {o}")
        self.in_width = in_width
        self.out_width = len(outputs)
        self.gates = gates
        self.outputs = outputs

    def _key(self):
        return (self.in_width, self.gates, self.outputs)

    def _eval_value(self, v):
        vals = []
        w = self.in_width
        for g in self.gates:
            if g.op == "INPUT":
                vals.append((v >> (w - 1 - g.a)) & 1)
            elif g.op == "CONST":
                vals.append(g.a)
            elif g.op == "NOT":
                vals.append(1 - vals[g.a])
            elif g.op == "AND":
                vals.append(vals[g.a] & vals[g.b])
            elif g.op == "OR":
                vals.append(vals[g.a] | vals[g.b])
            else:
                vals.append(vals[g.a] ^ vals[g.b])
        out = 0
        for o in self.outputs:
            out = (out << 1) | vals[o]
        return out

    def _apply_many(self, xs):
        # one uint8 bit-plane per gate, and inputs and outputs in the narrowest
        # unsigned dtype that holds them: in an eval_all block a gate takes 64 KB
        w = self.in_width
        one = np.uint8(1)
        xu = xs.astype(np.min_scalar_type((1 << w) - 1))
        shift = xu.dtype.type
        vals: list[np.ndarray] = []
        for g in self.gates:
            if g.op == "INPUT":
                vals.append((xu >> shift(w - 1 - g.a)).astype(np.uint8) & one)
            elif g.op == "CONST":
                vals.append(np.full(xs.shape, g.a, dtype=np.uint8))
            elif g.op == "NOT":
                vals.append(vals[g.a] ^ one)
            elif g.op == "AND":
                vals.append(vals[g.a] & vals[g.b])
            elif g.op == "OR":
                vals.append(vals[g.a] | vals[g.b])
            else:
                vals.append(vals[g.a] ^ vals[g.b])
        out = np.zeros(xs.shape, dtype=np.min_scalar_type((1 << self.out_width) - 1))
        for o in self.outputs:
            out <<= 1
            out |= vals[o]
        return out.astype(np.int64)


class Builtin(Circuit):
    """Named codec block of ``encodings.BLOCKS`` with fixed parameters,
    evaluated by a host function.

    Partial hosts (decoders) only raise if an out-of-range value is actually
    queried.  Vector evaluation runs the block's array kernel on the distinct
    input values, or the host on each of them when the block has no kernel;
    either way a batch fails as the host fails on its smallest out-of-range
    value.  ``eval_all`` passes its inputs in blocks, so a failing table
    reports the smallest out-of-range value of the first block that has one.
    """

    def __init__(self, name: str, **params: int):
        if name not in BLOCKS:
            raise DomainError(f"unknown builtin block {name!r}")
        self.name = name
        self.params = dict(sorted(params.items()))
        self.in_width, self.out_width, self._fn, self._many = BLOCKS[name](**params)

    def _key(self):
        return (self.name, tuple(self.params.items()))

    def _eval_value(self, v):
        return self._fn(v)

    def _apply_many(self, xs):
        if self.out_width > MAX_VECTOR_WIDTH:
            raise DomainError(f"block outputs wider than vector limit {MAX_VECTOR_WIDTH}")
        uniq, inv = np.unique(xs, return_inverse=True)
        if self._many is not None:
            vals = self._many(uniq)
        else:
            vals = np.array([self._fn(int(u)) for u in uniq], dtype=np.int64)
        return vals[inv].reshape(xs.shape)


# ---------------------------------------------------------------------------
# combinators


class Compose(Circuit):
    """Compose(f, g)(x) = f(g(x))."""

    def __init__(self, f: Circuit, g: Circuit):
        if f.in_width != g.out_width:
            raise DomainError(f"compose widths: inner out {g.out_width}, outer in {f.in_width}")
        self.f, self.g = f, g
        self.in_width = g.in_width
        self.out_width = f.out_width
        self._nest()

    def _children(self):
        return (self.f, self.g)

    def _eval_value(self, v):
        return self.f._eval_value(self.g._eval_value(v))

    def _apply_many(self, xs):
        return self.f._apply_many(self.g._apply_many(xs))


class Parallel(Circuit):
    """Split the input: f gets the first f.in_width bits, g the rest."""

    def __init__(self, f: Circuit, g: Circuit):
        self.f, self.g = f, g
        self.in_width = f.in_width + g.in_width
        self.out_width = f.out_width + g.out_width
        self._nest()

    def _children(self):
        return (self.f, self.g)

    def _eval_value(self, v):
        lo = v & ((1 << self.g.in_width) - 1)
        hi = v >> self.g.in_width
        return (self.f._eval_value(hi) << self.g.out_width) | self.g._eval_value(lo)

    def _apply_many(self, xs):
        lo = _mask_array(xs, self.g.in_width)
        hi = xs >> np.int64(self.g.in_width)
        return (self.f._apply_many(hi) << np.int64(self.g.out_width)) | self.g._apply_many(lo)


class Slice(Circuit):
    """Output bits [start, stop) of the child, 0-based from the left."""

    def __init__(self, inner: Circuit, start: int, stop: int):
        if not 0 <= start <= stop <= inner.out_width:
            raise DomainError(f"slice [{start}, {stop}) of {inner.out_width} output bits")
        self.inner = inner
        self.start, self.stop = start, stop
        self.in_width = inner.in_width
        self.out_width = stop - start
        self._nest()

    def _key(self):
        return (self.start, self.stop)

    def _children(self):
        return (self.inner,)

    def _eval_value(self, v):
        y = self.inner._eval_value(v)
        return (y >> (self.inner.out_width - self.stop)) & ((1 << self.out_width) - 1)

    def _apply_many(self, xs):
        ys = self.inner._apply_many(xs)
        return _mask_array(ys >> np.int64(self.inner.out_width - self.stop), self.out_width)


class PadLeft(Circuit):
    """Prefix the child's output with zero bits (value preserved)."""

    def __init__(self, inner: Circuit, bits: int):
        if bits < 0:
            raise DomainError("pad width must be nonnegative")
        self.inner = inner
        self.bits = bits
        self.in_width = inner.in_width
        self.out_width = inner.out_width + bits
        self._nest()

    def _key(self):
        return (self.bits,)

    def _children(self):
        return (self.inner,)

    def _eval_value(self, v):
        return self.inner._eval_value(v)

    def _apply_many(self, xs):
        return self.inner._apply_many(xs)


class GuardPrefix(Circuit):
    """A(x) = inner(x) when value(x) < t, else x.  inner must be w -> w."""

    def __init__(self, inner: Circuit, t: int):
        if inner.in_width != inner.out_width:
            raise DomainError("guard inner circuit must preserve width")
        if not 0 <= t <= (1 << inner.in_width):
            raise DomainError(f"guard threshold {t} beyond width {inner.in_width}")
        self.inner = inner
        self.t = t
        self.in_width = self.out_width = inner.in_width
        self._nest()

    def _key(self):
        return (self.t,)

    def _children(self):
        return (self.inner,)

    def _eval_value(self, v):
        return self.inner._eval_value(v) if v < self.t else v

    def _apply_many(self, xs):
        out = xs.copy()
        mask = xs < self.t
        if mask.any():
            out[mask] = self.inner._apply_many(xs[mask])
        return out


class ConstOp(Circuit):
    """x -> x op c (mod 2**width) with op in add/sub/xor."""

    OPS = ("add", "sub", "xor")

    def __init__(self, op: str, c: BitString):
        if op not in self.OPS:
            raise DomainError(f"unknown const op {op!r}")
        self.op = op
        self.c = c
        self.in_width = self.out_width = c.width

    def _key(self):
        return (self.op, self.c)

    def _eval_value(self, v):
        m = (1 << self.in_width) - 1
        if self.op == "add":
            return (v + self.c.value) & m
        if self.op == "sub":
            return (v - self.c.value) & m
        return v ^ self.c.value

    def _apply_many(self, xs):
        c = np.int64(self.c.value)
        if self.op == "add":
            return _mask_array(xs + c, self.in_width)
        if self.op == "sub":
            return _mask_array(xs - c, self.in_width)
        return xs ^ c


@dataclass(frozen=True)
class Case:
    """One piecewise case: a half-open value range or a 1-bit predicate circuit."""

    branch: Circuit
    lo: int | None = None
    hi: int | None = None
    pred: Circuit | None = None

    @property
    def is_range(self) -> bool:
        return self.pred is None


class Piecewise(Circuit):
    """First-match dispatch.  The final case must cover everything.

    Cases are tried in order; a range case fires when lo <= value(x) < hi, a
    predicate case when pred(x) = 1.  To keep evaluation total, the last case
    is required to be the full range.
    """

    def __init__(self, cases: Sequence[Case]):
        cases = tuple(cases)
        if not cases:
            raise DomainError("piecewise needs at least one case")
        w = cases[0].branch.in_width
        o = cases[0].branch.out_width
        for c in cases:
            if c.branch.in_width != w or c.branch.out_width != o:
                raise DomainError("piecewise branches must share widths")
            if c.is_range:
                if not 0 <= c.lo <= c.hi <= (1 << w):
                    raise DomainError(f"case range [{c.lo}, {c.hi}) bad for width {w}")
            else:
                if c.pred.in_width != w or c.pred.out_width != 1:
                    raise DomainError("predicate must map the input to one bit")
        last = cases[-1]
        if not (last.is_range and last.lo == 0 and last.hi == (1 << w)):
            raise DomainError("last piecewise case must cover the full range")
        self.cases = cases
        self.in_width = w
        self.out_width = o
        self._nest()

    def _key(self):
        return tuple((c.lo, c.hi) for c in self.cases)

    def _children(self):
        out = []
        for c in self.cases:
            if c.pred is not None:
                out.append(c.pred)
            out.append(c.branch)
        return tuple(out)

    def _eval_value(self, v):
        for c in self.cases:
            if c.is_range:
                if c.lo <= v < c.hi:
                    return c.branch._eval_value(v)
            elif c.pred._eval_value(v) == 1:
                return c.branch._eval_value(v)
        raise AssertionError("unreachable: final case is total")

    def _apply_many(self, xs):
        out = np.zeros_like(xs)
        remaining = np.ones(xs.shape, dtype=bool)
        for c in self.cases:
            if not remaining.any():
                break
            if c.is_range:
                sel = remaining & (xs >= c.lo) & (xs < c.hi)
            else:
                sel = remaining.copy()
                sub = c.pred._apply_many(xs[remaining]) == 1
                sel[remaining] = sub
            if sel.any():
                out[sel] = c.branch._apply_many(xs[sel])
            remaining &= ~sel
        return out


# ---------------------------------------------------------------------------
# gate-level building blocks


def identity(w: int) -> Circuit:
    gates = [Gate("INPUT", i) for i in range(w)]
    return GateNet(w, gates, list(range(w)))


def const_circuit(b: BitString, in_width: int = 0) -> Circuit:
    """Circuit ignoring its input and emitting the constant b."""
    gates = [Gate("CONST", bit) for bit in b.bits()]
    return GateNet(in_width, gates, list(range(b.width)))


def projection(w: int, indices: Sequence[int]) -> Circuit:
    gates = [Gate("INPUT", i) for i in range(w)]
    return GateNet(w, gates, list(indices))


def duplicate(w: int, times: int) -> Circuit:
    return projection(w, list(range(w)) * times)


def not_all(w: int) -> Circuit:
    gates = [Gate("INPUT", i) for i in range(w)] + [Gate("NOT", i) for i in range(w)]
    return GateNet(w, gates, list(range(w, 2 * w)))


def swap_halves(w: int) -> Circuit:
    if w % 2:
        raise DomainError("swap_halves needs even width")
    h = w // 2
    return projection(w, list(range(h, w)) + list(range(h)))


def fanout(circuits: Sequence[Circuit]) -> Circuit:
    """Apply every circuit to the same input, concatenating the outputs."""
    w = circuits[0].in_width
    if any(c.in_width != w for c in circuits):
        raise DomainError("fanout circuits must share the input width")
    par = circuits[0]
    for c in circuits[1:]:
        par = Parallel(par, c)
    return Compose(par, duplicate(w, len(circuits)))


def append_const(w: int, b: BitString) -> Circuit:
    """x -> x || b."""
    return Parallel(identity(w), const_circuit(b))


def prepend_const(w: int, b: BitString) -> Circuit:
    """x -> b || x."""
    return Parallel(const_circuit(b), identity(w))


def eq_const(w: int, value: int) -> Circuit:
    """One output bit: 1 iff the input equals the given value."""
    target = bits_of(value, w)
    gates = [Gate("INPUT", i) for i in range(w)]
    lits = []
    for i, bit in enumerate(target.bits()):
        if bit:
            lits.append(i)
        else:
            gates.append(Gate("NOT", i))
            lits.append(len(gates) - 1)
    if not lits:
        gates.append(Gate("CONST", 1))
        return GateNet(w, gates, [len(gates) - 1])
    acc = lits[0]
    for g in lits[1:]:
        gates.append(Gate("AND", acc, g))
        acc = len(gates) - 1
    return GateNet(w, gates, [acc])


def eq_halves(w: int) -> Circuit:
    """One output bit: 1 iff the two halves of the input are equal."""
    if w % 2:
        raise DomainError("eq_halves needs even width")
    h = w // 2
    gates = [Gate("INPUT", i) for i in range(w)]
    diffs = []
    for i in range(h):
        gates.append(Gate("XOR", i, h + i))
        diffs.append(len(gates) - 1)
    if not diffs:
        gates.append(Gate("CONST", 1))
        return GateNet(w, gates, [len(gates) - 1])
    acc = diffs[0]
    for d in diffs[1:]:
        gates.append(Gate("OR", acc, d))
        acc = len(gates) - 1
    gates.append(Gate("NOT", acc))
    return GateNet(w, gates, [len(gates) - 1])


def le_halves(w: int) -> Circuit:
    """One output bit: 1 iff first half <= second half as values."""
    if w % 2:
        raise DomainError("le_halves needs even width")
    h = w // 2
    gates = [Gate("INPUT", i) for i in range(w)]

    def new(op, a, b=0):
        gates.append(Gate(op, a, b))
        return len(gates) - 1

    # gt = OR_i (x_i AND NOT y_i AND eq-prefix); le = NOT gt
    gt = new("CONST", 0)
    eq = new("CONST", 1)
    for i in range(h):
        xi, yi = i, h + i
        ny = new("NOT", yi)
        here = new("AND", xi, ny)
        here = new("AND", eq, here)
        gt = new("OR", gt, here)
        xeq = new("XOR", xi, yi)
        xeq = new("NOT", xeq)
        eq = new("AND", eq, xeq)
    return GateNet(w, gates, [new("NOT", gt)])


def take_low(w: int, m: int) -> Circuit:
    """Project onto the last (least significant) m bits."""
    return projection(w, list(range(w - m, w)))


def embed(inner: Circuit, w: int) -> Circuit:
    """Lift an m -> m circuit to w -> w acting on the low m bits of small values.

    For value(x) < 2**m the result equals 0-padded inner(low bits); elsewhere
    the output is whatever the lift produces, so wrap it in a guard.
    """
    m = inner.in_width
    if inner.out_width != m or m > w:
        raise DomainError("embed needs an m -> m circuit and w >= m")
    if m == w:
        return inner
    return PadLeft(Compose(inner, take_low(w, m)), w - m)


# ---------------------------------------------------------------------------
# one-bit shrink chains with collision pull-back


def shrink_chain(cprime: Circuit, w_in: int, w_out: int) -> Circuit:
    """Chain of stages T_w(u || v) = cprime(u) || v, u the first m input bits.

    cprime must shrink by exactly one bit (m -> m-1); valid whenever
    w_in > w_out >= m-1, which keeps every stage at least m bits wide.
    """
    m = cprime.in_width
    if cprime.out_width != m - 1:
        raise DomainError("shrink stage circuit must drop exactly one bit")
    if not w_in > w_out >= m - 1:
        raise DomainError(f"cannot chain {w_in} -> {w_out} with stage width {m}")
    chain = None
    for w in range(w_in, w_out, -1):
        stage = Parallel(cprime, identity(w - m)) if w > m else cprime
        chain = stage if chain is None else Compose(stage, chain)
    return chain


def shrink_chain_pullback(
    cprime: Circuit, w_in: int, w_out: int, x1: BitString, x2: BitString
) -> tuple[BitString, BitString]:
    """Given chain(x1) = chain(x2) with x1 != x2, return distinct u1, u2 with
    cprime(u1) = cprime(u2) by replaying the stages and taking the first one
    whose outputs coincide."""
    m = cprime.in_width
    if x1.width != w_in or x2.width != w_in:
        raise DomainError(f"pull-back inputs must have width {w_in}")
    if x1 == x2:
        raise DomainError("pull-back needs distinct inputs")
    a, b = x1.value, x2.value
    for w in range(w_in, w_out, -1):
        # stage input u || v with u the first m bits; output cprime(u) || v
        rest = w - m
        keep = (1 << rest) - 1
        u1, u2 = a >> rest, b >> rest
        y1 = (cprime.value_at(u1) << rest) | (a & keep)
        y2 = (cprime.value_at(u2) << rest) | (b & keep)
        if y1 == y2:
            # equal outputs share their low bits, so u1 == u2 would mean a == b
            return BitString(m, u1), BitString(m, u2)
        a, b = y1, y2
    raise DomainError("chain outputs never met: not a genuine collision")


# ---------------------------------------------------------------------------
# serialization


def _params_str(d: dict) -> str:
    return "".join(f" {k}={v}" for k, v in d.items())


def _rows_text(c: Table, indent: int) -> str:
    """A table's rows, one line each at the given indent, without a final
    newline.  int64 rows are written as one uint8 character array, filled a
    digit column at a time."""
    width = c.out_width
    if c._table is None:
        return "\n".join(" " * indent + format(r, f"0{width}b") for r in c.rows)
    rows = c._table
    chars = np.empty((len(rows), indent + width + 1), dtype=np.uint8)
    chars[:, :indent] = ord(" ")
    chars[:, -1] = ord("\n")
    for j in range(width):
        chars[:, indent + j] = ord("0") + ((rows >> (width - 1 - j)) & 1)
    return chars.tobytes()[:-1].decode("ascii")


# combinator word -> (class, number of children, integer attributes): the
# children, then the attributes, in the order the constructor takes them
_COMBINATORS = {
    "COMPOSE": (Compose, 2, ()),
    "PARALLEL": (Parallel, 2, ()),
    "SLICE": (Slice, 1, ("start", "stop")),
    "PAD": (PadLeft, 1, ("bits",)),
    "GUARD": (GuardPrefix, 1, ("t",)),
}
_COMBINATOR_WORDS = {cls: word for word, (cls, _, _) in _COMBINATORS.items()}
_CONST_WORDS = {op.upper() + "C": op for op in ConstOp.OPS}


def _node_lines(c: Circuit, indent: int) -> list[str]:
    """Text lines of a node; a table's rows come as one multi-line string."""
    pad = " " * indent
    word = _COMBINATOR_WORDS.get(type(c))
    if word is not None:
        attrs = _params_str({k: getattr(c, k) for k in _COMBINATORS[word][2]})
        return [pad + word + attrs] + [ln for kid in c._children() for ln in _node_lines(kid, indent + 2)]
    if isinstance(c, Table):
        return [f"{pad}TABLE in={c.in_width} out={c.out_width}", _rows_text(c, indent)]
    if isinstance(c, GateNet):
        lines = [f"{pad}NETLIST in={c.in_width}"]
        for i, g in enumerate(c.gates):
            # a gate's operands: its earlier gates, or for INPUT and CONST one number
            args = (f"g{g.a}", f"g{g.b}")[:GateNet._ARITY[g.op]] or (g.a,)
            lines.append(f"{pad}g{i} = {g.op} " + " ".join(map(str, args)))
        lines.append(pad + "OUTPUT " + " ".join(f"g{o}" for o in c.outputs))
        return lines
    if isinstance(c, Builtin):
        return [f"{pad}BLOCK {c.name}{_params_str(c.params)}"]
    if isinstance(c, ConstOp):
        return [f"{pad}{c.op.upper()}C c={c.c}"]
    if isinstance(c, Piecewise):
        lines = [f"{pad}PIECEWISE"]
        for case in c.cases[:-1]:
            if case.is_range:
                lines.append(f"{pad}  CASE lo={case.lo} hi={case.hi}")
                lines += _node_lines(case.branch, indent + 4)
            else:
                lines.append(f"{pad}  CASEPRED")
                lines += _node_lines(case.pred, indent + 4)
                lines += _node_lines(case.branch, indent + 4)
        lines.append(f"{pad}  ELSE")
        lines += _node_lines(c.cases[-1].branch, indent + 4)
        return lines
    raise DomainError(f"cannot serialize node {type(c).__name__}")


def to_text(c: Circuit) -> str:
    if c.out_width == 0:
        raise DomainError("zero-output circuits have no text form")
    return "\n".join([f"CIRCUIT in={c.in_width} out={c.out_width}"] + _node_lines(c, 0)) + "\n"


_NODE_WORDS = {"TABLE", "NETLIST", "BLOCK", "PIECEWISE", "CASE", "CASEPRED", "ELSE",
               *_COMBINATORS, *_CONST_WORDS}


def _build_error(e: KeyError | ValueError | OverflowError, lineno: int) -> ParseError:
    """What an error raised while building the node or case on line lineno
    is reported as."""
    if isinstance(e, KeyError):
        return ParseError(f"missing or unknown attribute {e}", lineno)
    if isinstance(e, OverflowError):
        return ParseError("width too large to build this node", lineno)
    return ParseError(str(e), lineno)


class _Parser:
    """Recursive-descent parser over the raw text lines.  Blank lines are
    skipped wherever they occur; a line's indent is read only where a node or
    a piecewise case is expected."""

    def __init__(self, lines: list[str], start_line: int):
        self.lines = lines
        self.pos = 0  # index of the next unread line
        self.start_line = start_line
        self.depth = 0

    def peek(self):
        """(lineno, indent, text) of the next non-blank line, or None."""
        lines, pos = self.lines, self.pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        self.pos = pos
        if pos == len(lines):
            return None
        raw = lines[pos]
        stripped = raw.lstrip(" ")
        return self.start_line + pos, len(raw) - len(stripped), stripped.rstrip()

    def take(self):
        item = self.peek()
        if item is None:
            raise ParseError("unexpected end of circuit text")
        self.pos += 1
        return item

    def table_rows(self, count: int, width: int):
        """The next count rows of a TABLE: in bulk when ``_bulk_rows`` takes
        the lines right after it, else one non-blank line at a time, which
        reports the first bad row."""
        if 0 < width <= MAX_VECTOR_WIDTH:
            rows = _bulk_rows(self.lines[self.pos:self.pos + count], count, width)
            if rows is not None:
                self.pos += count
                return rows
        rows = []
        for _ in range(count):
            ln, _, row = self.take()
            if set(row) - {"0", "1"} or len(row) != width:
                raise ParseError(f"bad table row {row!r}", ln)
            rows.append(int(row, 2))
        return rows

    def parse_node(self, indent: int, default_in: int = -1, default_out: int = -1) -> Circuit:
        item = self.peek()
        if item is None:
            raise ParseError("expected a circuit node")
        lineno, ind, text = item
        if ind != indent:
            raise ParseError(f"expected node at indent {indent}", lineno)
        word = text.split()[0]
        if word not in _NODE_WORDS:
            raise ParseError(f"unknown node {word!r}", lineno)
        if self.depth >= MAX_PARSE_DEPTH:
            raise ParseError(f"circuit nested deeper than {MAX_PARSE_DEPTH} levels", lineno)
        self.take()
        attrs = _parse_attrs(text, lineno)
        self.depth += 1
        try:
            return self._build(word, attrs, indent, lineno, default_in, default_out)
        except ParseError:
            raise
        except (KeyError, ValueError, OverflowError) as e:
            raise _build_error(e, lineno) from e
        finally:
            self.depth -= 1

    def _build(self, word, attrs, indent, lineno, default_in, default_out):
        kid = indent + 2
        if word == "TABLE":
            in_w = int(attrs.get("in", default_in))
            out_w = int(attrs.get("out", default_out))
            if in_w < 0 or out_w < 0:
                raise ParseError("nested TABLE needs in= and out=", lineno)
            if in_w > MAX_TABLE_WIDTH:
                raise ParseError(f"table in_width {in_w} beyond cap {MAX_TABLE_WIDTH}", lineno)
            return Table(in_w, out_w, self.table_rows(1 << in_w, out_w))
        if word == "NETLIST":
            in_w = int(attrs.get("in", default_in))
            if in_w < 0:
                raise ParseError("nested NETLIST needs in=", lineno)
            gates, ids = [], {}

            def gate_ids(toks):
                for tok in toks:
                    if tok not in ids:
                        raise ParseError(f"unknown gate {tok!r}", ln)
                return [ids[tok] for tok in toks]

            while True:
                ln, _, line = self.take()
                if line.startswith("OUTPUT"):
                    return GateNet(in_w, gates, gate_ids(line.split()[1:]))
                m = line.split(" = ")
                if len(m) != 2:
                    raise ParseError(f"bad netlist line {line!r}", ln)
                op, *args = m[1].split()
                arity = GateNet._ARITY.get(op)
                if arity is None:
                    raise ParseError(f"unknown gate op {op!r}", ln)
                if len(args) != max(arity, 1):
                    raise ParseError(f"bad netlist line {line!r}", ln)
                gates.append(Gate(op, *gate_ids(args)) if arity else Gate(op, int(args[0])))
                ids[m[0].strip()] = len(gates) - 1
        if word == "BLOCK":
            name = attrs.pop("_name")
            params = {k: int(v) for k, v in attrs.items()}
            if name in BLOCKS:
                try:
                    inspect.signature(BLOCKS[name]).bind(**params)
                except TypeError as e:
                    raise ParseError(f"block {name}: {e}", lineno) from e
            return Builtin(name, **params)
        if word in _COMBINATORS:
            cls, children, names = _COMBINATORS[word]
            kids = [self.parse_node(kid) for _ in range(children)]
            return cls(*kids, *(int(attrs[k]) for k in names))
        if word in _CONST_WORDS:
            return ConstOp(_CONST_WORDS[word], BitString.from_str(attrs["c"]))
        if word == "PIECEWISE":
            cases = []
            while True:
                item = self.peek()
                if item is None or item[1] != kid:
                    raise ParseError("piecewise must end with an ELSE case", lineno)
                _, _, head = item
                kw = head.split()[0]
                if kw == "CASE":
                    ln, _, txt = self.take()
                    a = _parse_attrs(txt, ln)
                    branch = self.parse_node(kid + 2)
                    try:
                        cases.append(Case(branch, lo=int(a["lo"]), hi=int(a["hi"])))
                    except (KeyError, ValueError) as e:
                        raise _build_error(e, ln) from e
                elif kw == "CASEPRED":
                    self.take()
                    pred = self.parse_node(kid + 2)
                    branch = self.parse_node(kid + 2)
                    cases.append(Case(branch, pred=pred))
                elif kw == "ELSE":
                    self.take()
                    branch = self.parse_node(kid + 2)
                    cases.append(Case(branch, lo=0, hi=1 << branch.in_width))
                    return Piecewise(cases)
                else:
                    raise ParseError(f"unexpected {kw!r} inside PIECEWISE", item[0])
        raise ParseError(f"unknown node {word!r}", lineno)


def _parse_attrs(text: str, lineno: int) -> dict:
    toks = text.split()
    attrs: dict = {}
    for i, tok in enumerate(toks[1:]):
        if "=" in tok:
            k, v = tok.split("=", 1)
            attrs[k] = v
        elif i == 0:
            attrs["_name"] = tok
        else:
            raise ParseError(f"bad attribute {tok!r}", lineno)
    return attrs


def _bulk_rows(block: list[str], count: int, width: int) -> np.ndarray | None:
    """Table rows as int64 values, if block holds count lines of one length,
    each spaces followed by width 0/1 digits; None otherwise.  The lines are
    checked and converted as one uint8 character array, a digit column at a
    time."""
    if len(block) != count:
        return None
    length = len(block[0])
    indent = length - width
    text = "\n".join(block) + "\n"
    if indent < 0 or len(text) != count * (length + 1) or not text.isascii():
        return None
    chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(count, length + 1)
    digits = chars[:, indent:length]
    # no newline passes these checks, so each one ends a line of exactly length
    if (chars[:, :indent] != ord(" ")).any() or ((digits | 1) != ord("1")).any():
        return None
    rows = np.zeros(count, dtype=np.int64)
    for j in range(width):
        rows <<= 1
        rows |= digits[:, j] & 1
    return rows


def from_text(text: str, start_line: int = 1) -> Circuit:
    parser = _Parser(text.splitlines(), start_line)
    if parser.peek() is None:
        raise ParseError("empty circuit text")
    hline, _, head = parser.take()
    if not head.startswith("CIRCUIT"):
        raise ParseError("expected CIRCUIT header", hline)
    attrs = _parse_attrs(head, hline)
    try:
        in_w, out_w = int(attrs["in"]), int(attrs["out"])
    except KeyError as e:
        raise ParseError(f"CIRCUIT header missing {e}", hline)
    except ValueError as e:
        raise ParseError(f"bad CIRCUIT header: {e}", hline) from None
    if in_w < 0 or out_w < 0:
        raise ParseError(f"bad CIRCUIT header: negative width in={in_w} out={out_w}", hline)
    node = parser.parse_node(0, default_in=in_w, default_out=out_w)
    if parser.peek() is not None:
        raise ParseError("trailing content after circuit", parser.peek()[0])
    if (node.in_width, node.out_width) != (in_w, out_w):
        raise ParseError(
            f"header says {in_w}->{out_w} but node is {node.in_width}->{node.out_width}", hline
        )
    return node
