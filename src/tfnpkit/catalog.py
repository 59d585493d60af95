"""The problem catalog: one ``ProblemSpec`` per total search problem.

A spec holds what the defining relation says about a problem: its structural
parameters (``k`` for block families, ``r`` for clique families) with their
minimums, the smallest n, the circuit shape, the auxiliary constants an
instance carries, and an ordered map from solution tag to clause.

Each clause kind is written once, parameterised by its range threshold where
the tight variant of a problem restricts witness indices.  A clause gives its
witness names, a scalar ``check`` that returns the reason a witness tuple
fails (None when the clause holds), and an array ``scan`` over the instance's
output table that yields every accepted witness tuple as ints, first witness
in [lo, hi), in canonical order.  ``Clause.whole_table`` says whether a
scan reads the whole table from ``outs``:

- ``Pair``, ``Collision``, ``Clique``, ``Triangle`` and ``Twins`` do, and
  their caller tabulates the circuit first.  ``Collision`` and ``Twins``
  share one group-by, ``_collision_pairs``: matching triangles are a
  collision of the map from a vertex triple to its color profile;
- ``Value``, ``Pinned`` and ``Asymmetric`` do not.  They ignore ``outs``
  and fetch what they read: ``Value`` the table one block of first
  witnesses at a time through ``table_prefix``, so a scan that stops early
  tabulates and masks no further than its last row; ``Pinned`` its
  designated edges; ``Asymmetric`` row and column lo of the color matrix
  through ``values_at``, and the whole table only once that row is read.

A clause's ``check_many`` is the batch
form of ``check``: a bool mask over an (N, k) int array of witness tuples,
built from the scan's array predicates and range masks, that reads outputs
through ``values_at`` (the cached table, or ``apply_many`` on just those
points).  ``check`` stays the reference and the source of rejection reasons.
``problems`` and ``solvers`` read this table; no other module tells problems
apart by name.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .circuit import _EVAL_BLOCK, eval_all, table_prefix, values_at
from .encodings import is_spanning_tree, prufer_width
from .errors import CapabilityError
from .numerics import BitString, binomial, ceil_log2

__all__ = [
    "SPECS",
    "ProblemSpec",
    "clique_size",
    "edges_form_clique",
    "honest_turan_params",
    "star_tree",
]


# ---------------------------------------------------------------------------
# combinatorial helpers


def clique_size(r: int) -> int:
    """Number of edges in a clique on r+1 vertices."""
    return binomial(r + 1, 2)


def star_tree(n: int) -> BitString:
    # edges (1,2), (1,3), ..., (1,n): the first n-1 positions of the edge bitmap
    m = binomial(n, 2)
    return BitString(m, ((1 << (n - 1)) - 1) << (m - (n - 1)))


def honest_turan_params(r: int, n: int) -> tuple[int, int]:
    big_n = (2 ** n // r) * r
    big_m = (r - 1) * big_n * big_n // (2 * r)
    return big_n, big_m


def edges_form_clique(r_plus_1: int, edges: Sequence[tuple[int, int]]) -> Optional[frozenset[int]]:
    """Vertex set when the (u, v) endpoint values are exactly all pairs over
    r+1 distinct vertices, each once."""
    if len(edges) != binomial(r_plus_1, 2):
        return None
    seen: set[frozenset[int]] = set()
    verts: set[int] = set()
    for u, v in edges:
        if u == v:
            return None
        pair = frozenset((u, v))
        if pair in seen:
            return None
        seen.add(pair)
        verts |= pair
    if len(verts) != r_plus_1:
        return None
    want = {frozenset((a, b)) for a in verts for b in verts if a < b}
    return frozenset(verts) if seen == want else None


def _blocks(k: int, n: int) -> list[int]:
    # characteristic vectors of {jn+1, ..., (j+1)n} inside [kn], j < k
    return [((1 << n) - 1) << (k * n - (j + 1) * n) for j in range(k)]


def _distinct_per_row(a: np.ndarray) -> np.ndarray:
    """Which rows of a 2-D array hold pairwise distinct values."""
    s = np.sort(a, axis=1)
    return (s[:, 1:] != s[:, :-1]).all(axis=1)


def _popcount(a: np.ndarray) -> np.ndarray:
    """Set bits per element of a non-negative integer array."""
    return np.bitwise_count(a)


def _tree_mask(n: int, outs: np.ndarray) -> np.ndarray:
    """Which values of outs are spanning trees on n vertices, as edge bitmaps
    in the pair order of ``edges_of_bitmap``.

    A graph with n-1 edges is a tree exactly when it is connected, so only
    those rows are swept: each gets one vertex bitmask per vertex, and the
    set reached from vertex 1 grows a neighbourhood at a time.
    """
    mask = _popcount(outs) == n - 1
    graphs = outs[mask]
    vtype = np.min_scalar_type((1 << n) - 1)
    nbrs = [np.zeros(len(graphs), dtype=vtype) for _ in range(n)]
    bit = n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            bit -= 1
            has = ((graphs >> bit) & 1).astype(vtype)
            nbrs[i] |= has << j
            nbrs[j] |= has << i
    reached = np.ones(len(graphs), dtype=vtype)
    for _ in range(n - 1):
        grown = reached.copy()
        for v in range(n):
            grown |= nbrs[v] * ((reached >> v) & 1)
        reached = grown
    mask[mask] = reached == (1 << n) - 1
    return mask


# ---------------------------------------------------------------------------
# array scans


def _collision_pairs(outs: np.ndarray, lo: int, hi: int,
                     first_ok=None, second_ok=None) -> Iterator[tuple[int, int]]:
    """Ordered pairs (x, y), x != y, outs[x] == outs[y], ascending (x, y), for
    any int key array outs: an output table, or ``Twins``' color profiles.

    The values are sorted once, in the narrowest dtype that holds them, and
    the ones held more than once are looked up for the first witnesses block
    by block from lo.  The blocks double from one input to ``_EVAL_BLOCK``, so
    a first witness at lo costs the sort and one lookup.
    """
    if lo >= hi:
        return
    ordered = outs.astype(np.min_scalar_type(outs.max()) if outs.min() >= 0 else outs.dtype)
    ordered.sort()
    # each value held more than once, taken at the last of its copies
    last = np.r_[ordered[1:] != ordered[:-1], True]
    repeats = np.compress(last[1:] & ~last[:-1], ordered[1:])
    if not len(repeats):
        return
    groups: dict[int, np.ndarray] = {}
    start, size = lo, 1
    while start < hi:
        top = min(hi, start + size)
        vals = outs[start:top].astype(repeats.dtype)
        at = np.minimum(np.searchsorted(repeats, vals), len(repeats) - 1)
        xs = np.flatnonzero(repeats[at] == vals) + start
        if first_ok is not None:
            xs = xs[first_ok[xs]]
        for x in xs.tolist():
            key = int(outs[x])
            if key not in groups:
                # one pass per key: a stable argsort gives mates as slices but took 25x
                # this sort on a 2**21-entry weak_pigeon table, an unstable one 8x
                mates = np.flatnonzero(outs == key)
                groups[key] = mates if second_ok is None else mates[second_ok[mates]]
            for y in groups[key].tolist():
                if y != x:
                    yield (x, y)
        start, size = top, min(2 * size, _EVAL_BLOCK)


def _clique_solutions(n: int, e_u: np.ndarray, e_v: np.ndarray, in_range: np.ndarray,
                      r: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Index tuples whose edges form a clique on r+1 vertices, lazily and in
    ascending lexicographic order, first index in [lo, hi).

    Each clique is reported once per choice of covering indices, as the
    sorted index tuple (the canonical minimum among its permutations).  The
    search is depth first over the tuple: with i_1 < ... < i_d chosen, the
    next index is taken ascending from the merged index lists of the pairs
    that can still complete a K_{r+1} around the chosen vertices, and no
    later than the last index of any pair still owed.  Edges whose endpoints
    have fewer than r-1 common neighbours lie in no K_{r+1} and are dropped
    first, so a graph without one fails fast.  Nothing is capped here: the
    caller stops the generator at its per-type cap.
    """
    n_verts = 1 << n
    idx = np.flatnonzero(in_range & (e_u != e_v))
    if not len(idx):
        return
    a, b = np.minimum(e_u[idx], e_v[idx]), np.maximum(e_u[idx], e_v[idx])
    adj = np.zeros((n_verts, n_verts), dtype=bool)
    adj[a, b] = adj[b, a] = True
    adj_f = adj.astype(np.float32)  # exact: counts stay far below 2**24
    keep = (adj_f @ adj_f)[a, b] >= r - 1
    del adj_f
    idx, a, b = idx[keep], a[keep], b[keep]
    if not len(idx):
        return
    adj[:] = False
    adj[a, b] = adj[b, a] = True

    # index lists per vertex pair: members[start[p]:stop[p]] ascending
    order = np.argsort(a * n_verts + b, kind="stable")
    members = idx[order]
    a, b = a[order], b[order]
    start = np.flatnonzero(np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
    stop = np.r_[start[1:], len(members)]
    pair_id = np.full((n_verts, n_verts), -1, dtype=np.int32)
    pair_id[a[start], b[start]] = pair_id[b[start], a[start]] = np.arange(len(start))
    last_of_pair = members[stop - 1]

    def fill(chosen: tuple[int, ...], owed: list[list[int]]) -> Iterator[tuple[int, ...]]:
        # every vertex is fixed: take one index from each owed pair, ascending
        if not owed:
            yield chosen
            return
        bound = min(lst[-1] for lst in owed)
        for i, k in sorted((i, k) for k, lst in enumerate(owed)
                           for i in lst if chosen[-1] < i <= bound):
            yield from fill(chosen + (i,), owed[:k] + owed[k + 1:])

    def extend(verts: tuple[int, ...], chosen: tuple[int, ...],
               used: frozenset[int]) -> Iterator[tuple[int, ...]]:
        owed = [int(pair_id[x, y]) for x, y in combinations(verts, 2)]
        owed = [p for p in owed if p not in used]
        need = r + 1 - len(verts)
        if not need:
            yield from fill(chosen, [members[start[p]:stop[p]].tolist() for p in owed])
            return
        last = chosen[-1]
        bound = min((int(last_of_pair[p]) for p in owed), default=len(e_u))
        if bound <= last:
            return
        common = adj[list(verts)].all(axis=0)
        common[list(verts)] = False
        cs = np.flatnonzero(common)
        if need >= 2:
            # the vertices still to come form a clique: each needs need-1
            # neighbours among the common ones
            inner = adj[np.ix_(cs, cs)]
            ok = inner.sum(axis=1) >= need - 1
            cs, inner = cs[ok], inner[np.ix_(ok, ok)]
        if len(cs) < need:
            return
        cand = [np.array(owed, dtype=np.int64), pair_id[np.ix_(verts, cs)].ravel()]
        if need >= 2:
            x, y = np.nonzero(np.triu(inner, 1))
            cand.append(pair_id[cs[x], cs[y]])
        pairs = np.concatenate(cand)
        lens = stop[pairs] - start[pairs]
        offsets = np.repeat(start[pairs] - np.cumsum(lens) + lens, lens)
        nxt = members[offsets + np.arange(len(offsets))]
        yield from branch(np.sort(nxt[(nxt > last) & (nxt <= bound)]).tolist(), verts, chosen, used)

    def branch(candidates: list[int], verts: tuple[int, ...], chosen: tuple[int, ...],
               used: frozenset[int]) -> Iterator[tuple[int, ...]]:
        # if no completion follows index i of pair p, none follows a later index
        # of p either: swapping it for i would give one
        dead: set[int] = set()
        for i in candidates:
            u, v = int(e_u[i]), int(e_v[i])
            p = int(pair_id[u, v])
            if p in dead:
                continue
            found = False
            for tup in extend(tuple(sorted({*verts, u, v})), chosen + (i,), used | {p}):
                found = True
                yield tup
            if not found:
                dead.add(p)

    firsts = np.sort(members[(members >= lo) & (members < hi)]).tolist()
    yield from branch(firsts, (), (), frozenset())


# Most ordered vertex triples the twin-triangle scan lays out as rows.  It
# admits the 64 vertices of n=3 (249,984 triples) and refuses the 256 of n=4
# (16.6M triples, over 1 GB of index arrays).
MAX_TRIPLES = 1 << 20


def _distinct_triples(v_count: int) -> np.ndarray:
    """The v(v-1)(v-2) ordered triples of distinct vertices, lexicographic."""
    count = v_count * (v_count - 1) * (v_count - 2)
    if count > MAX_TRIPLES:
        raise CapabilityError(
            f"{count} vertex triples on {v_count} vertices exceed the scan cap {MAX_TRIPLES}")
    flat = np.indices((v_count,) * 3).reshape(3, -1).T
    keep = (flat[:, 0] != flat[:, 1]) & (flat[:, 0] != flat[:, 2]) & (flat[:, 1] != flat[:, 2])
    return flat[keep]


# ---------------------------------------------------------------------------
# clause kinds


@dataclass(eq=False)
class Range:
    """Witness indices must lie below ``limit(inst)``, or only the first one
    when ``first_only``; ``shown`` names the limit in reasons."""

    limit: Callable
    shown: Optional[str] = None
    first_only: bool = False

    def fails(self, inst, values: tuple[BitString, ...]) -> Optional[str]:
        limit = self.limit(inst)
        if all(v.value < limit for v in (values[:1] if self.first_only else values)):
            return None
        shown = self.shown or limit
        if len(values) == 1:
            return f"index must be below {shown}"
        return f"{'first index' if self.first_only else 'indices'} must be below {shown}"

    def within(self, inst, rows: np.ndarray) -> np.ndarray:
        """Which rows of an (N, k) array of witness indices pass ``fails``."""
        return ((rows[:, :1] if self.first_only else rows) < self.limit(inst)).all(axis=1)


def _in_range(rng: Optional[Range], inst, lo: int, hi: int) -> Optional[np.ndarray]:
    """Which single indices lo .. hi-1 pass the range, or None without one.
    Every range is a prefix [0, limit), so this is a bool mask built at once."""
    if rng is None:
        return None
    ok = np.zeros(hi - lo, dtype=bool)
    ok[:max(0, min(rng.limit(inst), hi) - lo)] = True
    return ok


class Clause:
    """One tagged solution clause; subclasses set ``witnesses``."""

    witnesses: tuple[str, ...]
    # True when scan reads the whole output table from outs; a clause that
    # sets it False ignores outs and fetches the outputs its scan reads
    whole_table = True

    def names(self, pid) -> tuple[str, ...]:
        return self.witnesses

    def check(self, inst, values: tuple[BitString, ...]) -> Optional[str]:
        raise NotImplementedError

    def scan(self, inst, outs: Optional[np.ndarray], lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        raise NotImplementedError

    def check_many(self, inst, rows: np.ndarray) -> np.ndarray:
        """Which rows of an (N, k) int array of witness values, each below
        2**witness_width, pass ``check``."""
        raise NotImplementedError


@dataclass(eq=False)
class Pinned(Clause):
    """No witness: the instance is its own solution when ``holds(inst)``."""

    holds: Callable
    reason: str
    witnesses = ()

    whole_table = False

    def check(self, inst, values):
        return None if self.holds(inst) else self.reason

    def scan(self, inst, outs, lo, hi):
        if lo == 0 and self.holds(inst):
            yield ()

    def check_many(self, inst, rows):
        return np.full(len(rows), bool(self.holds(inst)))


@dataclass(eq=False)
class Value(Clause):
    """One witness whose output value satisfies ``holds(inst, out)``.

    ``holds`` also serves as the array form over the output table unless
    ``mask`` gives one.  ``reason`` may name the parameter ``{k}``.
    """

    witnesses: tuple[str, ...]
    holds: Callable
    reason: str
    range: Optional[Range] = None
    mask: Optional[Callable] = None

    whole_table = False

    def check(self, inst, values):
        if self.range is not None:
            why = self.range.fails(inst, values)
            if why:
                return why
        if not self.holds(inst, inst.circuit.eval(values[0]).value):
            return self.reason.format(k=inst.pid.k)
        return None

    def _ok(self, inst, outs: np.ndarray, in_range: Optional[np.ndarray]) -> np.ndarray:
        ok = (self.mask or self.holds)(inst, outs)
        return ok if in_range is None else ok & in_range

    def scan(self, inst, outs, lo, hi):
        # one block of the table and its mask at a time, so a scan tabulates
        # and masks no further than the block of its last row
        for start in range(lo, hi, _EVAL_BLOCK):
            top = min(hi, start + _EVAL_BLOCK)
            ok = self._ok(inst, table_prefix(inst.circuit, top)[start:],
                          _in_range(self.range, inst, start, top))
            for x in np.flatnonzero(ok):
                yield (start + int(x),)

    def check_many(self, inst, rows):
        in_range = None if self.range is None else self.range.within(inst, rows)
        return self._ok(inst, values_at(inst.circuit, rows[:, 0]), in_range)


@dataclass(eq=False)
class Pair(Clause):
    """Two witnesses whose outputs stand in ``rel``, elementwise on arrays;
    ``distinct`` is the reason given for equal witnesses, None to allow them."""

    witnesses: tuple[str, ...]
    reason: str
    rel: Callable
    distinct: Optional[str] = None
    range: Optional[Range] = None

    def check(self, inst, values):
        x, y = values
        if self.distinct and x.value == y.value:
            return self.distinct
        if self.range is not None:
            why = self.range.fails(inst, values)
            if why:
                return why
        c = inst.circuit
        if not self.rel(c.eval(x).value, c.eval(y).value):
            return self.reason
        return None

    def _oks(self, inst, size: int) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        ok = _in_range(self.range, inst, 0, size)
        return ok, (None if self.range is None or self.range.first_only else ok)

    def scan(self, inst, outs, lo, hi):
        first_ok, second_ok = self._oks(inst, len(outs))
        for x in range(lo, hi):
            if first_ok is not None and not first_ok[x]:
                continue
            mates = self.rel(outs[x], outs)
            if second_ok is not None:
                mates = mates & second_ok
            for y in np.flatnonzero(mates):
                y = int(y)
                if y != x or not self.distinct:
                    yield (x, y)

    def check_many(self, inst, rows):
        x, y = rows.T
        ok = np.ones(len(rows), dtype=bool)
        if self.distinct:
            ok &= x != y
        if self.range is not None:
            ok &= self.range.within(inst, rows)
        outs = values_at(inst.circuit, rows)
        return ok & self.rel(outs[:, 0], outs[:, 1])


@dataclass(eq=False)
class Collision(Pair):
    """Two witnesses with equal outputs, scanned by grouping equal values."""

    rel: Callable = operator.eq

    def scan(self, inst, outs, lo, hi):
        return _collision_pairs(outs, lo, hi, *self._oks(inst, len(outs)))


@dataclass(eq=False)
class Clique(Clause):
    """Distinct edge indices whose edges are exactly the pairs of r+1
    distinct vertices; r is fixed here or read from the problem id, and the
    witnesses are i1, i2, ... unless named.  The scan reports each choice of
    covering indices once, in sorted-index form."""

    witnesses: tuple[str, ...] = ()
    r: Optional[int] = None
    reason: Optional[str] = None
    range: Optional[Range] = None

    def names(self, pid):
        return self.witnesses or tuple(f"i{t}" for t in range(1, clique_size(pid.r) + 1))

    def check(self, inst, values):
        if len({v.value for v in values}) != len(values):
            return "indices must be distinct"
        if self.range is not None:
            why = self.range.fails(inst, values)
            if why:
                return why
        r = self.r or inst.pid.r
        edges = [divmod(inst.circuit.eval(i).value, 1 << inst.n) for i in values]
        if edges_form_clique(r + 1, edges) is None:
            return self.reason or f"edges do not form a clique on {r + 1} vertices"
        return None

    def scan(self, inst, outs, lo, hi):
        n = inst.n
        ok = _in_range(self.range, inst, 0, len(outs))
        if ok is None:
            ok = np.ones(len(outs), dtype=bool)
        return _clique_solutions(n, outs >> n, outs & ((1 << n) - 1), ok,
                                 self.r or inst.pid.r, lo, hi)

    def check_many(self, inst, rows):
        # distinct edges without loops on exactly r+1 vertices are all of
        # them; equal indices give equal edges, so they need no test of their own
        n = inst.n
        outs = values_at(inst.circuit, rows)
        u, v = outs >> n, outs & ((1 << n) - 1)
        verts = np.sort(np.concatenate([u, v], axis=1), axis=1)
        n_verts = 1 + (verts[:, 1:] != verts[:, :-1]).sum(axis=1)
        edges = (np.minimum(u, v) << n) | np.maximum(u, v)
        ok = (u != v).all(axis=1) & _distinct_per_row(edges) & (n_verts == (self.r or inst.pid.r) + 1)
        if self.range is not None:
            ok &= self.range.within(inst, rows)
        return ok


# ws family: the circuit input is a vertex pair u || v and its output the
# color of that edge, so the output table reshapes into a V x V color matrix.


def _color(inst, u: BitString, v: BitString) -> int:
    return inst.circuit.value_at((u.value << v.width) | v.value)


def _colors(inst, rows: np.ndarray, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Column t holds color(row[i], row[j]) for the t-th (i, j) of pairs."""
    i, j = np.array(pairs).T
    return values_at(inst.circuit, (rows[:, i] << (2 * inst.n)) | rows[:, j])


def _color_matrix(inst, outs: np.ndarray) -> np.ndarray:
    v_count = 1 << (2 * inst.n)
    return outs.reshape(v_count, v_count)


class Asymmetric(Clause):
    """A vertex pair whose two orientations get different colors.

    Not ``whole_table``: the scan ignores ``outs`` and compares row x of the
    color matrix with column x, reading row and column lo through
    ``values_at`` and the rows after it from ``eval_all``, so a hit at
    x = lo tabulates nothing and a symmetric coloring tabulates the circuit
    once."""

    witnesses = ("x", "y")

    whole_table = False

    def check(self, inst, values):
        x, y = values
        if _color(inst, x, y) == _color(inst, y, x):
            return "coloring is symmetric on this pair"
        return None

    def scan(self, inst, outs, lo, hi):
        v_count = 1 << (2 * inst.n)
        hi = min(hi, v_count)
        if lo >= hi:
            return
        ids = np.arange(v_count)
        both = values_at(inst.circuit, np.concatenate([lo * v_count + ids, ids * v_count + lo]))
        for y in np.flatnonzero(both[:v_count] != both[v_count:]).tolist():
            yield (lo, y)
        m = _color_matrix(inst, eval_all(inst.circuit))
        for x, row in enumerate(m[lo + 1:hi] != m[:, lo + 1:hi].T, lo + 1):
            for y in np.flatnonzero(row).tolist():
                yield (x, y)

    def check_many(self, inst, rows):
        c = _colors(inst, rows, ((0, 1), (1, 0)))
        return c[:, 0] != c[:, 1]


class Triangle(Clause):
    """Distinct x, y, z with color(x,y) == color(y,z) != color(x,z)."""

    witnesses = ("x", "y", "z")

    def check(self, inst, values):
        x, y, z = values
        if len({x.value, y.value, z.value}) != 3:
            return "vertices must be distinct"
        if _color(inst, x, y) != _color(inst, y, z):
            return "the two designated edges differ in color"
        if _color(inst, x, y) == _color(inst, x, z):
            return "triangle is monochromatic"
        return None

    def scan(self, inst, outs, lo, hi):
        m = _color_matrix(inst, outs)
        ids = np.arange(len(m))
        for x in range(lo, min(hi, len(m))):
            exy = m[x][:, None]
            exz = m[x][None, :]
            cond = (exy == m) & (exy != exz)
            cond[x, :] = False
            cond[:, x] = False
            cond[ids, ids] = False
            for y, z in np.argwhere(cond):
                yield (x, int(y), int(z))

    def check_many(self, inst, rows):
        xy, yz, xz = _colors(inst, rows, ((0, 1), (1, 2), (0, 2))).T
        return _distinct_per_row(rows) & (xy == yz) & (xy != xz)


@dataclass(eq=False)
class Twins(Clause):
    """Two vertex triples, distinct as sets, whose edges match in color
    position by position (a collision of their color profiles, scanned by
    ``_collision_pairs``); the first triangle trichromatic when ``colorful``."""

    colorful: bool
    witnesses = ("x", "y", "z", "x2", "y2", "z2")

    def check(self, inst, values):
        x, y, z, x2, y2, z2 = values
        first = {x.value, y.value, z.value}
        second = {x2.value, y2.value, z2.value}
        if len(first) != 3 or len(second) != 3:
            return "each triple must have 3 distinct vertices"
        if first == second:
            return "the triangles must be distinct as sets"
        if _color(inst, x, y) != _color(inst, x2, y2):
            return "first edge colors differ"
        if _color(inst, x, z) != _color(inst, x2, z2):
            return "second edge colors differ"
        if _color(inst, y, z) != _color(inst, y2, z2):
            return "third edge colors differ"
        if self.colorful:
            profile = {_color(inst, x, y), _color(inst, x, z), _color(inst, y, z)}
            if len(profile) != 3:
                return "first triangle is not trichromatic"
        return None

    def scan(self, inst, outs, lo, hi):
        m = _color_matrix(inst, outs)
        v_count = len(m)
        triples = _distinct_triples(v_count)
        x, y, z = triples.T
        c1, c2, c3 = m[x, y], m[x, z], m[y, z]
        key = (c1.astype(np.int64) * v_count + c2) * v_count + c3
        sets = np.sort(triples, axis=1) @ [v_count * v_count, v_count, 1]
        first_ok = (c1 != c2) & (c1 != c3) & (c2 != c3) if self.colorful else None
        start, stop = np.searchsorted(x, [lo, hi]).tolist()
        for t1, t2 in _collision_pairs(key, start, stop, first_ok):
            if sets[t1] != sets[t2]:
                yield (*triples[t1].tolist(), *triples[t2].tolist())

    def check_many(self, inst, rows):
        first, second = rows[:, :3], rows[:, 3:]
        c = _colors(inst, rows, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
        ok = (_distinct_per_row(first) & _distinct_per_row(second)
              & (np.sort(first, axis=1) != np.sort(second, axis=1)).any(axis=1)
              & (c[:, :3] == c[:, 3:]).all(axis=1))
        if self.colorful:
            ok &= _distinct_per_row(c[:, :3])
        return ok


# ---------------------------------------------------------------------------
# the table


@dataclass(eq=False)
class ProblemSpec:
    """One problem of the catalog.

    ``shape(n, k)`` is the (in, out) width of the main circuit.  ``params``
    maps each structural parameter the problem takes to its minimum;
    ``k_counts_values`` bounds k by the 2^n output values it counts.  A
    ``vertex_pairs`` problem reads its circuit on vertex pairs u || v: its
    witnesses are single 2n-bit vertices and its instance carries distinct
    vertex constants a, b, c.  An ``nm`` problem's instance carries integers
    N and M.  ``clauses`` maps each solution tag, in canonical order, to its
    clause.
    """

    shape: Callable[[int, Optional[int]], tuple[int, int]]
    clauses: dict[str, Clause]
    min_n: int = 1
    params: dict[str, int] = field(default_factory=dict)
    k_counts_values: bool = False
    vertex_pairs: bool = False
    nm: bool = False

    def witness_width(self, n: int, in_width: int) -> int:
        return 2 * n if self.vertex_pairs else in_width


X, XY, I, IJ = ("x",), ("x", "y"), ("i",), ("i", "j")
WITNESSES_DISTINCT = "witnesses must be distinct"
INDICES_DISTINCT = "indices must be distinct"


def _weak(shape: Callable) -> Callable:
    """The weak variant's shape: one more input bit than the tight one."""
    def weak(n: int, k: Optional[int]) -> tuple[int, int]:
        in_w, out_w = shape(n, k)
        return in_w + 1, out_w
    return weak


def _set_shape(n: int, k: Optional[int]) -> tuple[int, int]:
    k = k or 2
    return ceil_log2(binomial(k * n - 1, n - 1)), k * n


def _set_limit(inst) -> int:
    n, k = inst.n, inst.pid.k or 2
    return binomial(k * n - 1, n - 1)


def _set_clauses(rng: Optional[Range]) -> dict[str, Clause]:
    """EKR and GEKR: n-sets of [kn] indexed by the circuit input."""
    return {
        "i": Value(X, lambda inst, o: o.bit_count() != inst.n, "set has the allowed size", rng,
                   mask=lambda inst, outs: _popcount(outs) != inst.n),
        "ii": Collision(XY, "sets differ", distinct=WITNESSES_DISTINCT, range=rng),
        "iii": Pair(XY, "sets intersect", rel=lambda a, b: (a & b) == 0, range=rng),
    }


SET_RANGE = Range(_set_limit)
SET_BLOCK = Value(
    X, lambda inst, o: o in _blocks(inst.pid.k or 2, inst.n),
    "set is not one of the designated blocks", SET_RANGE,
    mask=lambda inst, outs: np.isin(outs, np.array(_blocks(inst.pid.k or 2, inst.n), dtype=np.int64)),
)


def _sperner_shape(n: int, k: Optional[int]) -> tuple[int, int]:
    return ceil_log2(binomial(2 * n, n)), 2 * n


SPERNER_RANGE = Range(lambda inst: binomial(2 * inst.n, inst.n))


def _subsets(rng: Optional[Range]) -> Pair:
    return Pair(XY, "first set is not contained in the second", rel=lambda a, b: (a & ~b) == 0,
                distinct=WITNESSES_DISTINCT, range=rng)


def _cayley_shape(n: int, k: Optional[int]) -> tuple[int, int]:
    return prufer_width(n), binomial(n, 2)


def _cayley_clauses(rng: Optional[Range], first: Optional[Range]) -> dict[str, Clause]:
    return {
        "i": Value(X, lambda inst, o: not is_spanning_tree(inst.n, BitString(binomial(inst.n, 2), o)),
                   "graph is a spanning tree", rng,
                   mask=lambda inst, outs: ~_tree_mask(inst.n, outs)),
        "ii": Collision(XY, "graphs differ", distinct=WITNESSES_DISTINCT, range=first),
    }


CAYLEY_RANGE = Range(lambda inst: inst.n ** (inst.n - 2))


# graph-bound problems: an output is an edge (u, v), read as two n-bit halves


def _high(inst, o):
    return o >> inst.n


def _low(inst, o):
    return o & ((1 << inst.n) - 1)


def _edge_clauses(rng: Optional[Range]) -> tuple[Clause, Clause, Clause]:
    """Decreasing edge, repeated edge, successor edge."""
    return (
        Value(I, lambda inst, o: _high(inst, o) >= _low(inst, o),
              "endpoints are strictly increasing", rng),
        Collision(IJ, "edges differ", distinct=INDICES_DISTINCT, range=rng),
        Value(I, lambda inst, o: _low(inst, o) == (_high(inst, o) + 1) % (1 << inst.n),
              "second endpoint is not the successor of the first", rng),
    )


def _dishonest(inst) -> bool:
    r, n = inst.pid.r, inst.n
    big_n, big_m = inst.nm
    return not (
        big_n % r == 0
        and big_n <= 2 ** n
        and big_n + r > 2 ** n
        and 2 * r * big_m == (r - 1) * big_n * big_n
    )


EDGE_RANGE = Range(lambda inst: inst.nm[1], "M")
TRIANGLE = Clique(("i", "j", "k"), r=2, reason="edges do not form a triangle")
DECREASING, EDGE_COLLISION, SUCCESSOR = _edge_clauses(None)
RANGED_DECREASING, RANGED_EDGE_COLLISION, RANGED_SUCCESSOR = _edge_clauses(EDGE_RANGE)
PIGEON_COLLISION = Collision(XY, "outputs differ", distinct=WITNESSES_DISTINCT)
WS_CLAUSES = {
    "i": Pinned(lambda inst: _color(inst, inst.abc[0], inst.abc[1]) == _color(inst, inst.abc[0], inst.abc[2]),
                "the two designated edges have different colors"),
    "ii": Asymmetric(),
    "iii": Triangle(),
}


def _ws_shape(n: int, k: Optional[int]) -> tuple[int, int]:
    return 4 * n, n


def _graph_shape(n: int, k: Optional[int]) -> tuple[int, int]:
    return 2 * n - 1, 2 * n


SPECS: dict[str, ProblemSpec] = {
    "weak_pigeon": ProblemSpec(lambda n, k: (n + 1, n), {"ii": PIGEON_COLLISION}),
    "pigeon": ProblemSpec(lambda n, k: (n, n), {
        "i": Value(X, lambda inst, o: o == 0, "output is not the all-zero string"),
        "ii": PIGEON_COLLISION,
    }),
    "general_pigeon": ProblemSpec(lambda n, k: (n, n), {
        "i": PIGEON_COLLISION,
        "ii": Value(X, lambda inst, o: o < inst.pid.k, "output is not among the first {k} values"),
    }, params={"k": 1}, k_counts_values=True),
    "weak_ekr": ProblemSpec(_weak(_set_shape), _set_clauses(None), min_n=2),
    "ekr": ProblemSpec(_set_shape, {**_set_clauses(SET_RANGE), "iv": SET_BLOCK}, min_n=2),
    "weak_gekr": ProblemSpec(_weak(_set_shape), _set_clauses(None), min_n=2, params={"k": 2}),
    "gekr": ProblemSpec(_set_shape, {**_set_clauses(SET_RANGE), "iv": SET_BLOCK}, min_n=2,
                        params={"k": 2}),
    "weak_sperner": ProblemSpec(_weak(_sperner_shape), {"i": _subsets(None)}, min_n=2),
    "sperner": ProblemSpec(_sperner_shape, {
        "i": _subsets(SPERNER_RANGE),
        "ii": Value(X, lambda inst, o: o == (1 << inst.n) - 1, "set is not the upper half block",
                    SPERNER_RANGE),
    }, min_n=2),
    "weak_cayley": ProblemSpec(_weak(_cayley_shape), _cayley_clauses(None, None), min_n=3),
    "cayley": ProblemSpec(_cayley_shape, {
        **_cayley_clauses(CAYLEY_RANGE, Range(CAYLEY_RANGE.limit, first_only=True)),
        "iii": Value(X, lambda inst, o: o == star_tree(inst.n).value,
                     "graph is not the star rooted at vertex 1", CAYLEY_RANGE),
    }, min_n=3),
    "ws": ProblemSpec(_ws_shape, WS_CLAUSES, vertex_pairs=True),
    "ws_collisions": ProblemSpec(_ws_shape, {**WS_CLAUSES, "iv": Twins(False)}, vertex_pairs=True),
    "ws_colorful": ProblemSpec(_ws_shape, {**WS_CLAUSES, "iv": Twins(True)}, vertex_pairs=True),
    "weak_mantel": ProblemSpec(_graph_shape, {
        "i": TRIANGLE, "ii": DECREASING, "iii": EDGE_COLLISION,
    }, min_n=2),
    "mantel": ProblemSpec(lambda n, k: (2 * n - 2, 2 * n), {
        "i": TRIANGLE, "ii": DECREASING, "iii": EDGE_COLLISION, "iv": SUCCESSOR,
    }, min_n=2),
    "weak_turan": ProblemSpec(_graph_shape, {
        "i": Clique(), "ii": DECREASING, "iii": EDGE_COLLISION,
    }, min_n=2, params={"r": 2}),
    "turan": ProblemSpec(_graph_shape, {
        "i": Pinned(_dishonest, "parameters N and M are consistent"),
        "ii": Value(I, lambda inst, o: (_high(inst, o) >= inst.nm[0]) | (_low(inst, o) >= inst.nm[0]),
                    "both endpoints are below N", EDGE_RANGE),
        "iii": Clique(range=EDGE_RANGE),
        "iv": RANGED_DECREASING, "v": RANGED_EDGE_COLLISION, "vi": RANGED_SUCCESSOR,
    }, min_n=2, params={"r": 2}, nm=True),
}
