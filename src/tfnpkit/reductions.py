"""Constructive reductions between the catalog problems.

Each registry entry pairs an instance transform, assembled from circuit
combinators and codec blocks, with a total solution pull-back that mirrors the
transform's case analysis.  ``pullback`` verifies the supplied target solution
before translating it and verifies the translated source solution before
returning it, so a defect in either direction surfaces as a loud integrity
failure, prefixed with the entry's name, instead of a silently wrong answer.

The registry is the ordered table ``ENTRIES``.  To add an entry, write one
builder ``_build_<name>(<size parameters with defaults>) -> Reduction``, whose
docstring states the construction, after the builder of the previous index and
declare it with ``@entry(index)``.  The declaration is the only place that
holds the entry's index, its name (the builder's name without ``_build_``),
its default parameters (the builder's signature) and, as ``forbidden=``, the
target solution tags its image provably avoids, which the fuzz harness
asserts.

The entries of one family state only their sizes and their circuit maps; one
family builder (``_ranked_pairs``, ``_shrunk_entry``, ``_guarded_entry``,
``_identity_above``, ``_identity_entry``, ``_edge_rank``) returns the whole
``Reduction`` from them.  Pull-backs that repeat a case analysis (set pairs,
doubled domains, chain representatives, trees) share one helper for it.

An entry may also give ``translate_many(inst, tag, rows)``, the batch form of
its pull-back over an (N, k) int array of target witness tuples of one tag.
It returns groups ``(source tag, source rows, index)``: ``source rows`` is an
int array of source witness tuples and ``index`` the target row each came
from.  A target row for which ``translate`` raises is in no group.  Every
entry gives one except entries 3, 4, 7, 8, 11, 12, 15, 16, 20, 24 and 25,
which the fuzz harness checks through the per-solution ``pullback``; it
checks the others' rows in batches.  ``translate`` stays the reference, and
the CLI's ``pullback`` uses it.

Size parameters that must satisfy a counting side condition (for example
"the target codomain must be at least twice the source codomain") are found
by ``_smallest_size``, one linear scan from the smallest legal size up to
``_MAX_SIZE_SCAN``.
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .catalog import _color, _popcount, _tree_mask
from .circuit import (
    Builtin,
    Case,
    Circuit,
    Compose,
    ConstOp,
    Gate,
    GateNet,
    GuardPrefix,
    PadLeft,
    Piecewise,
    Slice,
    Table,
    append_const,
    const_circuit,
    embed,
    eq_const,
    eq_halves,
    fanout,
    identity,
    le_halves,
    not_all,
    prepend_const,
    projection,
    shrink_chain,
    shrink_chain_pullback,
    swap_halves,
    values_at,
)
from .encodings import catalan_factorize, is_spanning_tree, prufer_width, tree_count
from .errors import CapabilityError, DomainError, IntegrityError
from .numerics import BitString, binomial, ceil_log2
from .problems import (
    ProblemId,
    ProblemInstance,
    Solution,
    make_solution,
    star_tree,
    verify,
)

__all__ = [
    "ENTRIES",
    "Entry",
    "Reduction",
    "apply",
    "build_entry",
    "build_reduction",
    "entry",
    "lookup",
    "pullback",
    "registry",
]

_MAX_SIZE_SCAN = 64


@dataclass(frozen=True)
class Reduction:
    """A size-instantiated reduction: instance transform plus solution pull-back.

    ``name`` and ``index`` come from the entry's registry row;
    ``translate_many`` is the optional batch pull-back described above.
    """

    source: ProblemId
    target: ProblemId
    source_n: int
    target_n: int
    transform: Callable[[ProblemInstance], ProblemInstance]
    translate: Callable[[ProblemInstance, Solution], Solution]
    translate_many: Optional[Callable[[ProblemInstance, str, np.ndarray], list]] = None
    name: str = ""
    index: int = 0


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Entry:
    """One registry row, written by the entry's ``@entry`` declaration."""

    index: int
    name: str
    builder: Callable[..., Reduction]
    defaults: dict                # builder parameters with their defaults
    forbidden: tuple[str, ...]    # target tags the image provably avoids


ENTRIES: dict[int, Entry] = {}    # by index, declared in index order
_NAMED: dict[str, Entry] = {}


def entry(index: int, forbidden: tuple[str, ...] = ()):
    """Declare the decorated builder as registry entry ``index``."""

    def declare(builder: Callable[..., Reduction]) -> Callable[..., Reduction]:
        name = builder.__name__.removeprefix("_build_")
        if index != len(ENTRIES) + 1 or name in _NAMED:
            raise ValueError(f"entry {index} {name} is declared out of order or twice")
        defaults = {p.name: p.default for p in inspect.signature(builder).parameters.values()}
        ENTRIES[index] = _NAMED[name] = Entry(index, name, builder, defaults, forbidden)
        return builder

    return declare


def lookup(key: int | str) -> Entry:
    """The registry row with this index or name."""
    row = (ENTRIES if isinstance(key, int) else _NAMED).get(key)
    if row is None:
        raise DomainError(f"unknown reduction {key!r}")
    return row


def _build(row: Entry, params: dict) -> Reduction:
    return replace(row.builder(**params), name=row.name, index=row.index)


def build_reduction(name: str, **params) -> Reduction:
    return _build(lookup(name), params)


def build_entry(index: int, **overrides) -> Reduction:
    return _build(lookup(index), overrides)


def registry() -> list[tuple[int, str]]:
    return [(row.index, row.name) for row in ENTRIES.values()]


def apply(red: Reduction, inst: ProblemInstance) -> ProblemInstance:
    """Transform a source instance into a target instance."""
    if inst.pid != red.source:
        raise DomainError(f"{red.name} expects source {red.source}, got {inst.pid}")
    if inst.n != red.source_n:
        raise DomainError(f"{red.name} is built for source size {red.source_n}, got {inst.n}")
    wf = inst.wellformed_verdict
    if not wf:
        raise DomainError(f"source instance is malformed: {wf.reason}")
    out = red.transform(inst)
    return out


def pullback(red: Reduction, inst: ProblemInstance, sol: Solution,
             target: ProblemInstance = None) -> Solution:
    """Translate a verified target solution back to a verified source solution.

    Pass the already-transformed instance as ``target`` to skip rebuilding it
    when pulling back many solutions of the same instance.
    """
    tgt = target if target is not None else apply(red, inst)
    check = verify(tgt, sol)
    if not check:
        raise DomainError(f"target solution rejected: {check.reason}")
    try:
        result = red.translate(inst, sol)
    except IntegrityError as exc:
        raise IntegrityError(f"{red.name}: {exc}") from exc
    back = verify(inst, result)
    if not back:
        raise IntegrityError(
            f"{red.name}: pull-back emitted type {result.tag} but the source verifier "
            f"rejected it: {back.reason}"
        )
    return result


# ---------------------------------------------------------------------------
# shared pieces


def _narrow(x: BitString, m: int) -> BitString:
    if x.value >= (1 << m):
        raise IntegrityError(f"witness {x} lies outside the embedded {m}-bit range")
    return BitString(m, x.value)


def _halves(v: BitString) -> tuple[BitString, BitString]:
    h = v.width // 2
    return v[0:h], v[h:v.width]


def _and2() -> Circuit:
    return GateNet(2, (Gate("INPUT", 0), Gate("INPUT", 1), Gate("AND", 0, 1)), (2,))


def _wire(w_in: int, pattern: list) -> Circuit:
    """Rewire inputs into a fixed layout: each pattern item is a constant bit
    (0/1) or ("in", i) for input bit i."""
    gates = [Gate("INPUT", i) for i in range(w_in)]
    const_at = {}
    outs = []
    for item in pattern:
        if isinstance(item, tuple):
            outs.append(item[1])
        else:
            if item not in const_at:
                gates.append(Gate("CONST", item))
                const_at[item] = len(gates) - 1
            outs.append(const_at[item])
    return GateNet(w_in, tuple(gates), tuple(outs))


def _smallest_size(start: int, m: int, fits: Callable[[int], bool]) -> int:
    """The smallest target size n from ``start`` up to _MAX_SIZE_SCAN for which
    ``fits(n)`` holds, for a source of width m."""
    for n in range(start, _MAX_SIZE_SCAN + 1):
        if fits(n):
            return n
    raise CapabilityError(f"no target size under {_MAX_SIZE_SCAN} fits source width {m}")


def _chain_collision(pid: ProblemId, circuit: Circuit, w_in: int, w_out: int,
                     x: BitString, y: BitString) -> Solution:
    u, v = shrink_chain_pullback(circuit, w_in, w_out, x, y)
    return make_solution(pid, "ii", u, v)


class _Branches:
    """The groups of a batch pull-back, filled in the order of the scalar
    pull-back's branches: a row joins the first branch whose condition holds,
    and a row that ``drop`` takes, where the scalar pull-back raises, joins
    none."""

    def __init__(self, count: int):
        self.open = np.ones(count, dtype=bool)
        self.groups: list[tuple[str, np.ndarray, np.ndarray]] = []

    def take(self, cond, tag: str, *cols) -> None:
        idx = np.flatnonzero(self.open & cond)
        self.open[idx] = False
        if len(idx):
            rows = np.stack([np.broadcast_to(col, self.open.shape)[idx] for col in cols], axis=1)
            self.groups.append((tag, rows, idx))

    def drop(self, cond) -> None:
        self.open &= ~cond


def _every_row(sol: Solution, count: int) -> list:
    """One group sending every target row to the same source solution."""
    values = np.array([v.value for v in sol.values()], dtype=np.int64)
    return [(sol.tag, np.tile(values, (count, 1)), np.arange(count))]


def _chain_collisions_many(cprime: Circuit, w_in: int, w_out: int, a: np.ndarray,
                           b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Array form of ``shrink_chain_pullback`` over pairs (a[t], b[t]), stage
    by stage.  Returns the rows (u1, u2) of the stage collisions and the t of
    each; equal pairs and pairs that never meet have none."""
    m = cprime.in_width
    t = np.flatnonzero(a != b)
    a, b = a[t], b[t]
    found_u, found_t = [], []
    for w in range(w_in, w_out, -1):
        rest = w - m
        keep = (1 << rest) - 1
        u = np.stack([a >> rest, b >> rest], axis=1)
        y = values_at(cprime, u) << rest
        y1, y2 = y[:, 0] | (a & keep), y[:, 1] | (b & keep)
        met = y1 == y2
        found_u.append(u[met])
        found_t.append(t[met])
        t, a, b = t[~met], y1[~met], y2[~met]
    return np.concatenate(found_u), np.concatenate(found_t)


def _shrunk_entry(tgt: ProblemId, m: int, target_n: int, w_in: int, w_out: int,
                  finish: Callable[[Circuit], Circuit]) -> Reduction:
    """Entries 2, 5 and 14: the target circuit is ``finish`` of the
    shrink-chain compressor from w_in down to w_out bits.  Only collisions
    occur, and each replays through the same chain to a source collision."""
    src = ProblemId("weak_pigeon")

    def transform(inst: ProblemInstance) -> ProblemInstance:
        return ProblemInstance(tgt, target_n, finish(shrink_chain(inst.circuit, w_in, w_out)))

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        if sol.tag != "ii":
            raise IntegrityError(f"the compressed image avoids type {sol.tag}")
        return _chain_collision(src, inst.circuit, w_in, w_out, sol.get("x"), sol.get("y"))

    def translate_many(inst: ProblemInstance, tag: str, rows: np.ndarray) -> list:
        if tag != "ii":
            return []
        u, t = _chain_collisions_many(inst.circuit, w_in, w_out, rows[:, 0], rows[:, 1])
        return [("ii", u, t)]

    return Reduction(
        source=src, target=tgt,
        source_n=m, target_n=target_n,
        transform=transform, translate=translate, translate_many=translate_many,
    )


def _guarded_entry(tgt: ProblemId, m: int, target_n: int, width: int,
                   finish: Callable[[Circuit], Circuit], zero_tag: str,
                   thr: Optional[int] = None) -> Reduction:
    """Entries 3, 7 and 15: the target circuit is ``finish`` of the pigeon
    map embedded in ``width`` bits behind a guard at 2^m.

    A ``zero_tag`` witness is a zero of the map and a collision is a collision
    of the map.  With an overflow band from ``thr`` up, a collision with the
    band is a zero.
    """
    src = ProblemId("pigeon")
    lim = 1 << m

    def transform(inst: ProblemInstance) -> ProblemInstance:
        return ProblemInstance(tgt, target_n, finish(GuardPrefix(embed(inst.circuit, width), lim)))

    def zero(c: Circuit, x: BitString) -> Solution:
        if x.value >= lim or c.value_at(x.value) != 0:
            raise IntegrityError("zero-rank witness off the zeros of the guarded map")
        return make_solution(src, "i", _narrow(x, m))

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        if sol.tag == zero_tag:
            return zero(inst.circuit, sol.get("x"))
        if sol.tag != "ii":
            raise IntegrityError(f"the guarded map's image avoids type {sol.tag}")
        x, y = sol.get("x"), sol.get("y")
        if thr is not None and y.value >= thr:
            return zero(inst.circuit, x)
        if x.value >= lim or y.value >= lim:
            raise IntegrityError("collision touched the guarded region")
        return make_solution(src, "ii", _narrow(x, m), _narrow(y, m))

    return Reduction(
        source=src, target=tgt,
        source_n=m, target_n=target_n,
        transform=transform, translate=translate,
    )


def _identity_above(src: ProblemId, n: int, thr: int, rank: Callable[[Circuit], Circuit],
                    zero, pair) -> Reduction:
    """Entries 4, 8, 12 and 16: a pigeon map on ceil_log2(thr) bits, ``rank``
    of the source circuit below ``thr`` and the identity from ``thr`` up.

    Tag i is a zero below ``thr``, pulled back by ``zero(circuit, x)``; any
    other tag is a collision below ``thr``, pulled back by
    ``pair(circuit, x, y)``.
    """
    tgt = ProblemId("pigeon")
    w = ceil_log2(thr)

    def transform(inst: ProblemInstance) -> ProblemInstance:
        cp = Piecewise((Case(rank(inst.circuit), 0, thr), Case(identity(w), 0, 1 << w)))
        return ProblemInstance(tgt, w, cp)

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        x = sol.get("x")
        if sol.tag == "i":
            if x.value >= thr:
                raise IntegrityError("identity region mapped to zero")
            return zero(inst.circuit, x)
        y = sol.get("y")
        if x.value >= thr or y.value >= thr:
            raise IntegrityError("collision touched the identity region")
        return pair(inst.circuit, x, y)

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=w,
        transform=transform, translate=translate,
    )


def _ranked_pairs(src: ProblemId, tgt: ProblemId, n: int, target_n: int,
                  rank: Callable[[Circuit], Circuit], pair, pairs_many) -> Reduction:
    """Entries 1, 6, 9, 10 and 13: the target circuit is ``rank`` of the
    source circuit, and every target solution is a pair (x, y) read back
    through the source circuit by ``pair(circuit, x, y)``, or in batches by
    its array form ``pairs_many(circuit, rows)``."""

    def transform(inst: ProblemInstance) -> ProblemInstance:
        return ProblemInstance(tgt, target_n, rank(inst.circuit))

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        return pair(inst.circuit, sol.get("x"), sol.get("y"))

    def translate_many(inst: ProblemInstance, tag: str, rows: np.ndarray) -> list:
        return pairs_many(inst.circuit, rows)

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=target_n,
        transform=transform, translate=translate, translate_many=translate_many,
    )


def _lone_set(src: ProblemId, n: int, c: Circuit, x: BitString) -> Solution:
    """A single set witness: tag i when its image is not an n-set, else iv."""
    return make_solution(src, "i" if c.eval(x).weight != n else "iv", x)


def _same_first(s: BitString, t: BitString) -> bool:
    return s.bit(0) == t.bit(0)


def _set_pair(src: ProblemId, n: int, same_class, c: Circuit,
              x: BitString, y: BitString) -> Solution:
    """A rank collision of two set images (entries 1, 4, 6 and 8): an image
    that is not an n-set gives tag i; otherwise ``same_class`` of the two
    sets gives ii, and sets of different classes give iii."""
    sx, sy = c.eval(x), c.eval(y)
    if sx.weight != n:
        return make_solution(src, "i", x)
    if sy.weight != n:
        return make_solution(src, "i", y)
    return make_solution(src, "ii" if same_class(sx, sy) else "iii", x, y)


def _set_pairs_many(n: int, same_class, c: Circuit, rows: np.ndarray) -> list:
    """Array form of ``_set_pair`` over rows (x, y); ``same_class`` compares
    two arrays of set images elementwise."""
    s = values_at(c, rows)
    weight = _popcount(s)
    x, y = rows.T
    g = _Branches(len(rows))
    g.take(weight[:, 0] != n, "i", x)
    g.take(weight[:, 1] != n, "i", y)
    g.take(same_class(s[:, 0], s[:, 1]), "ii", x, y)
    g.take(True, "iii", x, y)
    return g.groups


def _dispatch_by_first_bit(c_sets: Circuit, m: int) -> Circuit:
    """Rank half-size set images through the cover codec, complementing sets
    that contain the first ground element so both kinds land on low ranks.

    Dropping the top rank bit is lossless: avoiding-first-element ranks fit
    in one bit less than the full rank width.
    """
    enc = Builtin("cover_encode", k=m // 2, m=m)
    enc_w = enc.out_width
    rank_direct = Slice(Compose(enc, c_sets), 1, enc_w)
    rank_flipped = Slice(Compose(enc, Compose(not_all(m), c_sets)), 1, enc_w)
    pred = Compose(projection(m, [0]), c_sets)
    return Piecewise((
        Case(rank_flipped, pred=pred),
        Case(rank_direct, 0, 1 << c_sets.in_width),
    ))


def _doubled_domain(c: Circuit, n: int, w: int) -> Circuit:
    """Double the w-bit domain of a 2n-bit set map: flag bit w selects the
    complemented copy."""
    core = Compose(c, projection(w + 1, range(w)))
    flag = projection(w + 1, [w])
    return Piecewise((
        Case(Compose(not_all(2 * n), core), pred=flag),
        Case(core, 0, 1 << (w + 1)),
    ))


def _doubled_pair(src: ProblemId, n: int, w: int, c: Circuit,
                  x: BitString, y: BitString) -> Solution:
    """An antichain violation on the doubled domain (entries 9 and 11).

    A plain u below a complemented v is a disjoint pair outright (tag iii).
    Otherwise an image that is not an n-set gives i, and the pair is ii within
    one copy and iii across the copies.
    """
    u, v = x[0:w], y[0:w]
    bu, bv = x.bit(w), y.bit(w)
    su, sv = c.eval(u), c.eval(v)
    if (bu, bv) == (0, 1):
        return make_solution(src, "iii", u, v)
    if su.weight != n:
        return make_solution(src, "i", u)
    if sv.weight != n:
        return make_solution(src, "i", v)
    return make_solution(src, "ii" if bu == bv else "iii", u, v)


def _doubled_pairs_many(n: int, c: Circuit, rows: np.ndarray) -> list:
    """Array form of ``_doubled_pair`` over rows (x, y) of (w + 1)-bit
    witnesses: u = x >> 1 and the flag is x & 1."""
    u, flag = rows >> 1, rows & 1
    weight = _popcount(values_at(c, u))
    (ux, uy), (bx, by) = u.T, flag.T
    g = _Branches(len(rows))
    g.take((bx == 0) & (by == 1), "iii", ux, uy)
    g.take(weight[:, 0] != n, "i", ux)
    g.take(weight[:, 1] != n, "i", uy)
    g.take(bx == by, "ii", ux, uy)
    g.take(True, "iii", ux, uy)
    return g.groups


def _chain_pair(src: ProblemId, factor, c: Circuit, x: BitString, y: BitString) -> Solution:
    """A collision of chain-representative ranks (entries 10 and 12): both
    images factor to one matched form, so the lower level is contained in
    the higher (tag i, lower first)."""
    fx, kx = factor(c.eval(x))
    fy, ky = factor(c.eval(y))
    if fx != fy:
        raise IntegrityError("representative collision across different matched forms")
    if kx <= ky:
        return make_solution(src, "i", x, y)
    return make_solution(src, "i", y, x)


def _chain_pairs_many(c: Circuit, rows: np.ndarray) -> list:
    """Array form of ``_chain_pair`` with ``catalan_factorize`` (entry 10)
    over rows (x, y): the factorization runs once per distinct image, and a
    row whose two images factor to different matched forms is in no group."""
    s = values_at(c, rows)
    values, inverse = np.unique(s.ravel(), return_inverse=True)
    forms: dict[str, int] = {}
    form_of, level_of = np.empty((2, len(values)), dtype=np.int64)
    for i, v in enumerate(values.tolist()):
        form, level = catalan_factorize(BitString(c.out_width, v))
        form_of[i], level_of[i] = forms.setdefault(form, len(forms)), level
    f, k = (a[inverse].reshape(s.shape) for a in (form_of, level_of))
    x, y = rows.T
    g = _Branches(len(rows))
    g.drop(f[:, 0] != f[:, 1])
    g.take(k[:, 0] <= k[:, 1], "i", x, y)
    g.take(True, "i", y, x)
    return g.groups


def _tree_pair(src: ProblemId, n: int, c: Circuit, x: BitString, y: BitString) -> Solution:
    """A rank collision of two edge maps (entries 13 and 16): an image that
    is not a spanning tree gives tag i; two trees share a rank only when they
    are equal (tag ii)."""
    sx, sy = c.eval(x), c.eval(y)
    if not is_spanning_tree(n, sx):
        return make_solution(src, "i", x)
    if not is_spanning_tree(n, sy):
        return make_solution(src, "i", y)
    if sx != sy:
        raise IntegrityError("rank collision on two trees")
    return make_solution(src, "ii", x, y)


def _tree_pairs_many(n: int, c: Circuit, rows: np.ndarray) -> list:
    """Array form of ``_tree_pair`` over rows (x, y): two distinct trees with
    one rank are in no group."""
    s = values_at(c, rows)
    tree = _tree_mask(n, s.ravel()).reshape(s.shape)
    x, y = rows.T
    g = _Branches(len(rows))
    g.take(~tree[:, 0], "i", x)
    g.take(~tree[:, 1], "i", y)
    g.drop(s[:, 0] != s[:, 1])
    g.take(True, "ii", x, y)
    return g.groups


# ---------------------------------------------------------------------------
# entries 1-4: intersecting-family collisions vs pigeonhole


@entry(1)
def _build_weak_ekr_to_weak_pigeon(n: int = 2) -> Reduction:
    """Rank sets through the cover codec, folding complements onto the same rank."""
    src = ProblemId("weak_ekr")
    alpha = ceil_log2(binomial(2 * n, n))

    def same_first(s: np.ndarray, t: np.ndarray) -> np.ndarray:
        return (s >> (2 * n - 1)) == (t >> (2 * n - 1))

    return _ranked_pairs(src, ProblemId("weak_pigeon"), n, alpha - 1,
                         lambda c: _dispatch_by_first_bit(c, 2 * n),
                         partial(_set_pair, src, n, _same_first),
                         partial(_set_pairs_many, n, same_first))


@entry(2, forbidden=("i", "iii"))
def _build_weak_pigeon_to_weak_ekr(m: int = 2) -> Reduction:
    """Shrink the compressor two bits, then decode ranks into disjoint-free sets."""
    n = _smallest_size(2, m, lambda n: binomial(2 * n, n) >= 1 << (m + 1))
    # C(2n, n) is never a power of two for n >= 2, so alpha >= m + 2
    alpha = ceil_log2(binomial(2 * n, n))
    return _shrunk_entry(ProblemId("weak_ekr"), m, n, alpha, alpha - 2,
                         lambda c: Compose(Builtin("cover_decode", k=n, m=2 * n), PadLeft(c, 2)))


@entry(3, forbidden=("i", "iii"))
def _build_pigeon_to_ekr(m: int = 2) -> Reduction:
    """Embed the map below the avoiding-first-element rank threshold."""
    n = _smallest_size(2, m, lambda n: binomial(2 * n - 1, n - 1) > 1 << m)
    rank_w = ceil_log2(binomial(2 * n - 1, n - 1))
    return _guarded_entry(ProblemId("ekr"), m, n, rank_w,
                          lambda c: Compose(Builtin("cover_decode", k=n, m=2 * n), PadLeft(c, 1)),
                          "iv")


@entry(4)
def _build_ekr_to_pigeon(n: int = 2) -> Reduction:
    """Cover ranks with complement folding; identity off the rank range."""
    src = ProblemId("ekr")
    return _identity_above(src, n, binomial(2 * n - 1, n - 1),
                           lambda c: _dispatch_by_first_bit(c, 2 * n),
                           partial(_lone_set, src, n), partial(_set_pair, src, n, _same_first))


# ---------------------------------------------------------------------------
# entries 5-8: the k-wise variants


@entry(5, forbidden=("i", "iii"))
def _build_weak_pigeon_to_weak_gekr(m: int = 2, k: int = 3) -> Reduction:
    """Shift shrunk ranks into the top band whose sets share the first element."""
    tgt = ProblemId("weak_gekr", k=k)
    a = ceil_log2(k)
    n = _smallest_size(2, m, lambda n: ceil_log2(binomial(k * n, n)) >= m + a + 1)
    total = binomial(k * n, n)
    alpha = ceil_log2(total)
    gamma = ceil_log2(binomial(k * n - 1, n - 1))
    t = total - (1 << (alpha - 1 - a))

    def finish(shrunk: Circuit) -> Circuit:
        shifted = Compose(ConstOp("add", BitString(alpha, t)), PadLeft(shrunk, a + 1))
        return Compose(Builtin("cover_decode", k=n, m=k * n), shifted)

    return _shrunk_entry(tgt, m, n, gamma + 1, alpha - 1 - a, finish)


@entry(6)
def _build_weak_gekr_to_weak_pigeon(n: int = 2, k: int = 3) -> Reduction:
    """Classify sets by their partition class; distinct blocks of one class are disjoint."""
    src = ProblemId("weak_gekr", k=k)
    gamma = ceil_log2(binomial(k * n - 1, n - 1))
    return _ranked_pairs(src, ProblemId("weak_pigeon"), n, gamma,
                         lambda c: Compose(Builtin("baranyai_class", k=k, n=n), c),
                         partial(_set_pair, src, n, operator.eq),
                         partial(_set_pairs_many, n, operator.eq))


@entry(7, forbidden=("i", "iii"))
def _build_pigeon_to_gekr(m: int = 2, k: int = 3) -> Reduction:
    """Reflect the map onto top ranks so every image contains the first element."""
    tgt = ProblemId("gekr", k=k)
    n = _smallest_size(2, m, lambda n: binomial(k * n - 1, n - 1) >= 1 << m)
    gamma = ceil_log2(binomial(k * n - 1, n - 1))
    total = binomial(k * n, n)
    alpha = ceil_log2(total)
    top = total - 1

    def finish(guarded: Circuit) -> Circuit:
        # rank = top - v, computed as ((~padded) + (top + 1)) mod 2^alpha
        padded = PadLeft(guarded, alpha - gamma)
        flipped = Compose(not_all(alpha), padded)
        ranked = Compose(ConstOp("add", BitString(alpha, (top + 1) % (1 << alpha))), flipped)
        return Compose(Builtin("cover_decode", k=n, m=k * n), ranked)

    return _guarded_entry(tgt, m, n, gamma, finish, "iv")


@entry(8)
def _build_gekr_to_pigeon(n: int = 2, k: int = 3) -> Reduction:
    """Partition classes below the class count; class zero is the canonical partition."""
    src = ProblemId("gekr", k=k)
    return _identity_above(src, n, binomial(k * n - 1, n - 1),
                           lambda c: Compose(Builtin("baranyai_class", k=k, n=n), c),
                           partial(_lone_set, src, n), partial(_set_pair, src, n, operator.eq))


# ---------------------------------------------------------------------------
# entries 9-12: antichain problems


@entry(9)
def _build_weak_ekr_to_weak_sperner(n: int = 2) -> Reduction:
    """Double the domain; the flag bit selects the complemented copy."""
    src = ProblemId("weak_ekr")
    alpha = ceil_log2(binomial(2 * n, n))
    return _ranked_pairs(src, ProblemId("weak_sperner"), n, n,
                         lambda c: _doubled_domain(c, n, alpha),
                         partial(_doubled_pair, src, n, alpha), partial(_doubled_pairs_many, n))


@entry(10)
def _build_weak_sperner_to_weak_pigeon(n: int = 2) -> Reduction:
    """Rank the symmetric-chain representative; same chain yields containment."""
    src = ProblemId("weak_sperner")
    alpha = ceil_log2(binomial(2 * n, n))

    def rank(c: Circuit) -> Circuit:
        rep = Builtin("chain_rep", n=n)
        return Compose(Builtin("cover_encode", k=n, m=2 * n), Compose(rep, c))

    return _ranked_pairs(src, ProblemId("weak_pigeon"), n, alpha, rank,
                         partial(_chain_pair, src, catalan_factorize), _chain_pairs_many)


@entry(11)
def _build_ekr_to_sperner(n: int = 2) -> Reduction:
    """Tight-width domain doubling with a complemented upper copy."""
    src = ProblemId("ekr")
    tgt = ProblemId("sperner")
    rank_w = ceil_log2(binomial(2 * n - 1, n - 1))
    thr = binomial(2 * n - 1, n - 1)

    def transform(inst: ProblemInstance) -> ProblemInstance:
        return ProblemInstance(tgt, n, _doubled_domain(inst.circuit, n, rank_w))

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        x = sol.get("x")
        if sol.tag == "ii":
            u = x[0:rank_w]
            if u.value >= thr:
                raise IntegrityError("witness outside the doubled domain")
            return _lone_set(src, n, inst.circuit, u)
        return _doubled_pair(src, n, rank_w, inst.circuit, x, sol.get("y"))

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=n,
        transform=transform, translate=translate,
    )


@entry(12)
def _build_sperner_to_pigeon(n: int = 2) -> Reduction:
    """Conjugated chain representative; zero rank forces the bottom extremal set."""
    src = ProblemId("sperner")

    def rank(c: Circuit) -> Circuit:
        sigma = swap_halves(2 * n)
        rep = Compose(sigma, Compose(Builtin("chain_rep", n=n), sigma))
        return Compose(Builtin("cover_encode", k=n, m=2 * n), Compose(rep, c))

    def conj_factor(v: BitString):
        h1, h2 = _halves(v)
        return catalan_factorize(h2.concat(h1))

    return _identity_above(src, n, binomial(2 * n, n), rank,
                           lambda c, x: make_solution(src, "ii", x),
                           partial(_chain_pair, src, conj_factor))


# ---------------------------------------------------------------------------
# entries 13-16: labeled-tree problems


@entry(13)
def _build_weak_cayley_to_weak_pigeon(n: int = 3) -> Reduction:
    """Rank edge maps through the tree codec; non-trees clamp to rank zero."""
    src = ProblemId("weak_cayley")
    return _ranked_pairs(src, ProblemId("weak_pigeon"), n, prufer_width(n),
                         lambda c: Compose(Builtin("prufer_encode", n=n), c),
                         partial(_tree_pair, src, n), partial(_tree_pairs_many, n))


@entry(14, forbidden=("i",))
def _build_weak_pigeon_to_weak_cayley(m: int = 2) -> Reduction:
    """Shrink one bit and decode low tree ranks; images are always trees."""
    n = _smallest_size(3, m, lambda n: tree_count(n) >= 1 << (m + 1))
    beta = prufer_width(n)
    return _shrunk_entry(ProblemId("weak_cayley"), m, n, beta + 1, beta - 1,
                         lambda c: Compose(Builtin("prufer_decode", n=n), PadLeft(c, 1)))


@entry(15, forbidden=("i",))
def _build_pigeon_to_cayley(m: int = 2) -> Reduction:
    """Decode guarded ranks as trees; the overflow band pins the star tree."""
    n = _smallest_size(3, m, lambda n: tree_count(n) >= 1 << m)
    thr = tree_count(n)
    beta = prufer_width(n)

    def finish(guarded: Circuit) -> Circuit:
        decode = Compose(Builtin("prufer_decode", n=n), guarded)
        return Piecewise((
            Case(decode, 0, thr),
            Case(const_circuit(star_tree(n), in_width=beta), 0, 1 << beta),
        ))

    return _guarded_entry(ProblemId("cayley"), m, n, beta, finish, "iii", thr)


@entry(16)
def _build_cayley_to_pigeon(n: int = 3) -> Reduction:
    """Tree ranks below the tree count; rank zero names the star tree."""
    src = ProblemId("cayley")

    def zero(c: Circuit, x: BitString) -> Solution:
        sx = c.eval(x)
        if not is_spanning_tree(n, sx):
            return make_solution(src, "i", x)
        if sx != star_tree(n):
            raise IntegrityError("tree off the zero rank mapped to zero")
        return make_solution(src, "iii", x)

    return _identity_above(src, n, tree_count(n),
                           lambda c: Compose(Builtin("prufer_encode", n=n), c),
                           zero, partial(_tree_pair, src, n))


# ---------------------------------------------------------------------------
# entries 17-21: symmetric colorings and triangle search


def _ws_abc(n: int) -> tuple[BitString, BitString, BitString]:
    return (BitString(2 * n, 0), BitString(2 * n, (1 << (2 * n)) - 1), BitString(2 * n, 1))


def _sorted_cat(u: BitString, v: BitString) -> BitString:
    return u.concat(v) if u.value <= v.value else v.concat(u)


@entry(17, forbidden=("ii",))
def _build_weak_pigeon_to_ws_collisions(m: int = 2) -> Reduction:
    """Symmetrized chain compressor colors pairs; any solution yields a chain collision."""
    src = ProblemId("weak_pigeon")
    tgt = ProblemId("ws_collisions")
    n = m
    abc = _ws_abc(n)

    def transform(inst: ProblemInstance) -> ProblemInstance:
        shrunk = shrink_chain(inst.circuit, 4 * n, n)
        swapped = Compose(shrunk, swap_halves(4 * n))
        cp = Piecewise((Case(shrunk, pred=le_halves(4 * n)), Case(swapped, 0, 1 << (4 * n))))
        return ProblemInstance(tgt, n, cp, abc=abc)

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        a, b, c = abc
        if sol.tag == "i":
            return _chain_collision(src, inst.circuit, 4 * n, n,
                                    _sorted_cat(a, b), _sorted_cat(a, c))
        if sol.tag == "iii":
            x, y, z = sol.get("x"), sol.get("y"), sol.get("z")
            return _chain_collision(src, inst.circuit, 4 * n, n,
                                    _sorted_cat(x, y), _sorted_cat(y, z))
        if sol.tag == "iv":
            x, y, z = sol.get("x"), sol.get("y"), sol.get("z")
            x2, y2, z2 = sol.get("x2"), sol.get("y2"), sol.get("z2")
            for (u, v), (p, q) in (((x, y), (x2, y2)), ((x, z), (x2, z2)), ((y, z), (y2, z2))):
                e1, e2 = _sorted_cat(u, v), _sorted_cat(p, q)
                if e1 != e2:
                    return _chain_collision(src, inst.circuit, 4 * n, n, e1, e2)
            raise IntegrityError("matching triangles share every edge")
        raise IntegrityError("the built coloring is symmetric, type ii cannot occur")

    def translate_many(inst: ProblemInstance, tag: str, rows: np.ndarray) -> list:
        w = 2 * n

        def edge(u, v):
            return np.where(u <= v, (u << w) | v, (v << w) | u)

        a, b, c = (v.value for v in abc)
        kept = np.arange(len(rows))
        if tag == "i":
            e1, e2 = np.full(len(rows), edge(a, b)), np.full(len(rows), edge(a, c))
        elif tag == "iii":
            e1, e2 = edge(rows[:, 0], rows[:, 1]), edge(rows[:, 1], rows[:, 2])
        elif tag == "iv":
            # the first of the three edge pairs whose two edges differ
            first = np.stack([edge(rows[:, i], rows[:, j]) for i, j in ((0, 1), (0, 2), (1, 2))], axis=1)
            second = np.stack([edge(rows[:, i], rows[:, j]) for i, j in ((3, 4), (3, 5), (4, 5))], axis=1)
            differ = first != second
            at = (kept, differ.argmax(axis=1))
            kept = np.flatnonzero(differ.any(axis=1))
            e1, e2 = first[at][kept], second[at][kept]
        else:
            return []
        u, t = _chain_collisions_many(inst.circuit, 4 * n, n, e1, e2)
        return [("ii", u, kept[t])]

    return Reduction(
        source=src, target=tgt,
        source_n=m, target_n=n,
        transform=transform, translate=translate, translate_many=translate_many,
    )


def _identity_entry(src_name: str, tgt_name: str, n: int) -> Reduction:
    """Entries 18 and 19: the instance carries over unchanged, and so does
    every target solution."""
    src = ProblemId(src_name)
    tgt = ProblemId(tgt_name)

    def transform(inst: ProblemInstance) -> ProblemInstance:
        return ProblemInstance(tgt, n, inst.circuit, abc=inst.abc)

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        return make_solution(src, sol.tag, *sol.values())

    def translate_many(inst: ProblemInstance, tag: str, rows: np.ndarray) -> list:
        return [(tag, rows, np.arange(len(rows)))]

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=n,
        transform=transform, translate=translate, translate_many=translate_many,
    )


@entry(18)
def _build_ws_collisions_to_ws_colorful(n: int = 2) -> Reduction:
    """Identity on instances; colorful matching-triangle witnesses also match plainly."""
    return _identity_entry("ws_collisions", "ws_colorful", n)


@entry(19)
def _build_ws_colorful_to_ws(n: int = 2) -> Reduction:
    """Identity on instances; the three shared solution types carry over."""
    return _identity_entry("ws_colorful", "ws", n)


@entry(20)
def _build_ws_collisions_to_weak_pigeon(n: int = 5) -> Reduction:
    """Three prefix-tagged color probes; a probe collision matches two triangles."""
    if n < 5:
        raise CapabilityError("padding prefixes need n >= 5 to keep endpoints distinct")
    src = ProblemId("ws_collisions")
    tgt = ProblemId("weak_pigeon")
    w_in = 3 * n + 1

    def transform(inst: ProblemInstance) -> ProblemInstance:
        c = inst.circuit
        y_bits = [("in", i) for i in range(n + 3)]
        z_bits = [("in", i) for i in range(n + 3, 3 * n + 1)]
        pad_y = [1] * (n - 3)
        pad_z = [1, 0]
        zeros = [0] * (2 * n)
        asm_y = _wire(w_in, zeros + pad_y + y_bits)
        asm_z = _wire(w_in, zeros + pad_z + z_bits)
        asm_yz = _wire(w_in, pad_y + y_bits + pad_z + z_bits)
        cp = fanout([Compose(c, asm_y), Compose(c, asm_z), Compose(c, asm_yz)])
        return ProblemInstance(tgt, 3 * n, cp)

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        ones = BitString(n - 3, (1 << (n - 3)) - 1) if n > 3 else None
        two = BitString(2, 2)
        zero = BitString(2 * n, 0)

        def unpack(w: BitString) -> tuple[BitString, BitString]:
            yp = w[0:n + 3]
            zp = w[n + 3:3 * n + 1]
            y_full = ones.concat(yp) if ones is not None else yp
            z_full = two.concat(zp)
            return y_full, z_full

        x1, x2 = sol.get("x"), sol.get("y")
        ya, za = unpack(x1)
        yb, zb = unpack(x2)
        return make_solution(src, "iv", zero, ya, za, zero, yb, zb)

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=3 * n,
        transform=transform, translate=translate,
    )


def _ws_case_of(col, a: BitString, b: BitString, c: BitString, w: BitString) -> int:
    if w == a:
        return 1
    if w == b:
        return 2
    if w == c:
        return 3
    if col(w, b) == col(w, c) and col(w, b) == col(b, c):
        return 4
    return 5


def _sym_or_none(src: ProblemId, col, u: BitString, v: BitString) -> Optional[Solution]:
    if col(u, v) != col(v, u):
        return make_solution(src, "ii", u, v)
    return None


def _tri(src: ProblemId, x: BitString, y: BitString, z: BitString) -> Solution:
    return make_solution(src, "iii", x, y, z)


def _case4_collision(src: ProblemId, col, a: BitString, b: BitString, c: BitString,
                     x: BitString, y: BitString) -> Solution:
    """Both x and y sit in the uniform-probe case with equal color toward a."""
    xi = col(x, a)
    beta = col(b, c)
    tau = col(a, b)
    if xi == beta:
        sym = _sym_or_none(src, col, x, a)
        if sym:
            return sym
        if tau != xi:
            return _tri(src, a, x, b)
        return _tri(src, a, b, c)
    if xi == tau:
        return _tri(src, x, a, b)
    if beta == tau:
        sym = _sym_or_none(src, col, a, b)
        if sym:
            return sym
        return _tri(src, x, b, a)
    return make_solution(src, "iv", x, a, b, y, a, b)


def _case5_collision(src: ProblemId, col, a: BitString, b: BitString, c: BitString,
                     x: BitString, y: BitString) -> Solution:
    """Both x and y hit the ranked-pair case with equal encoded color pairs."""
    for w in (x, y):
        if col(w, b) == col(w, c):
            sym = _sym_or_none(src, col, w, b)
            if sym:
                return sym
            return _tri(src, b, w, c)
    pairs_x = (col(x, b), col(x, c))
    pairs_y = (col(y, b), col(y, c))
    if pairs_x == pairs_y:
        tri2 = (y, b, c)
    elif pairs_x == (pairs_y[1], pairs_y[0]):
        sym = _sym_or_none(src, col, b, c)
        if sym:
            return sym
        tri2 = (y, c, b)
    else:
        raise IntegrityError("ranked-pair collision with mismatched color pairs")
    if col(x, b) == col(b, c):
        return _tri(src, x, b, c)
    if col(x, c) == col(b, c):
        sym = _sym_or_none(src, col, b, c)
        if sym:
            return sym
        return _tri(src, x, c, b)
    return make_solution(src, "iv", x, b, c, *tri2)


def _ws_collision(src: ProblemId, inst: ProblemInstance, x: BitString, y: BitString,
                  specials: Optional[tuple[int, int, int]] = None) -> Solution:
    """Pull-back of a collision (x, y) of entries 21 and 27: ``_ws_case_of`` of
    both, then ``_case4_collision`` or ``_case5_collision``.  With ``specials``
    = (col(a,b), col(a,c), col(b,c)) (entry 27) a uniform-probe witness is
    first matched against the anchors' colors."""
    a, b, c = inst.abc
    col = partial(_color, inst)
    case_x = _ws_case_of(col, a, b, c, x)
    case_y = _ws_case_of(col, a, b, c, y)
    if case_x != case_y or case_x in (1, 2, 3):
        raise IntegrityError("collision across distinct image bands")
    if case_x == 5:
        return _case5_collision(src, col, a, b, c, x, y)
    if specials is not None:
        s_ab, s_ac, s_bc = specials
        for w in (x, y):
            xi = col(w, a)
            if xi == s_ab:
                return _tri(src, w, a, b)
            if xi == s_ac:
                return _tri(src, w, a, c)
            if xi == s_bc:
                return _sym_or_none(src, col, w, a) or _tri(src, a, w, b)
    if col(x, a) != col(y, a):
        raise IntegrityError("unequal probes in the uniform band")
    return _case4_collision(src, col, a, b, c, x, y)


def _ws_collisions_many(inst: ProblemInstance, rows: np.ndarray,
                        specials: Optional[tuple[int, int, int]] = None) -> list:
    """Array form of ``_ws_collision`` over rows (x, y), each row taking the
    branch the scalar pull-back takes.

    Every color read here, between x or y and an anchor or between two
    anchors, comes from one ``values_at`` call.
    """
    w = inst.abc[0].width
    v = dict(zip("abc", (np.full(len(rows), u.value) for u in inst.abc)), x=rows[:, 0], y=rows[:, 1])
    keys = [(p, q) for p in "xyabc" for q in "xyabc" if p != q and {p, q} != {"x", "y"}]
    colors = values_at(inst.circuit, np.stack([(v[p] << w) | v[q] for p, q in keys]))
    table = dict(zip(keys, colors))

    def col(p: str, q: str) -> np.ndarray:
        return table[p, q]

    def asym(p: str, q: str) -> np.ndarray:
        return col(p, q) != col(q, p)

    x, y, a, b, c = (v[k] for k in "xyabc")
    g = _Branches(len(rows))

    def case_of(p: str) -> np.ndarray:
        # 4 and 5 as in _ws_case_of; an anchor's cases 1-3 join no branch below
        anchor = (v[p] == a) | (v[p] == b) | (v[p] == c)
        uniform = (col(p, "b") == col(p, "c")) & (col(p, "b") == col("b", "c"))
        return np.where(anchor, 0, np.where(uniform, 4, 5))

    case = case_of("x")
    g.drop(case != case_of("y"))
    four, five = case == 4, case == 5
    if specials is not None:
        s_ab, s_ac, s_bc = specials
        for p in "xy":
            xi = col(p, "a")
            g.take(four & (xi == s_ab), "iii", v[p], a, b)
            g.take(four & (xi == s_ac), "iii", v[p], a, c)
            g.take(four & (xi == s_bc) & asym(p, "a"), "ii", v[p], a)
            g.take(four & (xi == s_bc), "iii", a, v[p], b)
    g.drop(four & (col("x", "a") != col("y", "a")))
    # _case4_collision
    xi, beta, tau = col("x", "a"), col("b", "c"), col("a", "b")
    g.take(four & (xi == beta) & asym("x", "a"), "ii", x, a)
    g.take(four & (xi == beta) & (tau != xi), "iii", a, x, b)
    g.take(four & (xi == beta), "iii", a, b, c)
    g.take(four & (xi == tau), "iii", x, a, b)
    g.take(four & (beta == tau) & asym("a", "b"), "ii", a, b)
    g.take(four & (beta == tau), "iii", x, b, a)
    g.take(four, "iv", x, a, b, y, a, b)
    # _case5_collision
    for p in "xy":
        same = col(p, "b") == col(p, "c")
        g.take(five & same & asym(p, "b"), "ii", v[p], b)
        g.take(five & same, "iii", b, v[p], c)
    straight = (col("x", "b") == col("y", "b")) & (col("x", "c") == col("y", "c"))
    crossed = ~straight & (col("x", "b") == col("y", "c")) & (col("x", "c") == col("y", "b"))
    g.drop(five & ~straight & ~crossed)
    g.take(five & crossed & asym("b", "c"), "ii", b, c)
    g.take(five & (col("x", "b") == beta), "iii", x, b, c)
    g.take(five & (col("x", "c") == beta) & asym("b", "c"), "ii", b, c)
    g.take(five & (col("x", "c") == beta), "iii", x, c, b)
    g.take(five, "iv", x, b, c, y, np.where(straight, b, c), np.where(straight, c, b))
    return g.groups


def _ws_bands(inst: ProblemInstance, anchor_values: tuple[int, int, int]):
    """Probe circuits of the band layouts of entries 21 and 27.

    Returns the cases that send the anchors a, b, c to ``anchor_values``, a
    vertex's color toward a, the lexpair rank of its colors toward b and c,
    and the predicate that both of those colors equal col(b, c).
    """
    a, b, c = inst.abc
    w = a.width
    n = w // 2
    colxa, colxb, colxc = (Compose(inst.circuit, append_const(w, v)) for v in inst.abc)
    anchors = tuple(
        Case(const_circuit(BitString(w, val), in_width=w), pred=eq_const(w, v.value))
        for v, val in zip(inst.abc, anchor_values)
    )
    uniform = Compose(_and2(), fanout([
        Compose(eq_halves(2 * n), fanout([colxb, colxc])),
        Compose(eq_const(n, _color(inst, b, c)), colxb),
    ]))
    ranked = Compose(Builtin("lexpair_encode", n=n), fanout([colxb, colxc]))
    return anchors, colxa, ranked, uniform


@entry(21)
def _build_ws_colorful_to_pigeon(n: int = 5) -> Reduction:
    """Rank each vertex by its colors toward the anchors; bands tile the whole codomain."""
    if n < 5:
        raise CapabilityError("image bands of the pair ranking overlap below n = 5")
    src = ProblemId("ws_colorful")
    tgt = ProblemId("pigeon")
    w = 2 * n

    def transform(inst: ProblemInstance) -> ProblemInstance:
        anchors, colxa, ranked, uniform = _ws_bands(
            inst, (7 << (w - 4), 1 << (w - 2), 3 << (w - 3)))
        branch4 = Compose(prepend_const(n, BitString(n, (1 << (n - 1)) - 1)), colxa)
        branch5 = Compose(prepend_const(w - 1, BitString(1, 1)), ranked)
        cp = Piecewise((*anchors, Case(branch4, pred=uniform), Case(branch5, 0, 1 << w)))
        return ProblemInstance(tgt, w, cp)

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        a, b, c = inst.abc
        if _color(inst, a, b) == _color(inst, a, c):
            return make_solution(src, "i")
        if sol.tag == "i":
            raise IntegrityError("the image avoids zero")
        return _ws_collision(src, inst, sol.get("x"), sol.get("y"))

    def translate_many(inst: ProblemInstance, tag: str, rows: np.ndarray) -> list:
        a, b, c = inst.abc
        if _color(inst, a, b) == _color(inst, a, c):
            return _every_row(make_solution(src, "i"), len(rows))
        return [] if tag == "i" else _ws_collisions_many(inst, rows)

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=w,
        transform=transform, translate=translate, translate_many=translate_many,
    )


# ---------------------------------------------------------------------------
# entries 22-26: triangle-free and clique-free graph bounds


@entry(22, forbidden=("i", "ii"))
def _build_weak_pigeon_to_weak_mantel(m: int = 2) -> Reduction:
    """Bipartite edge listing; only index collisions are possible and they compress."""
    src = ProblemId("weak_pigeon")
    tgt = ProblemId("weak_mantel")
    n = m + 1
    w_in = 2 * m + 1

    def transform(inst: ProblemInstance) -> ProblemInstance:
        first = projection(w_in, range(m + 1))
        second = projection(w_in, range(m + 1, w_in))
        h1 = Compose(prepend_const(m, BitString(1, 0)), Compose(inst.circuit, first))
        h2 = Compose(prepend_const(m, BitString(1, 1)), second)
        cp = fanout([h1, h2])
        return ProblemInstance(tgt, n, cp)

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        if sol.tag != "iii":
            raise IntegrityError(
                f"the bipartite edge map is injective on ordered inputs, "
                f"type {sol.tag} cannot occur"
            )
        i, j = sol.get("i"), sol.get("j")
        yi, yj = i[0:m + 1], j[0:m + 1]
        zi, zj = i[m + 1:w_in], j[m + 1:w_in]
        if zi != zj or yi == yj:
            raise IntegrityError("collision shape mismatch")
        return make_solution(src, "ii", yi, yj)

    def translate_many(inst: ProblemInstance, tag: str, rows: np.ndarray) -> list:
        if tag != "iii":
            return []
        y, z = rows >> m, rows & ((1 << m) - 1)
        kept = np.flatnonzero((z[:, 0] == z[:, 1]) & (y[:, 0] != y[:, 1]))
        return [("ii", y[kept], kept)]

    return Reduction(
        source=src, target=tgt,
        source_n=m, target_n=n,
        transform=transform, translate=translate, translate_many=translate_many,
    )


def _lex_shift_circuit(n: int) -> Circuit:
    lex = Builtin("lexpair_encode", n=n)
    shifted = Compose(ConstOp("add", BitString(2 * n - 1, 1)), lex)
    ge = Compose(le_halves(2 * n), swap_halves(2 * n))
    return Piecewise((
        Case(const_circuit(BitString(2 * n - 1, 0), in_width=2 * n), pred=ge),
        Case(shifted, 0, 1 << (2 * n)),
    ))


def _edge_translate(inst: ProblemInstance, sol: Solution) -> Solution:
    """Pull-back of the edge-ranking entries 23 and 26.

    Tag i is a zero of the ranking, which only a non-increasing endpoint pair
    reaches; a collision holds a non-increasing pair or one increasing pair
    listed twice.
    """
    src, c = inst.pid, inst.circuit
    if sol.tag == "i":
        (x,) = sol.values()
        u, v = _halves(c.eval(x))
        if u.value < v.value:
            raise IntegrityError("zero rank from an increasing pair")
        return make_solution(src, "ii", x)
    x, y = sol.values()
    ux, vx = _halves(c.eval(x))
    uy, vy = _halves(c.eval(y))
    if ux.value >= vx.value:
        return make_solution(src, "ii", x)
    if uy.value >= vy.value:
        return make_solution(src, "ii", y)
    if (ux, vx) != (uy, vy):
        raise IntegrityError("rank collision on distinct increasing pairs")
    return make_solution(src, "iii", x, y)


def _edge_translate_many(inst: ProblemInstance, tag: str, rows: np.ndarray) -> list:
    """Array form of ``_edge_translate``: a zero from an increasing pair and
    a collision of distinct increasing pairs are in no group."""
    h = inst.circuit.out_width // 2
    s = values_at(inst.circuit, rows)
    down = (s >> h) >= (s & ((1 << h) - 1))
    g = _Branches(len(rows))
    if tag == "i":
        g.take(down[:, 0], "ii", rows[:, 0])
        return g.groups
    x, y = rows.T
    g.take(down[:, 0], "ii", x)
    g.take(down[:, 1], "ii", y)
    g.drop(s[:, 0] != s[:, 1])
    g.take(True, "iii", x, y)
    return g.groups


def _edge_rank(src: ProblemId, n: int) -> Reduction:
    """Entries 23 and 26: rank each edge's endpoint pair by ``_lex_shift_circuit``."""
    tgt = ProblemId("pigeon")
    w = 2 * n - 1

    def transform(inst: ProblemInstance) -> ProblemInstance:
        cp = Compose(_lex_shift_circuit(n), inst.circuit)
        return ProblemInstance(tgt, w, cp)

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=w,
        transform=transform, translate=_edge_translate, translate_many=_edge_translate_many,
    )


@entry(23)
def _build_weak_mantel_to_pigeon(n: int = 2) -> Reduction:
    """Rank increasing endpoint pairs; decreasing pairs collapse to the low band."""
    return _edge_rank(ProblemId("weak_mantel"), n)


@entry(24, forbidden=("i", "ii"))
def _build_pigeon_to_mantel(m: int = 2) -> Reduction:
    """Split the image into bipartite endpoints; zero maps to the consecutive pair."""
    src = ProblemId("pigeon")
    tgt_m = m if m % 2 == 0 else m + 1
    n = tgt_m // 2 + 1
    tgt = ProblemId("mantel")
    w_in = 2 * n - 2  # == tgt_m

    def lift(inst: ProblemInstance) -> Circuit:
        if tgt_m == m:
            return inst.circuit
        return GuardPrefix(embed(inst.circuit, tgt_m), 1 << m)

    def transform(inst: ProblemInstance) -> ProblemInstance:
        c1 = lift(inst)
        half = n - 1
        u_a = (1 << half) - 1          # 01..1 in n bits
        v_a = 1 << half                # 10..0 in n bits
        val_a = (u_a << n) | v_a
        val_b_out = v_a                # 0..0 paired with 10..0
        val_b_key = u_a << half        # image value that selects the second branch
        branch_a = const_circuit(BitString(2 * n, val_a), in_width=w_in)
        branch_b = const_circuit(BitString(2 * n, val_b_out), in_width=w_in)
        pred_a = Compose(eq_const(tgt_m, 0), c1)
        pred_b = Compose(eq_const(tgt_m, val_b_key), c1)
        branch_c = fanout([
            Compose(prepend_const(half, BitString(1, 0)), Slice(c1, 0, half)),
            Compose(prepend_const(half, BitString(1, 1)), Slice(c1, half, 2 * half)),
        ])
        cp = Piecewise((
            Case(branch_a, pred=pred_a),
            Case(branch_b, pred=pred_b),
            Case(branch_c, 0, 1 << w_in),
        ))
        return ProblemInstance(tgt, n, cp)

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        c1 = lift(inst)
        if sol.tag == "iv":
            i = sol.get("i")
            if c1.eval(i).value != 0:
                raise IntegrityError("consecutive pair off the zero preimage")
            return make_solution(src, "i", _narrow(i, m))
        if sol.tag == "iii":
            i, j = sol.get("i"), sol.get("j")
            if c1.eval(i) != c1.eval(j):
                raise IntegrityError("edge collision without a map collision")
            return make_solution(src, "ii", _narrow(i, m), _narrow(j, m))
        raise IntegrityError(
            f"the edge map is bipartite and increasing, type {sol.tag} cannot occur"
        )

    return Reduction(
        source=src, target=tgt,
        source_n=m, target_n=n,
        transform=transform, translate=translate,
    )


@entry(25)
def _build_weak_turan_widen(n: int = 2, r1: int = 2, r2: int = 3) -> Reduction:
    """A larger forbidden clique is weaker; shrink found cliques to the corner."""
    if r1 > r2:
        raise CapabilityError("the clique bound can only be widened, need r1 <= r2")
    src = ProblemId("weak_turan", r=r1)
    tgt = ProblemId("weak_turan", r=r2)

    def transform(inst: ProblemInstance) -> ProblemInstance:
        return ProblemInstance(tgt, n, inst.circuit)

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        if sol.tag != "i":
            return make_solution(src, sol.tag, *sol.values())
        c = inst.circuit
        indices = sol.values()
        vertex_of = {}
        for idx in indices:
            u, v = _halves(c.eval(idx))
            vertex_of[idx] = (u.value, v.value)
        verts = sorted({p for pair in vertex_of.values() for p in pair})
        keep = set(verts[: r1 + 1])
        chosen = [idx for idx in indices if set(vertex_of[idx]) <= keep]
        chosen.sort(key=lambda b: b.value)
        want = (r1 + 1) * r1 // 2
        if len(chosen) != want:
            raise IntegrityError(
                f"expected {want} edges inside the kept corner, found {len(chosen)}"
            )
        return make_solution(src, "i", *chosen)

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=n,
        transform=transform, translate=translate,
    )


@entry(26)
def _build_weak_turan_to_pigeon(n: int = 2, r: int = 3) -> Reduction:
    """Same edge ranking as the triangle case; only the source clauses differ."""
    return _edge_rank(ProblemId("weak_turan", r=r), n)


# ---------------------------------------------------------------------------
# entry 27: entry 21's band layout shifted onto general pigeon


@entry(27)
def _build_ws_colorful_to_general_pigeon(n: int = 5) -> Reduction:
    """Band layout shifted to the top segment so only collisions remain."""
    if n < 5:
        raise CapabilityError("image bands of the pair ranking overlap below n = 5")
    src = ProblemId("ws_colorful")
    tgt_k = (1 << (2 * n - 1)) - (1 << (n - 1))
    tgt = ProblemId("general_pigeon", k=tgt_k)
    w = 2 * n

    def special_colors(inst: ProblemInstance) -> tuple[int, int, int]:
        a, b, c = inst.abc
        return _color(inst, a, b), _color(inst, a, c), _color(inst, b, c)

    def transform(inst: ProblemInstance) -> ProblemInstance:
        anchors, colxa, ranked, uniform = _ws_bands(inst, (tgt_k, tgt_k + 1, tgt_k + 2))
        specials = sorted(set(special_colors(inst)))
        rows = []
        for v in range(1 << n):
            if v in specials:
                rows.append(0)
            else:
                shift = sum(1 for s in specials if s < v)
                rows.append(min(v - shift, (1 << n) - 4))
        ridx = Table(n, n, rows)
        branch4 = Compose(
            ConstOp("add", BitString(w, tgt_k + 3)),
            PadLeft(Compose(ridx, colxa), n),
        )
        branch5 = Compose(
            ConstOp("add", BitString(w, (1 << (2 * n - 1)) + (1 << (n - 1)))),
            PadLeft(ranked, 1),
        )
        cp = Piecewise((*anchors, Case(branch4, pred=uniform), Case(branch5, 0, 1 << w)))
        return ProblemInstance(tgt, w, cp)

    def settled(inst: ProblemInstance) -> Optional[Solution]:
        """The source solution of every target row when the anchors' own
        colors already give one."""
        a, b, c = inst.abc
        s_ab, s_ac, s_bc = special_colors(inst)
        if s_ab == s_ac:
            return make_solution(src, "i")
        if s_ab == s_bc:
            return _tri(src, a, b, c)
        if s_ac == s_bc:
            return _sym_or_none(src, partial(_color, inst), b, c) or _tri(src, a, c, b)
        return None

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        done = settled(inst)
        if done is not None:
            return done
        if sol.tag == "ii":
            raise IntegrityError("images all sit at or above k")
        return _ws_collision(src, inst, sol.get("x"), sol.get("y"), special_colors(inst))

    def translate_many(inst: ProblemInstance, tag: str, rows: np.ndarray) -> list:
        done = settled(inst)
        if done is not None:
            return _every_row(done, len(rows))
        return [] if tag == "ii" else _ws_collisions_many(inst, rows, special_colors(inst))

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=w,
        transform=transform, translate=translate, translate_many=translate_many,
    )
