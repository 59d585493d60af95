"""Constructive reductions between the catalog problems.

Each registry entry pairs an instance transform, assembled from circuit
combinators and codec blocks, with a total solution pull-back that mirrors the
transform's case analysis.  ``pullback`` verifies the supplied target solution
before translating it and verifies the translated source solution before
returning it, so a defect in either direction surfaces as a loud integrity
failure, prefixed with the entry's name, instead of a silently wrong answer.

The registry is the ordered table ``ENTRIES``.  To add an entry, write one
builder ``_build_<name>(<size parameters with defaults>) -> Reduction`` after
the builder of the previous index and declare it with ``@entry(index)``.  The
declaration is the only place that holds the entry's index, its name (the
builder's name without ``_build_``), its default parameters (the builder's
signature) and, as ``forbidden=``, the target solution tags its image provably
avoids, which the fuzz harness asserts.  Pull-backs that repeat a case
analysis (set pairs, doubled domains, chain representatives, trees, guarded
maps, identity regions, edge ranks) share one helper for it.

Size parameters that must satisfy a counting side condition (for example
"the target codomain must be at least twice the source codomain") are found
by a linear scan from the smallest legal size; the chosen size and thresholds
are recorded on the returned ``Reduction``.
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional

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
)
from .encodings import catalan_factorize, is_spanning_tree
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

    ``name`` and ``index`` come from the entry's registry row.
    """

    source: ProblemId
    target: ProblemId
    source_n: int
    target_n: int
    params: dict = field(default_factory=dict)
    transform: Callable[[ProblemInstance], ProblemInstance] = None
    translate: Callable[[ProblemInstance, Solution], Solution] = None
    note: str = ""
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


def _cover_encode(n: int, m: int) -> Circuit:
    return Builtin("cover_encode", k=n, m=m)


def _cover_decode(n: int, m: int) -> Circuit:
    return Builtin("cover_decode", k=n, m=m)


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


def _chain_collision(pid: ProblemId, circuit: Circuit, w_in: int, w_out: int,
                     x: BitString, y: BitString) -> Solution:
    u, v = shrink_chain_pullback(circuit, w_in, w_out, x, y)
    return make_solution(pid, "ii", u, v)


def _shrunk_pullback(src: ProblemId, w_in: int, w_out: int):
    """Pull-back of an image built on the shrink-chain compressor (entries 2,
    5 and 14): only collisions occur, and each replays to a source collision."""

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        if sol.tag != "ii":
            raise IntegrityError(f"the compressed image avoids type {sol.tag}")
        return _chain_collision(src, inst.circuit, w_in, w_out, sol.get("x"), sol.get("y"))

    return translate


def _guarded_map_pullback(src: ProblemId, m: int, zero_tag: str, thr: Optional[int] = None):
    """Pull-back of a pigeon map embedded below 2^m behind a guard (entries 3,
    7 and 15).

    A ``zero_tag`` witness is a zero of the map and a collision is a collision
    of the map.  With an overflow band from ``thr`` up, a collision with the
    band is a zero.
    """
    lim = 1 << m

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

    return translate


def _below_identity(thr: int, zero, pair):
    """Pull-back of a pigeon map that is the identity from rank ``thr`` up
    (entries 4, 8, 12 and 16).

    Tag i is a zero below ``thr``, pulled back by ``zero(circuit, x)``; any
    other tag is a collision below ``thr``, pulled back by
    ``pair(circuit, x, y)``.
    """

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

    return translate


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


def _dispatch_by_first_bit(c_sets: Circuit, m: int) -> Circuit:
    """Rank half-size set images through the cover codec, complementing sets
    that contain the first ground element so both kinds land on low ranks.

    Dropping the top rank bit is lossless: avoiding-first-element ranks fit
    in one bit less than the full rank width.
    """
    enc = _cover_encode(m // 2, m)
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


def _doubled_pair(src: ProblemId, n: int, c: Circuit, w: int,
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


# ---------------------------------------------------------------------------
# entries 1-4: intersecting-family collisions vs pigeonhole


@entry(1)
def _build_weak_ekr_to_weak_pigeon(n: int = 2) -> Reduction:
    src = ProblemId("weak_ekr")
    tgt = ProblemId("weak_pigeon")
    alpha = ceil_log2(binomial(2 * n, n))

    def transform(inst: ProblemInstance) -> ProblemInstance:
        cp = _dispatch_by_first_bit(inst.circuit, 2 * n)
        return ProblemInstance(tgt, alpha - 1, cp)

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        return _set_pair(src, n, _same_first, inst.circuit, sol.get("x"), sol.get("y"))

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=alpha - 1, params={"n": n, "alpha": alpha},
        transform=transform, translate=translate,
        note="rank sets through the cover codec, folding complements onto the same rank",
    )


@entry(2, forbidden=("i", "iii"))
def _build_weak_pigeon_to_weak_ekr(m: int = 2) -> Reduction:
    src = ProblemId("weak_pigeon")
    tgt = ProblemId("weak_ekr")
    n = 2
    while n <= _MAX_SIZE_SCAN and binomial(2 * n, n) < (1 << (m + 1)):
        n += 1
    if n > _MAX_SIZE_SCAN:
        raise CapabilityError(f"no target size under {_MAX_SIZE_SCAN} fits source width {m}")
    alpha = ceil_log2(binomial(2 * n, n))
    if alpha < m + 2:
        raise CapabilityError("compression chain needs two spare rank bits")

    def transform(inst: ProblemInstance) -> ProblemInstance:
        shrunk = shrink_chain(inst.circuit, alpha, alpha - 2)
        cp = Compose(_cover_decode(n, 2 * n), PadLeft(shrunk, 2))
        return ProblemInstance(tgt, n, cp)

    return Reduction(
        source=src, target=tgt,
        source_n=m, target_n=n, params={"m": m, "n": n, "alpha": alpha},
        transform=transform, translate=_shrunk_pullback(src, alpha, alpha - 2),
        note="shrink the compressor two bits, then decode ranks into disjoint-free sets",
    )


@entry(3)
def _build_pigeon_to_ekr(m: int = 2) -> Reduction:
    src = ProblemId("pigeon")
    tgt = ProblemId("ekr")
    n = 2
    while n <= _MAX_SIZE_SCAN and binomial(2 * n - 1, n - 1) <= (1 << m):
        n += 1
    if n > _MAX_SIZE_SCAN:
        raise CapabilityError(f"no target size under {_MAX_SIZE_SCAN} fits source width {m}")
    thr = binomial(2 * n - 1, n - 1)
    rank_w = ceil_log2(thr)

    def transform(inst: ProblemInstance) -> ProblemInstance:
        guarded = GuardPrefix(embed(inst.circuit, rank_w), 1 << m)
        cp = Compose(_cover_decode(n, 2 * n), PadLeft(guarded, 1))
        return ProblemInstance(tgt, n, cp)

    return Reduction(
        source=src, target=tgt,
        source_n=m, target_n=n, params={"m": m, "n": n, "threshold": thr},
        transform=transform, translate=_guarded_map_pullback(src, m, "iv"),
        note="embed the map below the avoiding-first-element rank threshold",
    )


@entry(4)
def _build_ekr_to_pigeon(n: int = 2) -> Reduction:
    src = ProblemId("ekr")
    tgt = ProblemId("pigeon")
    thr = binomial(2 * n - 1, n - 1)
    rank_w = ceil_log2(thr)

    def transform(inst: ProblemInstance) -> ProblemInstance:
        ranked = _dispatch_by_first_bit(inst.circuit, 2 * n)
        cp = Piecewise((Case(ranked, 0, thr), Case(identity(rank_w), 0, 1 << rank_w)))
        return ProblemInstance(tgt, rank_w, cp)

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=rank_w, params={"n": n, "threshold": thr},
        transform=transform,
        translate=_below_identity(thr, partial(_lone_set, src, n),
                                  partial(_set_pair, src, n, _same_first)),
        note="cover ranks with complement folding; identity off the rank range",
    )


# ---------------------------------------------------------------------------
# entries 5-8: the k-wise variants


@entry(5, forbidden=("i", "iii"))
def _build_weak_pigeon_to_weak_gekr(m: int = 2, k: int = 3) -> Reduction:
    src = ProblemId("weak_pigeon")
    tgt = ProblemId("weak_gekr", k=k)
    a = ceil_log2(k)
    n = 2
    while n <= _MAX_SIZE_SCAN:
        total = binomial(k * n, n)
        alpha = ceil_log2(total)
        if total >= (1 << (m + 1)) and alpha >= m + a + 1:
            break
        n += 1
    if n > _MAX_SIZE_SCAN:
        raise CapabilityError(f"no target size under {_MAX_SIZE_SCAN} fits source width {m}")
    total = binomial(k * n, n)
    alpha = ceil_log2(total)
    gamma = ceil_log2(binomial(k * n - 1, n - 1))
    t = total - (1 << (alpha - 1 - a))

    def transform(inst: ProblemInstance) -> ProblemInstance:
        shrunk = shrink_chain(inst.circuit, gamma + 1, alpha - 1 - a)
        shifted = Compose(ConstOp("add", BitString(alpha, t)), PadLeft(shrunk, a + 1))
        cp = Compose(_cover_decode(n, k * n), shifted)
        return ProblemInstance(tgt, n, cp)

    return Reduction(
        source=src, target=tgt,
        source_n=m, target_n=n, params={"m": m, "k": k, "n": n, "shift": t},
        transform=transform, translate=_shrunk_pullback(src, gamma + 1, alpha - 1 - a),
        note="shift shrunk ranks into the top band whose sets share the first element",
    )


@entry(6)
def _build_weak_gekr_to_weak_pigeon(n: int = 2, k: int = 3) -> Reduction:
    src = ProblemId("weak_gekr", k=k)
    tgt = ProblemId("weak_pigeon")
    gamma = ceil_log2(binomial(k * n - 1, n - 1))

    def transform(inst: ProblemInstance) -> ProblemInstance:
        cp = Compose(Builtin("baranyai_class", k=k, n=n), inst.circuit)
        return ProblemInstance(tgt, gamma, cp)

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        return _set_pair(src, n, operator.eq, inst.circuit, sol.get("x"), sol.get("y"))

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=gamma, params={"n": n, "k": k},
        transform=transform, translate=translate,
        note="classify sets by their partition class; distinct blocks of one class are disjoint",
    )


@entry(7)
def _build_pigeon_to_gekr(m: int = 2, k: int = 3) -> Reduction:
    src = ProblemId("pigeon")
    tgt = ProblemId("gekr", k=k)
    n = 2
    while n <= _MAX_SIZE_SCAN and binomial(k * n - 1, n - 1) < (1 << m):
        n += 1
    if n > _MAX_SIZE_SCAN:
        raise CapabilityError(f"no target size under {_MAX_SIZE_SCAN} fits source width {m}")
    thr = binomial(k * n - 1, n - 1)
    gamma = ceil_log2(thr)
    total = binomial(k * n, n)
    alpha = ceil_log2(total)
    top = total - 1

    def transform(inst: ProblemInstance) -> ProblemInstance:
        guarded = GuardPrefix(embed(inst.circuit, gamma), 1 << m)
        # rank = top - v, computed as ((~padded) + (top + 1)) mod 2^alpha
        padded = PadLeft(guarded, alpha - gamma)
        flipped = Compose(not_all(alpha), padded)
        ranked = Compose(ConstOp("add", BitString(alpha, (top + 1) % (1 << alpha))), flipped)
        cp = Compose(_cover_decode(n, k * n), ranked)
        return ProblemInstance(tgt, n, cp)

    return Reduction(
        source=src, target=tgt,
        source_n=m, target_n=n, params={"m": m, "k": k, "n": n, "threshold": thr},
        transform=transform, translate=_guarded_map_pullback(src, m, "iv"),
        note="reflect the map onto top ranks so every image contains the first element",
    )


@entry(8)
def _build_gekr_to_pigeon(n: int = 2, k: int = 3) -> Reduction:
    src = ProblemId("gekr", k=k)
    tgt = ProblemId("pigeon")
    thr = binomial(k * n - 1, n - 1)
    gamma = ceil_log2(thr)

    def transform(inst: ProblemInstance) -> ProblemInstance:
        classed = Compose(Builtin("baranyai_class", k=k, n=n), inst.circuit)
        cp = Piecewise((Case(classed, 0, thr), Case(identity(gamma), 0, 1 << gamma)))
        return ProblemInstance(tgt, gamma, cp)

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=gamma, params={"n": n, "k": k, "threshold": thr},
        transform=transform,
        translate=_below_identity(thr, partial(_lone_set, src, n),
                                  partial(_set_pair, src, n, operator.eq)),
        note="partition classes below the class count; class zero is the canonical partition",
    )


# ---------------------------------------------------------------------------
# entries 9-12: antichain problems


@entry(9)
def _build_weak_ekr_to_weak_sperner(n: int = 2) -> Reduction:
    src = ProblemId("weak_ekr")
    tgt = ProblemId("weak_sperner")
    alpha = ceil_log2(binomial(2 * n, n))

    def transform(inst: ProblemInstance) -> ProblemInstance:
        return ProblemInstance(tgt, n, _doubled_domain(inst.circuit, n, alpha))

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        return _doubled_pair(src, n, inst.circuit, alpha, sol.get("x"), sol.get("y"))

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=n, params={"n": n},
        transform=transform, translate=translate,
        note="double the domain; the flag bit selects the complemented copy",
    )


@entry(10)
def _build_weak_sperner_to_weak_pigeon(n: int = 2) -> Reduction:
    src = ProblemId("weak_sperner")
    tgt = ProblemId("weak_pigeon")
    alpha = ceil_log2(binomial(2 * n, n))

    def transform(inst: ProblemInstance) -> ProblemInstance:
        rep = Builtin("chain_rep", n=n)
        cp = Compose(_cover_encode(n, 2 * n), Compose(rep, inst.circuit))
        return ProblemInstance(tgt, alpha, cp)

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        return _chain_pair(src, catalan_factorize, inst.circuit, sol.get("x"), sol.get("y"))

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=alpha, params={"n": n},
        transform=transform, translate=translate,
        note="rank the symmetric-chain representative; same chain yields containment",
    )


@entry(11)
def _build_ekr_to_sperner(n: int = 2) -> Reduction:
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
        return _doubled_pair(src, n, inst.circuit, rank_w, x, sol.get("y"))

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=n, params={"n": n, "threshold": thr},
        transform=transform, translate=translate,
        note="tight-width domain doubling with a complemented upper copy",
    )


@entry(12)
def _build_sperner_to_pigeon(n: int = 2) -> Reduction:
    src = ProblemId("sperner")
    tgt = ProblemId("pigeon")
    thr = binomial(2 * n, n)
    w = ceil_log2(thr)

    def transform(inst: ProblemInstance) -> ProblemInstance:
        sigma = swap_halves(2 * n)
        rep = Compose(sigma, Compose(Builtin("chain_rep", n=n), sigma))
        ranked = Compose(_cover_encode(n, 2 * n), Compose(rep, inst.circuit))
        cp = Piecewise((Case(ranked, 0, thr), Case(identity(w), 0, 1 << w)))
        return ProblemInstance(tgt, w, cp)

    def conj_factor(v: BitString):
        h1, h2 = _halves(v)
        return catalan_factorize(h2.concat(h1))

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=w, params={"n": n, "threshold": thr},
        transform=transform,
        translate=_below_identity(thr, lambda c, x: make_solution(src, "ii", x),
                                  partial(_chain_pair, src, conj_factor)),
        note="conjugated chain representative; zero rank forces the bottom extremal set",
    )


# ---------------------------------------------------------------------------
# entries 13-16: labeled-tree problems


@entry(13)
def _build_weak_cayley_to_weak_pigeon(n: int = 3) -> Reduction:
    src = ProblemId("weak_cayley")
    tgt = ProblemId("weak_pigeon")
    beta = ceil_log2(n ** (n - 2))

    def transform(inst: ProblemInstance) -> ProblemInstance:
        cp = Compose(Builtin("prufer_encode", n=n), inst.circuit)
        return ProblemInstance(tgt, beta, cp)

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        return _tree_pair(src, n, inst.circuit, sol.get("x"), sol.get("y"))

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=beta, params={"n": n},
        transform=transform, translate=translate,
        note="rank edge maps through the tree codec; non-trees clamp to rank zero",
    )


@entry(14, forbidden=("i",))
def _build_weak_pigeon_to_weak_cayley(m: int = 2) -> Reduction:
    src = ProblemId("weak_pigeon")
    tgt = ProblemId("weak_cayley")
    n = 3
    while n <= _MAX_SIZE_SCAN and n ** (n - 2) < (1 << (m + 1)):
        n += 1
    if n > _MAX_SIZE_SCAN:
        raise CapabilityError(f"no target size under {_MAX_SIZE_SCAN} fits source width {m}")
    beta = ceil_log2(n ** (n - 2))

    def transform(inst: ProblemInstance) -> ProblemInstance:
        shrunk = shrink_chain(inst.circuit, beta + 1, beta - 1)
        cp = Compose(Builtin("prufer_decode", n=n), PadLeft(shrunk, 1))
        return ProblemInstance(tgt, n, cp)

    return Reduction(
        source=src, target=tgt,
        source_n=m, target_n=n, params={"m": m, "n": n, "beta": beta},
        transform=transform, translate=_shrunk_pullback(src, beta + 1, beta - 1),
        note="shrink one bit and decode low tree ranks; images are always trees",
    )


@entry(15)
def _build_pigeon_to_cayley(m: int = 2) -> Reduction:
    src = ProblemId("pigeon")
    tgt = ProblemId("cayley")
    n = 3
    while n <= _MAX_SIZE_SCAN and n ** (n - 2) < (1 << m):
        n += 1
    if n > _MAX_SIZE_SCAN:
        raise CapabilityError(f"no target size under {_MAX_SIZE_SCAN} fits source width {m}")
    thr = n ** (n - 2)
    beta = ceil_log2(thr)

    def transform(inst: ProblemInstance) -> ProblemInstance:
        guarded = GuardPrefix(embed(inst.circuit, beta), 1 << m)
        decode = Compose(Builtin("prufer_decode", n=n), guarded)
        cp = Piecewise((
            Case(decode, 0, thr),
            Case(const_circuit(star_tree(n), in_width=beta), 0, 1 << beta),
        ))
        return ProblemInstance(tgt, n, cp)

    return Reduction(
        source=src, target=tgt,
        source_n=m, target_n=n, params={"m": m, "n": n, "threshold": thr},
        transform=transform, translate=_guarded_map_pullback(src, m, "iii", thr),
        note="decode guarded ranks as trees; the overflow band pins the star tree",
    )


@entry(16)
def _build_cayley_to_pigeon(n: int = 3) -> Reduction:
    src = ProblemId("cayley")
    tgt = ProblemId("pigeon")
    thr = n ** (n - 2)
    beta = ceil_log2(thr)

    def transform(inst: ProblemInstance) -> ProblemInstance:
        ranked = Compose(Builtin("prufer_encode", n=n), inst.circuit)
        cp = Piecewise((Case(ranked, 0, thr), Case(identity(beta), 0, 1 << beta)))
        return ProblemInstance(tgt, beta, cp)

    def zero(c: Circuit, x: BitString) -> Solution:
        sx = c.eval(x)
        if not is_spanning_tree(n, sx):
            return make_solution(src, "i", x)
        if sx != star_tree(n):
            raise IntegrityError("tree off the zero rank mapped to zero")
        return make_solution(src, "iii", x)

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=beta, params={"n": n, "threshold": thr},
        transform=transform, translate=_below_identity(thr, zero, partial(_tree_pair, src, n)),
        note="tree ranks below the tree count; rank zero names the star tree",
    )


# ---------------------------------------------------------------------------
# entries 17-21: symmetric colorings and triangle search


def _ws_abc(n: int) -> tuple[BitString, BitString, BitString]:
    return (BitString(2 * n, 0), BitString(2 * n, (1 << (2 * n)) - 1), BitString(2 * n, 1))


def _sorted_cat(u: BitString, v: BitString) -> BitString:
    return u.concat(v) if u.value <= v.value else v.concat(u)


@entry(17, forbidden=("ii",))
def _build_weak_pigeon_to_ws_collisions(m: int = 2) -> Reduction:
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

    return Reduction(
        source=src, target=tgt,
        source_n=m, target_n=n, params={"m": m},
        transform=transform, translate=translate,
        note="symmetrized chain compressor colors pairs; any solution yields a chain collision",
    )


def _identity_entry(src_name: str, tgt_name: str, n: int, note: str) -> Reduction:
    """Entries 18 and 19: the instance carries over unchanged, and so does
    every target solution."""
    src = ProblemId(src_name)
    tgt = ProblemId(tgt_name)

    def transform(inst: ProblemInstance) -> ProblemInstance:
        return ProblemInstance(tgt, n, inst.circuit, abc=inst.abc)

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        return make_solution(src, sol.tag, *sol.values())

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=n, params={"n": n},
        transform=transform, translate=translate, note=note,
    )


@entry(18)
def _build_ws_collisions_to_ws_colorful(n: int = 2) -> Reduction:
    return _identity_entry("ws_collisions", "ws_colorful", n,
                           "identity on instances; colorful matching-triangle witnesses "
                           "also match plainly")


@entry(19)
def _build_ws_colorful_to_ws(n: int = 2) -> Reduction:
    return _identity_entry("ws_colorful", "ws", n,
                           "identity on instances; the three shared solution types carry over")


@entry(20)
def _build_ws_collisions_to_weak_pigeon(n: int = 5) -> Reduction:
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
        source_n=n, target_n=3 * n, params={"n": n},
        transform=transform, translate=translate,
        note="three prefix-tagged color probes; a probe collision matches two triangles",
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


def _colorings(inst: ProblemInstance):
    c = inst.circuit

    def col(u: BitString, v: BitString) -> int:
        return c.value_at((u.value << v.width) | v.value)

    return col


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
        Compose(eq_const(n, _colorings(inst)(b, c)), colxb),
    ]))
    ranked = Compose(Builtin("lexpair_encode", n=n), fanout([colxb, colxc]))
    return anchors, colxa, ranked, uniform


@entry(21)
def _build_ws_colorful_to_pigeon(n: int = 5) -> Reduction:
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
        col = _colorings(inst)
        if col(a, b) == col(a, c):
            return make_solution(src, "i")
        if sol.tag == "i":
            raise IntegrityError("the image avoids zero")
        x, y = sol.get("x"), sol.get("y")
        case_x = _ws_case_of(col, a, b, c, x)
        case_y = _ws_case_of(col, a, b, c, y)
        if case_x != case_y or case_x in (1, 2, 3):
            raise IntegrityError("collision across distinct image bands")
        if case_x == 4:
            if col(x, a) != col(y, a):
                raise IntegrityError("unequal probes in the uniform band")
            return _case4_collision(src, col, a, b, c, x, y)
        return _case5_collision(src, col, a, b, c, x, y)

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=w, params={"n": n},
        transform=transform, translate=translate,
        note="rank each vertex by its colors toward the anchors; bands tile the whole codomain",
    )


# ---------------------------------------------------------------------------
# entries 22-26: triangle-free and clique-free graph bounds


@entry(22, forbidden=("i", "ii"))
def _build_weak_pigeon_to_weak_mantel(m: int = 2) -> Reduction:
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

    return Reduction(
        source=src, target=tgt,
        source_n=m, target_n=n, params={"m": m},
        transform=transform, translate=translate,
        note="bipartite edge listing; only index collisions are possible and they compress",
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


@entry(23)
def _build_weak_mantel_to_pigeon(n: int = 2) -> Reduction:
    src = ProblemId("weak_mantel")
    tgt = ProblemId("pigeon")
    w = 2 * n - 1

    def transform(inst: ProblemInstance) -> ProblemInstance:
        cp = Compose(_lex_shift_circuit(n), inst.circuit)
        return ProblemInstance(tgt, w, cp)

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=w, params={"n": n},
        transform=transform, translate=_edge_translate,
        note="rank increasing endpoint pairs; decreasing pairs collapse to the low band",
    )


@entry(24)
def _build_pigeon_to_mantel(m: int = 2) -> Reduction:
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
        source_n=m, target_n=n, params={"m": m, "n": n},
        transform=transform, translate=translate,
        note="split the image into bipartite endpoints; zero maps to the consecutive pair",
    )


@entry(25)
def _build_weak_turan_widen(n: int = 2, r1: int = 2, r2: int = 3) -> Reduction:
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
        source_n=n, target_n=n, params={"n": n, "r1": r1, "r2": r2},
        transform=transform, translate=translate,
        note="a larger forbidden clique is weaker; shrink found cliques to the corner",
    )


@entry(26)
def _build_weak_turan_to_pigeon(n: int = 2, r: int = 3) -> Reduction:
    src = ProblemId("weak_turan", r=r)
    tgt = ProblemId("pigeon")
    w = 2 * n - 1

    def transform(inst: ProblemInstance) -> ProblemInstance:
        cp = Compose(_lex_shift_circuit(n), inst.circuit)
        return ProblemInstance(tgt, w, cp)

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=w, params={"n": n, "r": r},
        transform=transform, translate=_edge_translate,
        note="same edge ranking as the triangle case; only the source clauses differ",
    )


# ---------------------------------------------------------------------------
# entry 27: entry 21's band layout shifted onto general pigeon


@entry(27)
def _build_ws_colorful_to_general_pigeon(n: int = 5) -> Reduction:
    if n < 5:
        raise CapabilityError("image bands of the pair ranking overlap below n = 5")
    src = ProblemId("ws_colorful")
    tgt_k = (1 << (2 * n - 1)) - (1 << (n - 1))
    tgt = ProblemId("general_pigeon", k=tgt_k)
    w = 2 * n

    def special_colors(inst: ProblemInstance) -> list[int]:
        a, b, c = inst.abc
        col = _colorings(inst)
        return [col(a, b), col(a, c), col(b, c)]

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

    def translate(inst: ProblemInstance, sol: Solution) -> Solution:
        a, b, c = inst.abc
        col = _colorings(inst)
        s_ab, s_ac, s_bc = col(a, b), col(a, c), col(b, c)
        if s_ab == s_ac:
            return make_solution(src, "i")
        if s_ab == s_bc:
            return _tri(src, a, b, c)
        if s_ac == s_bc:
            sym = _sym_or_none(src, col, b, c)
            if sym:
                return sym
            return _tri(src, a, c, b)
        if sol.tag == "ii":
            raise IntegrityError("images all sit at or above k")
        x, y = sol.get("x"), sol.get("y")
        case_x = _ws_case_of(col, a, b, c, x)
        case_y = _ws_case_of(col, a, b, c, y)
        if case_x != case_y or case_x in (1, 2, 3):
            raise IntegrityError("collision across distinct image bands")
        if case_x == 4:
            for wv in (x, y):
                xi = col(wv, a)
                if xi == s_ab:
                    return _tri(src, wv, a, b)
                if xi == s_ac:
                    return _tri(src, wv, a, c)
                if xi == s_bc:
                    sym = _sym_or_none(src, col, wv, a)
                    if sym:
                        return sym
                    return _tri(src, a, wv, b)
            if col(x, a) != col(y, a):
                raise IntegrityError("distinct non-special probes collided")
            return _case4_collision(src, col, a, b, c, x, y)
        return _case5_collision(src, col, a, b, c, x, y)

    return Reduction(
        source=src, target=tgt,
        source_n=n, target_n=w, params={"n": n, "k": tgt_k},
        transform=transform, translate=translate,
        note="band layout shifted to the top segment so only collisions remain",
    )
