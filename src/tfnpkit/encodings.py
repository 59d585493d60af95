"""Subset, pair, tree, and chain codecs, plus the small-scale parallel-class
table for uniform set partitions.

Every codec is a pair of host functions (encode/decode on BitStrings) and is
also registered as a named circuit block, so instance circuits can embed it.
The cover-decode, lexpair-encode and Prüfer-decode blocks also carry a numpy
kernel that vector evaluation runs, with the host's outputs and errors.
Decoders are partial: ranks beyond the counted range raise OutOfRangeError,
which turns an out-of-contract evaluation into a loud failure instead of
silently wrong data.  Encoders are total, with fixed documented extensions on
inputs outside the meaningful domain.

Rank conventions: characteristic vectors are width-m BitStrings, leftmost bit
= element 1; all ranks are lexicographic, which on equal widths is numeric
order of the vector values.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cache, reduce
from operator import or_
from typing import Callable, Iterable

import numpy as np

from . import circuit as ckt
from .errors import CapabilityError, DomainError, IntegrityError, OutOfRangeError
from .numerics import MAX_COUNT_ARG, BitString, binomial, bits_of, ceil_log2

# ---------------------------------------------------------------------------
# fixed-weight subsets <-> lexicographic ranks


def cover_width(k: int, m: int) -> int:
    """Bits needed for ranks of weight-k subsets of [m]."""
    return ceil_log2(binomial(m, k))


def _rank_fixed_weight(v: int, m: int, k: int) -> int:
    rank = 0
    rem = k
    for i in range(m):
        if (v >> (m - 1 - i)) & 1:
            rank += math.comb(m - 1 - i, rem)
            rem -= 1
    return rank


def _clamp_to_weight(v: int, m: int, k: int) -> int | None:
    """Largest weight-k value <= v, or None when v is below all of them."""
    best = None
    ones = 0
    for i in range(m):
        if (v >> (m - 1 - i)) & 1:
            need = k - ones
            rest = m - 1 - i
            if 0 <= need <= rest:
                prefix = v >> (m - i)
                best = (prefix << (m - i)) | (((1 << need) - 1) << (rest - need))
            ones += 1
    return best


def _cover_encode_value(v: int, m: int, k: int) -> int:
    if v.bit_count() == k:
        return _rank_fixed_weight(v, m, k)
    w = _clamp_to_weight(v, m, k)
    return _rank_fixed_weight(w, m, k) if w is not None else 0


def _cover_decode_value(r: int, m: int, k: int) -> int:
    if r >= binomial(m, k):
        raise OutOfRangeError(f"rank {r} >= C({m},{k}) = {binomial(m, k)}")
    v = 0
    rem = k
    for i in range(m):
        c = math.comb(m - 1 - i, rem)
        if r >= c:
            v |= 1 << (m - 1 - i)
            r -= c
            rem -= 1
    return v


def cover_encode(k: int, m: int, v: BitString) -> BitString:
    """Rank of a weight-k vector; off-weight inputs clamp down to the nearest
    weight-k vector (rank 0 when none is below)."""
    if v.width != m:
        raise DomainError(f"vector width {v.width}, universe size {m}")
    return bits_of(_cover_encode_value(v.value, m, k), cover_width(k, m))


def cover_decode(k: int, m: int, r: BitString) -> BitString:
    if r.width != cover_width(k, m):
        raise DomainError(f"rank width {r.width}, expected {cover_width(k, m)}")
    return bits_of(_cover_decode_value(r.value, m, k), m)


# ---------------------------------------------------------------------------
# unordered pairs of n-bit strings <-> lexicographic ranks


def lexpair_width(n: int) -> int:
    if n < 1:
        raise DomainError("pairs need strings of at least 1 bit")
    return 2 * n - 1


def pair_count(n: int) -> int:
    return (1 << n) * ((1 << n) - 1) // 2


def _lexpair_encode_value(uv: int, n: int) -> int:
    u, v = uv >> n, uv & ((1 << n) - 1)
    if u == v:
        return 0
    a, b = min(u, v), max(u, v)
    big = 1 << n
    return a * (2 * big - a - 1) // 2 + b - a - 1


def _lexpair_decode_value(r: int, n: int) -> int:
    if r >= pair_count(n):
        raise OutOfRangeError(f"rank {r} >= C(2^{n},2) = {pair_count(n)}")
    big = 1 << n

    def cum(a: int) -> int:
        return a * (2 * big - a - 1) // 2

    lo, hi = 0, big - 1  # find largest a with cum(a) <= r
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if cum(mid) <= r:
            lo = mid
        else:
            hi = mid - 1
    b = lo + 1 + (r - cum(lo))
    return (lo << n) | b


def lexpair_encode(n: int, u: BitString, v: BitString) -> BitString:
    """Rank of the unordered pair {u, v} among all two-element subsets of the
    n-bit strings, in lexicographic pair order; equal arguments give 0."""
    if u.width != n or v.width != n:
        raise DomainError(f"pair widths {u.width},{v.width}, expected {n}")
    return bits_of(_lexpair_encode_value((u.value << n) | v.value, n), lexpair_width(n))


def lexpair_decode(n: int, r: BitString) -> tuple[BitString, BitString]:
    if r.width != lexpair_width(n):
        raise DomainError(f"rank width {r.width}, expected {lexpair_width(n)}")
    uv = _lexpair_decode_value(r.value, n)
    return bits_of(uv >> n, n), bits_of(uv & ((1 << n) - 1), n)


# ---------------------------------------------------------------------------
# labelled trees on [n] <-> sequence ranks


def edge_count(n: int) -> int:
    return binomial(n, 2)


def prufer_width(n: int) -> int:
    return ceil_log2(tree_count(n))


def tree_count(n: int) -> int:
    if n < 2:
        raise DomainError("trees need at least 2 vertices")
    if n > MAX_COUNT_ARG:
        raise CapabilityError(f"tree count {n}^{n - 2} is past the counting cap {MAX_COUNT_ARG}")
    return n ** (n - 2)


def edge_bit_index(n: int, i: int, j: int) -> int:
    """Position of edge (i,j), 1 <= i < j <= n, in the fixed pair order."""
    if not 1 <= i < j <= n:
        raise DomainError(f"edge ({i},{j}) out of range for n={n}")
    return (i - 1) * n - i * (i - 1) // 2 + j - i - 1


def edges_of_bitmap(n: int, g: BitString) -> list[tuple[int, int]]:
    if g.width != edge_count(n):
        raise DomainError(f"bitmap width {g.width}, expected {edge_count(n)}")
    out = []
    idx = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if g.bit(idx):
                out.append((i, j))
            idx += 1
    return out


def bitmap_of_edges(n: int, edges: Iterable[tuple[int, int]]) -> BitString:
    v = 0
    w = edge_count(n)
    for i, j in edges:
        if i > j:
            i, j = j, i
        v |= 1 << (w - 1 - edge_bit_index(n, i, j))
    return bits_of(v, w)


def is_spanning_tree(n: int, g: BitString) -> bool:
    """Exactly n-1 edges, connected, acyclic (the checks are redundant by
    design; all three are run)."""
    edges = edges_of_bitmap(n, g)
    if len(edges) != n - 1:
        return False
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False  # cycle
        parent[ri] = rj
    return all(find(v) == find(1) for v in range(2, n + 1))


def _prufer_sequence(n: int, edges: list[tuple[int, int]]) -> list[int]:
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seq = []
    for _ in range(n - 2):
        leaf = min(v for v in adj if len(adj[v]) == 1)
        nb = next(iter(adj[leaf]))
        seq.append(nb)
        adj[nb].discard(leaf)
        del adj[leaf]
    return seq


def _sequence_to_tree(n: int, seq: list[int]) -> list[tuple[int, int]]:
    deg = [1] * (n + 1)
    for a in seq:
        deg[a] += 1
    edges = []
    for a in seq:
        leaf = min(v for v in range(1, n + 1) if deg[v] == 1)
        edges.append((min(leaf, a), max(leaf, a)))
        deg[leaf] -= 1
        deg[a] -= 1
    u, v = [x for x in range(1, n + 1) if deg[x] == 1]
    edges.append((u, v))
    return edges


def prufer_encode_rank(n: int, g: BitString) -> BitString:
    """Rank of a spanning tree's elimination sequence in [n]^(n-2); the fixed
    total extension sends non-trees to rank 0."""
    beta = prufer_width(n)
    if not is_spanning_tree(n, g):
        return bits_of(0, beta)
    seq = _prufer_sequence(n, edges_of_bitmap(n, g))
    rank = 0
    for a in seq:
        rank = rank * n + (a - 1)
    return bits_of(rank, beta)


def prufer_decode_rank(n: int, r: BitString) -> BitString:
    beta = prufer_width(n)
    if r.width != beta:
        raise DomainError(f"rank width {r.width}, expected {beta}")
    rv = r.value
    if rv >= tree_count(n):
        raise OutOfRangeError(f"rank {rv} >= {n}^{n - 2} = {tree_count(n)}")
    seq = []
    for _ in range(n - 2):
        seq.append(rv % n + 1)
        rv //= n
    seq.reverse()
    return bitmap_of_edges(n, _sequence_to_tree(n, seq))


# ---------------------------------------------------------------------------
# chain factorization of the subset lattice


def catalan_factorize(x: BitString) -> tuple[str, int]:
    """Split x into its chain template over {0,1,z} and the count k of
    unmatched 1s.

    A scanned 1 opens; a 0 closes the most recent open 1.  Matched positions
    keep their symbols; the unmatched ones (all the stranded 0s, then the
    stranded 1s) become z.  This nested matching is exactly the repeated
    underline-the-leftmost-10 rewriting, one pass instead of many.
    """
    if x.width % 2:
        raise DomainError("chain factorization needs even width")
    sym = list(str(x))
    stack: list[int] = []
    matched = [False] * x.width
    for i, s in enumerate(sym):
        if s == "1":
            stack.append(i)
        elif stack:
            matched[stack.pop()] = True
            matched[i] = True
    k = len(stack)
    form = "".join(s if matched[i] else "z" for i, s in enumerate(sym))
    return form, k


def catalan_expand(form: str, l: int) -> BitString:
    """Fill the z positions with l trailing 1s (clamped to the z count) and
    leading 0s; matched symbols pass through."""
    if set(form) - set("01z"):
        raise DomainError(f"bad template symbol in {form!r}")
    if l < 0:
        raise DomainError("fill count must be nonnegative")
    num_z = form.count("z")
    ones = min(l, num_z)
    out = []
    seen_z = 0
    for s in form:
        if s == "z":
            seen_z += 1
            out.append("1" if seen_z > num_z - ones else "0")
        else:
            out.append(s)
    return BitString.from_str("".join(out))


def chain_representative(x: BitString) -> BitString:
    """The weight-(w/2) member of x's chain: expand the template at half the
    z count."""
    form, _ = catalan_factorize(x)
    return catalan_expand(form, form.count("z") // 2)


# ---------------------------------------------------------------------------
# parallel classes of n-subsets of [kn] (small-scale exact-cover table)


BARANYAI_CAP = 10_000
# Search nodes after which the exact-cover search gives up.  The costliest
# search that completes, k=12 at n=2, takes 512,523 nodes.  Searches that
# stall, such as (13, 2), (4, 3), (5, 3) and (3, 4), reach the bound in under
# a second on a 2-vCPU host, and every stalling size under BARANYAI_CAP within
# about 3 s (k=70 at n=2), instead of running for hours.
BARANYAI_SEARCH_NODES = 550_000

_table_memo: dict[tuple[int, int], list[list[tuple[int, ...]]]] = {}
_table_lock = threading.Lock()

Block = tuple[int, ...]
ParallelClass = list[Block]


def _check_baranyai_params(k: int, n: int) -> None:
    if k < 1 or n < 1:
        raise DomainError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    if binomial(k * n, n) > BARANYAI_CAP:
        raise CapabilityError(
            f"C({k * n},{n}) = {binomial(k * n, n)} exceeds the table cap {BARANYAI_CAP}"
        )


def _all_subsets(k: int, n: int) -> list[Block]:
    from itertools import combinations

    return [tuple(c) for c in combinations(range(1, k * n + 1), n)]


def _canonical_class(k: int, n: int) -> ParallelClass:
    return [tuple(range(i * n + 1, (i + 1) * n + 1)) for i in range(k)]


def _search_classes(k: int, n: int) -> list[ParallelClass]:
    """Deterministic exact-cover search: each class is completed from the
    smallest unused block, trying the unused blocks that hold the smallest
    uncovered element in lexicographic order.  Each class started and each
    partial class tried is a search node; past BARANYAI_SEARCH_NODES of them
    the search raises CapabilityError."""
    # block i is the i-th subset in lexicographic order; sets of blocks are
    # int bitsets over i, sets of elements int bitsets over element - 1
    subsets = _all_subsets(k, n)
    elems = [sum(1 << (x - 1) for x in s) for s in subsets]
    holding = [0] * (k * n + 1)  # element -> blocks that hold it
    for i, s in enumerate(subsets):
        for x in s:
            holding[x] |= 1 << i
    meeting = [reduce(or_, (holding[x] for x in s)) for s in subsets]
    first = _canonical_class(k, n)
    taken = set(first)
    unused = sum(1 << i for i, s in enumerate(subsets) if s not in taken)
    classes: list[ParallelClass] = [first]
    nodes = 0

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > BARANYAI_SEARCH_NODES:
            raise CapabilityError(
                f"no table for k={k}, n={n} within {BARANYAI_SEARCH_NODES} search nodes")

    def complete(chosen: list[int], covered: int, met: int):
        """Yield every partition of [kn] into unused blocks that extends
        chosen; covered holds its elements and met the blocks meeting it.
        Every element below the smallest uncovered one is covered, so each
        unmet block holding that element starts with it."""
        nonlocal unused
        tick()
        if len(chosen) == k:
            yield list(chosen)
            return
        smallest = (~covered & (covered + 1)).bit_length()
        cands = holding[smallest] & unused & ~met
        while cands:
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            chosen.append(i)
            unused ^= low
            yield from complete(chosen, covered | elems[i], met | meeting[i])
            unused |= low
            chosen.pop()

    # Each class after the first is grown from the smallest unused block by
    # one complete() generator; the generators form a stack, and an exhausted
    # one gives its seed back and makes the one below it try its next class.
    # complete() keeps the blocks of each class it yields out of unused.
    seeds, growing = [], []
    tick()
    while unused:
        seeds.append(unused & -unused)
        unused ^= seeds[-1]
        seed = seeds[-1].bit_length() - 1
        growing.append(complete([seed], elems[seed], meeting[seed]))
        while (cls := next(growing[-1], None)) is None:
            unused |= seeds.pop()
            growing.pop()
            if not growing:
                raise IntegrityError(f"no parallel-class table found for k={k}, n={n}")
            classes.pop()
        classes.append([subsets[i] for i in sorted(cls)])
        tick()
    return classes


def baranyai_table(k: int, n: int) -> list[ParallelClass]:
    """All parallel classes: C(kn-1,n-1) partitions of [kn] into k n-blocks,
    jointly covering every n-subset once.  Class 1 is the canonical partition
    into consecutive runs.  Computed by deterministic exact-cover search,
    bounded by BARANYAI_SEARCH_NODES, and memoized in process."""
    _check_baranyai_params(k, n)
    key = (k, n)
    with _table_lock:
        if key in _table_memo:
            return _table_memo[key]
        classes = _search_classes(k, n)
        ok, msg = baranyai_verify(k, n, classes)
        if not ok:
            raise IntegrityError(f"table for k={k}, n={n} invalid: {msg}")
        _table_memo[key] = classes
        return classes


def baranyai_verify(k: int, n: int, classes: list[ParallelClass]) -> tuple[bool, str]:
    """Exact-cover check: class count, per-class partition, global coverage,
    canonical first class."""
    expected = binomial(k * n - 1, n - 1)
    if len(classes) != expected:
        return False, f"{len(classes)} classes, expected C({k * n - 1},{n - 1}) = {expected}"
    universe = set(range(1, k * n + 1))
    seen: set[Block] = set()
    for ci, cls in enumerate(classes, start=1):
        if len(cls) != k:
            return False, f"class {ci} has {len(cls)} blocks"
        elems: list[int] = []
        for b in cls:
            if len(b) != n or list(b) != sorted(set(b)):
                return False, f"class {ci} block {b} malformed"
            if b in seen:
                return False, f"block {b} appears twice"
            seen.add(b)
            elems.extend(b)
        if set(elems) != universe or len(elems) != k * n:
            return False, f"class {ci} is not a partition of [{k * n}]"
    if len(seen) != binomial(k * n, n):
        return False, "not every subset is covered"
    if classes[0] != _canonical_class(k, n):
        return False, "first class is not the canonical partition"
    return True, "ok"


def baranyai_index(k: int, n: int, v: BitString) -> int:
    """1-based index of the parallel class containing the weight-n subset v."""
    if v.width != k * n:
        raise DomainError(f"vector width {v.width}, expected {k * n}")
    if v.weight != n:
        raise DomainError(f"vector weight {v.weight}, expected {n}")
    block = tuple(i + 1 for i in range(k * n) if v.bit(i))
    classes = baranyai_table(k, n)
    for ci, cls in enumerate(classes, start=1):
        if block in cls:
            return ci
    raise IntegrityError(f"subset {block} missing from the k={k}, n={n} table")


# ---------------------------------------------------------------------------
# compressing-encoding checker


@dataclass(frozen=True)
class PropertyReport:
    domain_size: int
    image_size: int
    class_count: int
    compression_ok: bool
    constant_ok: bool
    violation: tuple[BitString, BitString] | None

    @property
    def ok(self) -> bool:
        return self.compression_ok and self.constant_ok


PAIR_SCAN_CAP = 4096
DOMAIN_WIDTH_CAP = 16


def check_property_preserving(
    enc: ckt.Circuit,
    domain: Callable[[BitString], bool] | None,
    equiv: Callable[[BitString, BitString], bool],
) -> PropertyReport:
    """Exhaustively check that enc compresses its domain and is constant on
    every equivalence class of the given relation.

    The relation is probed pairwise, so the domain is capped at
    PAIR_SCAN_CAP elements; in_width itself is capped at DOMAIN_WIDTH_CAP.
    """
    if enc.in_width > DOMAIN_WIDTH_CAP:
        raise CapabilityError(f"domain enumeration capped at in_width {DOMAIN_WIDTH_CAP}, got {enc.in_width}")
    xs = [bits_of(v, enc.in_width) for v in range(1 << enc.in_width)]
    if domain is not None:
        xs = [x for x in xs if domain(x)]
    if len(xs) > PAIR_SCAN_CAP:
        raise CapabilityError(f"domain size {len(xs)} exceeds pair-scan cap {PAIR_SCAN_CAP}")
    outs = {x: enc.eval(x) for x in xs}
    image = set(outs.values())

    parent = list(range(len(xs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    violation = None
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if equiv(xs[i], xs[j]):
                parent[find(i)] = find(j)
                if violation is None and outs[xs[i]] != outs[xs[j]]:
                    violation = (xs[i], xs[j])
    class_count = len({find(i) for i in range(len(xs))})
    return PropertyReport(
        domain_size=len(xs),
        image_size=len(image),
        class_count=class_count,
        compression_ok=len(image) <= len(xs),
        constant_ok=violation is None,
        violation=violation,
    )


# ---------------------------------------------------------------------------
# array kernels: each maps an int64 array of block inputs to the int64 array
# of outputs its scalar host gives value by value; decoder kernels take ranks
# in range only


@cache
def _comb_table(m: int, k: int) -> np.ndarray:
    """Row i holds C(m-1-i, j) for j = 0..k: the rank term of a 1 at
    position i with j ones still to place."""
    return np.array([[math.comb(m - 1 - i, j) for j in range(k + 1)] for i in range(m)],
                    dtype=np.int64).reshape(m, k + 1)


def _cover_decode_many(rs: np.ndarray, m: int, k: int) -> np.ndarray:
    vs = np.zeros_like(rs)
    rem = np.full_like(rs, k)
    for i, row in enumerate(_comb_table(m, k)):
        c = row[rem]
        take = rs >= c
        vs |= take.astype(np.int64) << (m - 1 - i)
        rs = rs - np.where(take, c, 0)
        rem -= take
    return vs


def _lexpair_encode_many(uvs: np.ndarray, n: int) -> np.ndarray:
    u, v = uvs >> n, uvs & ((1 << n) - 1)
    a, b = np.minimum(u, v), np.maximum(u, v)
    return np.where(u == v, 0, a * (2 * (1 << n) - a - 1) // 2 + b - a - 1)


@cache
def _edge_bit_table(n: int) -> np.ndarray:
    """Entry (i, j) holds the bitmap bit of edge {i, j} on vertices 1..n."""
    w = edge_count(n)
    bit = np.zeros((n + 1, n + 1), dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            bit[i, j] = bit[j, i] = 1 << (w - 1 - edge_bit_index(n, i, j))
    return bit


def _prufer_decode_many(rs: np.ndarray, n: int) -> np.ndarray:
    bit = _edge_bit_table(n)
    # the sequence's digits, most significant first, as vertices 1..n
    seq = [(rs // n ** (n - 3 - p)) % n + 1 for p in range(n - 2)]
    rows = np.arange(len(rs))
    deg = np.ones((len(rs), n + 1), dtype=np.int8)
    deg[:, 0] = 0  # no vertex 0
    for a in seq:
        deg[rows, a] += 1
    out = np.zeros_like(rs)
    for a in seq:
        leaf = (deg == 1).argmax(axis=1)  # the smallest leaf
        out |= bit[leaf, a]
        deg[rows, leaf] -= 1
        deg[rows, a] -= 1
    last = deg == 1  # two vertices of degree 1 remain
    return out | bit[last.argmax(axis=1), n - last[:, ::-1].argmax(axis=1)]


# ---------------------------------------------------------------------------
# circuit blocks


def _decoder(limit: int, host: Callable[[int], int], kernel):
    """A decoder block's vector form: the kernel, on a batch of ranks below
    limit; a batch holding others fails as the host fails on the smallest."""

    def many(rs: np.ndarray) -> np.ndarray:
        over = rs[rs >= limit]
        if over.size:
            host(int(over.min()))  # raises the host's OutOfRangeError
        return kernel(rs)

    return many


def _cover_encode_block(k: int, m: int):
    return m, cover_width(k, m), lambda v: _cover_encode_value(v, m, k), None


def _cover_decode_block(k: int, m: int):
    def host(r):
        return _cover_decode_value(r, m, k)

    return (cover_width(k, m), m, host,
            _decoder(binomial(m, k), host, lambda rs: _cover_decode_many(rs, m, k)))


def _lexpair_encode_block(n: int):
    return (2 * n, lexpair_width(n), lambda uv: _lexpair_encode_value(uv, n),
            lambda uvs: _lexpair_encode_many(uvs, n))


def _lexpair_decode_block(n: int):
    return lexpair_width(n), 2 * n, lambda r: _lexpair_decode_value(r, n), None


def _prufer_encode_block(n: int):
    w = edge_count(n)
    return w, prufer_width(n), lambda g: prufer_encode_rank(n, bits_of(g, w)).value, None


def _prufer_decode_block(n: int):
    beta = prufer_width(n)

    def host(r):
        return prufer_decode_rank(n, bits_of(r, beta)).value

    return (beta, edge_count(n), host,
            _decoder(tree_count(n), host, lambda rs: _prufer_decode_many(rs, n)))


def _chain_rep_block(n: int):
    if n < 1:
        raise DomainError("chains need strings of at least 2 bits")
    w = 2 * n
    return w, w, lambda x: chain_representative(bits_of(x, w)).value, None


def _baranyai_class_block(k: int, n: int):
    w = k * n
    out = ceil_log2(binomial(k * n - 1, n - 1))

    def fn(v: int) -> int:
        b = bits_of(v, w)
        if b.weight != n:
            return 0
        return baranyai_index(k, n, b) - 1

    return w, out, fn, None


ckt.register_builtin("cover_encode", _cover_encode_block)
ckt.register_builtin("cover_decode", _cover_decode_block)
ckt.register_builtin("lexpair_encode", _lexpair_encode_block)
ckt.register_builtin("lexpair_decode", _lexpair_decode_block)
ckt.register_builtin("prufer_encode", _prufer_encode_block)
ckt.register_builtin("prufer_decode", _prufer_decode_block)
ckt.register_builtin("chain_rep", _chain_rep_block)
ckt.register_builtin("baranyai_class", _baranyai_class_block)
