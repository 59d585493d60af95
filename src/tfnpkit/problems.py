"""Catalog of total search problems over circuit-encoded collections.

Each problem is a relation between an instance (one Boolean circuit plus,
for some families, auxiliary constants) and a finite list of solution
clauses.  ``verify`` evaluates the defining clause of a tagged solution
verbatim, including every threshold side condition, and reports either
``Accepted(tag)`` or ``Rejected(reason)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .circuit import Circuit, Table, from_text as circuit_from_text, to_text as circuit_to_text
from .encodings import is_spanning_tree
from .errors import CapabilityError, DomainError, ParseError
from .numerics import BitString, binomial, ceil_log2

__all__ = [
    "PROBLEM_NAMES",
    "ProblemId",
    "ProblemInstance",
    "Solution",
    "Verdict",
    "circuit_shape",
    "edges_form_clique",
    "gen_random_instance",
    "instance_from_text",
    "instance_to_text",
    "is_spanning_tree",
    "random_table",
    "solution_from_text",
    "star_tree",
    "solution_to_text",
    "solution_order_key",
    "verify",
    "wellformed",
    "witness_names",
]

GEN_WIDTH_CAP = 20

PROBLEM_NAMES = (
    "weak_pigeon",
    "pigeon",
    "general_pigeon",
    "weak_ekr",
    "ekr",
    "weak_gekr",
    "gekr",
    "weak_sperner",
    "sperner",
    "weak_cayley",
    "cayley",
    "ws",
    "ws_collisions",
    "ws_colorful",
    "weak_mantel",
    "mantel",
    "weak_turan",
    "turan",
)

_WS_FAMILY = ("ws", "ws_collisions", "ws_colorful")


@dataclass(frozen=True)
class ProblemId:
    """Problem name plus its structural parameters (k for block families, r for clique families)."""

    name: str
    k: Optional[int] = None
    r: Optional[int] = None

    def __post_init__(self) -> None:
        if self.name not in PROBLEM_NAMES:
            raise DomainError(f"unknown problem {self.name!r}")
        if self.name in ("weak_gekr", "gekr"):
            if self.k is None or self.k < 2:
                raise DomainError(f"{self.name} needs k >= 2, got {self.k}")
        elif self.name == "general_pigeon":
            if self.k is None or self.k < 1:
                raise DomainError(f"general_pigeon needs k >= 1, got {self.k}")
        elif self.k is not None:
            raise DomainError(f"{self.name} takes no k parameter")
        if self.name in ("weak_turan", "turan"):
            if self.r is None or self.r < 2:
                raise DomainError(f"{self.name} needs r >= 2, got {self.r}")
        elif self.r is not None:
            raise DomainError(f"{self.name} takes no r parameter")

    def __str__(self) -> str:
        parts = [self.name]
        if self.k is not None:
            parts.append(f"k={self.k}")
        if self.r is not None:
            parts.append(f"r={self.r}")
        return " ".join(parts)


def _min_n(pid: ProblemId) -> int:
    if pid.name in ("weak_ekr", "ekr", "weak_gekr", "gekr", "weak_sperner", "sperner"):
        return 2
    if pid.name in ("weak_cayley", "cayley"):
        return 3
    if pid.name in ("weak_mantel", "mantel", "weak_turan", "turan"):
        return 2
    return 1


def circuit_shape(pid: ProblemId, n: int) -> tuple[int, int]:
    """(in_width, out_width) of the main circuit demanded by the defining relation."""
    if n < _min_n(pid):
        raise DomainError(f"{pid.name} needs n >= {_min_n(pid)}, got {n}")
    if pid.name == "weak_pigeon":
        return n + 1, n
    if pid.name in ("pigeon", "general_pigeon"):
        return n, n
    if pid.name == "weak_ekr":
        return ceil_log2(binomial(2 * n - 1, n - 1)) + 1, 2 * n
    if pid.name == "ekr":
        return ceil_log2(binomial(2 * n - 1, n - 1)), 2 * n
    if pid.name == "weak_gekr":
        return ceil_log2(binomial(pid.k * n - 1, n - 1)) + 1, pid.k * n
    if pid.name == "gekr":
        return ceil_log2(binomial(pid.k * n - 1, n - 1)), pid.k * n
    if pid.name == "weak_sperner":
        return ceil_log2(binomial(2 * n, n)) + 1, 2 * n
    if pid.name == "sperner":
        return ceil_log2(binomial(2 * n, n)), 2 * n
    if pid.name == "weak_cayley":
        return ceil_log2(n ** (n - 2)) + 1, binomial(n, 2)
    if pid.name == "cayley":
        return ceil_log2(n ** (n - 2)), binomial(n, 2)
    if pid.name in _WS_FAMILY:
        return 4 * n, n
    if pid.name == "weak_mantel":
        return 2 * n - 1, 2 * n
    if pid.name == "mantel":
        return 2 * n - 2, 2 * n
    if pid.name in ("weak_turan", "turan"):
        return 2 * n - 1, 2 * n
    raise DomainError(f"unknown problem {pid.name!r}")


@dataclass(frozen=True)
class ProblemInstance:
    pid: ProblemId
    n: int
    circuit: Circuit
    abc: Optional[tuple[BitString, BitString, BitString]] = None
    nm: Optional[tuple[int, int]] = None

    @property
    def in_width(self) -> int:
        return self.circuit.in_width

    @cached_property
    def wellformed_verdict(self) -> "Verdict":
        """``wellformed(self)``, computed once: the instance is frozen."""
        return wellformed(self)


@dataclass(frozen=True)
class Solution:
    tag: str
    witness: tuple[tuple[str, BitString], ...] = ()

    def get(self, name: str) -> BitString:
        for key, value in self.witness:
            if key == name:
                return value
        raise KeyError(name)

    def values(self) -> tuple[BitString, ...]:
        return tuple(value for _, value in self.witness)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    tag: Optional[str] = None
    reason: Optional[str] = None

    @staticmethod
    def accepted(tag: str) -> "Verdict":
        return Verdict(True, tag=tag)

    @staticmethod
    def rejected(reason: str) -> "Verdict":
        return Verdict(False, reason=reason)

    def __bool__(self) -> bool:
        return self.ok


def clique_size(r: int) -> int:
    """Number of edges in a clique on r+1 vertices."""
    return binomial(r + 1, 2)


def witness_names(pid: ProblemId, tag: str) -> tuple[str, ...]:
    """Canonical witness field names for a solution tag, in file and comparison order."""
    name = pid.name
    single = ("x",)
    pair = ("x", "y")
    if name == "weak_pigeon":
        table = {"ii": pair}
    elif name == "pigeon":
        table = {"i": single, "ii": pair}
    elif name == "general_pigeon":
        table = {"i": pair, "ii": single}
    elif name in ("weak_ekr", "weak_gekr"):
        table = {"i": single, "ii": pair, "iii": pair}
    elif name in ("ekr", "gekr"):
        table = {"i": single, "ii": pair, "iii": pair, "iv": single}
    elif name == "weak_sperner":
        table = {"i": pair}
    elif name == "sperner":
        table = {"i": pair, "ii": single}
    elif name == "weak_cayley":
        table = {"i": single, "ii": pair}
    elif name == "cayley":
        table = {"i": single, "ii": pair, "iii": single}
    elif name in _WS_FAMILY:
        table = {"i": (), "ii": pair, "iii": ("x", "y", "z")}
        if name != "ws":
            table["iv"] = ("x", "y", "z", "x2", "y2", "z2")
    elif name == "weak_mantel":
        table = {"i": ("i", "j", "k"), "ii": ("i",), "iii": ("i", "j")}
    elif name == "mantel":
        table = {"i": ("i", "j", "k"), "ii": ("i",), "iii": ("i", "j"), "iv": ("i",)}
    elif name == "weak_turan":
        clique = tuple(f"i{t}" for t in range(1, clique_size(pid.r) + 1))
        table = {"i": clique, "ii": ("i",), "iii": ("i", "j")}
    elif name == "turan":
        clique = tuple(f"i{t}" for t in range(1, clique_size(pid.r) + 1))
        table = {
            "i": (),
            "ii": ("i",),
            "iii": clique,
            "iv": ("i",),
            "v": ("i", "j"),
            "vi": ("i",),
        }
    else:
        raise DomainError(f"unknown problem {name!r}")
    if tag not in table:
        raise DomainError(f"{name} has no solution type {tag!r}")
    return table[tag]


def make_solution(pid: ProblemId, tag: str, *values: BitString) -> Solution:
    names = witness_names(pid, tag)
    if len(names) != len(values):
        raise DomainError(f"{pid.name} type {tag} takes {len(names)} witnesses, got {len(values)}")
    return Solution(tag, tuple(zip(names, values)))


def solution_order_key(sol: Solution) -> tuple:
    """Total order on solutions: tag first, then witness values lexicographically.

    The roman tags used by the catalog happen to sort correctly as strings.
    """
    return (sol.tag, tuple(value.value for value in sol.values()))


def wellformed(inst: ProblemInstance) -> Verdict:
    pid, n = inst.pid, inst.n
    try:
        want_in, want_out = circuit_shape(pid, n)
    except DomainError as exc:
        return Verdict.rejected(str(exc))
    c = inst.circuit
    if (c.in_width, c.out_width) != (want_in, want_out):
        return Verdict.rejected(
            f"{pid.name} at n={n} needs circuit {want_in}->{want_out}, "
            f"got {c.in_width}->{c.out_width}"
        )
    if pid.name == "general_pigeon" and pid.k > 2 ** n:
        return Verdict.rejected(f"general_pigeon k={pid.k} exceeds range 2^{n}")
    if pid.name in _WS_FAMILY:
        if inst.abc is None:
            return Verdict.rejected(f"{pid.name} needs vertex constants a, b, c")
        a, b, cc = inst.abc
        if not (a.width == b.width == cc.width == 2 * n):
            return Verdict.rejected("vertex constants must have width 2n")
        if len({a.value, b.value, cc.value}) != 3:
            return Verdict.rejected("vertex constants a, b, c must be distinct")
    elif inst.abc is not None:
        return Verdict.rejected(f"{pid.name} takes no vertex constants")
    if pid.name == "turan":
        if inst.nm is None:
            return Verdict.rejected("turan needs integers N and M")
        if inst.nm[0] < 0 or inst.nm[1] < 0:
            return Verdict.rejected("N and M must be nonnegative")
    elif inst.nm is not None:
        return Verdict.rejected(f"{pid.name} takes no N/M parameters")
    return Verdict.accepted("wellformed")


# ---------------------------------------------------------------------------
# clause evaluation


def _weight(v: BitString) -> int:
    return v.weight


def _subset(a: BitString, b: BitString) -> bool:
    return a.value & b.value == a.value


def _disjoint(a: BitString, b: BitString) -> bool:
    return a.value & b.value == 0


def _block(k: int, n: int, j: int) -> BitString:
    # characteristic vector of {jn+1, ..., (j+1)n} inside [kn]
    return BitString(k * n, ((1 << n) - 1) << (k * n - (j + 1) * n))


def star_tree(n: int) -> BitString:
    # edges (1,2), (1,3), ..., (1,n): the first n-1 positions of the edge bitmap
    m = binomial(n, 2)
    return BitString(m, ((1 << (n - 1)) - 1) << (m - (n - 1)))


def _edge_halves(out: BitString, n: int) -> tuple[BitString, BitString]:
    return out[0:n], out[n : 2 * n]


def edges_form_clique(
    r_plus_1: int, edges: Sequence[tuple[BitString, BitString]]
) -> Optional[frozenset[int]]:
    """Vertex set when the edge multiset is exactly all pairs over r+1 distinct vertices."""
    if len(edges) != binomial(r_plus_1, 2):
        return None
    seen: set[frozenset[int]] = set()
    verts: set[int] = set()
    for u, v in edges:
        if u.value == v.value:
            return None
        pair = frozenset((u.value, v.value))
        if pair in seen:
            return None
        seen.add(pair)
        verts |= pair
    if len(verts) != r_plus_1:
        return None
    want = {frozenset((a, b)) for a in verts for b in verts if a < b}
    return frozenset(verts) if seen == want else None


class _Clauses:
    """Per-instance evaluation context shared by the clause checkers."""

    def __init__(self, inst: ProblemInstance):
        self.inst = inst
        self.n = inst.n
        self.c = inst.circuit

    def out(self, x: BitString) -> BitString:
        return self.c.eval(x)

    def color(self, u: BitString, v: BitString) -> int:
        """Color value of the edge (u, v): the circuit on u || v."""
        return self.c.value_at((u.value << v.width) | v.value)

    def edge(self, i: BitString) -> tuple[BitString, BitString]:
        return _edge_halves(self.c.eval(i), self.n)


def _check_clause(ctx: _Clauses, sol: Solution) -> Optional[str]:
    """None when the clause holds; otherwise the reason it fails."""
    inst, n = ctx.inst, ctx.n
    name, tag = inst.pid.name, sol.tag
    w = dict(sol.witness)

    if name == "weak_pigeon":
        x, y = w["x"], w["y"]
        if x.value == y.value:
            return "witnesses must be distinct"
        if ctx.out(x) != ctx.out(y):
            return "outputs differ"
        return None

    if name == "pigeon":
        if tag == "i":
            x = w["x"]
            if ctx.out(x).value != 0:
                return "output is not the all-zero string"
            return None
        x, y = w["x"], w["y"]
        if x.value == y.value:
            return "witnesses must be distinct"
        if ctx.out(x) != ctx.out(y):
            return "outputs differ"
        return None

    if name == "general_pigeon":
        if tag == "i":
            x, y = w["x"], w["y"]
            if x.value == y.value:
                return "witnesses must be distinct"
            if ctx.out(x) != ctx.out(y):
                return "outputs differ"
            return None
        if ctx.out(w["x"]).value >= inst.pid.k:
            return f"output is not among the first {inst.pid.k} values"
        return None

    if name in ("weak_ekr", "weak_gekr", "ekr", "gekr"):
        k = inst.pid.k if inst.pid.k is not None else 2
        tight = name in ("ekr", "gekr")
        thr = binomial(k * n - 1, n - 1)

        def below(v: BitString) -> bool:
            return v.value < thr

        if tag == "i":
            x = w["x"]
            if tight and not below(x):
                return f"index must be below {thr}"
            if _weight(ctx.out(x)) == n:
                return "set has the allowed size"
            return None
        if tag == "ii":
            x, y = w["x"], w["y"]
            if x.value == y.value:
                return "witnesses must be distinct"
            if tight and not (below(x) and below(y)):
                return f"indices must be below {thr}"
            if ctx.out(x) != ctx.out(y):
                return "sets differ"
            return None
        if tag == "iii":
            x, y = w["x"], w["y"]
            if tight and not (below(x) and below(y)):
                return f"indices must be below {thr}"
            if not _disjoint(ctx.out(x), ctx.out(y)):
                return "sets intersect"
            return None
        # tag == "iv", tight families only
        x = w["x"]
        if not below(x):
            return f"index must be below {thr}"
        got = ctx.out(x)
        if name == "ekr":
            targets = (_block(2, n, 0), _block(2, n, 1))
        else:
            targets = tuple(_block(k, n, j) for j in range(k))
        if got not in targets:
            return "set is not one of the designated blocks"
        return None

    if name in ("weak_sperner", "sperner"):
        thr = binomial(2 * n, n)
        if tag == "i":
            x, y = w["x"], w["y"]
            if x.value == y.value:
                return "witnesses must be distinct"
            if name == "sperner" and not (x.value < thr and y.value < thr):
                return f"indices must be below {thr}"
            if not _subset(ctx.out(x), ctx.out(y)):
                return "first set is not contained in the second"
            return None
        x = w["x"]
        if x.value >= thr:
            return f"index must be below {thr}"
        if ctx.out(x) != BitString(2 * n, (1 << n) - 1):
            return "set is not the upper half block"
        return None

    if name in ("weak_cayley", "cayley"):
        thr = n ** (n - 2)
        if tag == "i":
            x = w["x"]
            if name == "cayley" and x.value >= thr:
                return f"index must be below {thr}"
            if is_spanning_tree(n, ctx.out(x)):
                return "graph is a spanning tree"
            return None
        if tag == "ii":
            x, y = w["x"], w["y"]
            if x.value == y.value:
                return "witnesses must be distinct"
            if name == "cayley" and x.value >= thr:
                return f"first index must be below {thr}"
            if ctx.out(x) != ctx.out(y):
                return "graphs differ"
            return None
        x = w["x"]
        if x.value >= thr:
            return f"index must be below {thr}"
        if ctx.out(x) != star_tree(n):
            return "graph is not the star rooted at vertex 1"
        return None

    if name in _WS_FAMILY:
        a, b, cc = inst.abc
        if tag == "i":
            if ctx.color(a, b) != ctx.color(a, cc):
                return "the two designated edges have different colors"
            return None
        if tag == "ii":
            x, y = w["x"], w["y"]
            if ctx.color(x, y) == ctx.color(y, x):
                return "coloring is symmetric on this pair"
            return None
        if tag == "iii":
            x, y, z = w["x"], w["y"], w["z"]
            if len({x.value, y.value, z.value}) != 3:
                return "vertices must be distinct"
            if ctx.color(x, y) != ctx.color(y, z):
                return "the two designated edges differ in color"
            if ctx.color(x, y) == ctx.color(x, z):
                return "triangle is monochromatic"
            return None
        # tag == "iv": two triangles with the same color profile
        x, y, z = w["x"], w["y"], w["z"]
        x2, y2, z2 = w["x2"], w["y2"], w["z2"]
        first = {x.value, y.value, z.value}
        second = {x2.value, y2.value, z2.value}
        if len(first) != 3 or len(second) != 3:
            return "each triple must have 3 distinct vertices"
        if first == second:
            return "the triangles must be distinct as sets"
        if ctx.color(x, y) != ctx.color(x2, y2):
            return "first edge colors differ"
        if ctx.color(x, z) != ctx.color(x2, z2):
            return "second edge colors differ"
        if ctx.color(y, z) != ctx.color(y2, z2):
            return "third edge colors differ"
        if name == "ws_colorful":
            profile = {ctx.color(x, y), ctx.color(x, z), ctx.color(y, z)}
            if len(profile) != 3:
                return "first triangle is not trichromatic"
        return None

    if name in ("weak_mantel", "mantel", "weak_turan", "turan"):
        r = inst.pid.r if inst.pid.r is not None else 2
        if name == "turan":
            big_n, big_m = inst.nm
            if tag == "i":
                honest = (
                    big_n % r == 0
                    and big_n <= 2 ** n
                    and big_n + r > 2 ** n
                    and 2 * r * big_m == (r - 1) * big_n * big_n
                )
                if honest:
                    return "parameters N and M are consistent"
                return None

            def in_range(i: BitString) -> bool:
                return i.value < big_m

        else:

            def in_range(i: BitString) -> bool:
                return True

        if tag == ("iii" if name == "turan" else "i") and name in ("weak_turan", "turan"):
            idx = [w[f"i{t}"] for t in range(1, clique_size(r) + 1)]
            if len({i.value for i in idx}) != len(idx):
                return "indices must be distinct"
            if not all(in_range(i) for i in idx):
                return "indices must be below M"
            if edges_form_clique(r + 1, [ctx.edge(i) for i in idx]) is None:
                return f"edges do not form a clique on {r + 1} vertices"
            return None
        if tag == "i" and name in ("weak_mantel", "mantel"):
            i, j, kk = w["i"], w["j"], w["k"]
            if len({i.value, j.value, kk.value}) != 3:
                return "indices must be distinct"
            if edges_form_clique(3, [ctx.edge(i), ctx.edge(j), ctx.edge(kk)]) is None:
                return "edges do not form a triangle"
            return None
        if tag == "ii" and name == "turan":
            i = w["i"]
            if not in_range(i):
                return "index must be below M"
            u, v = ctx.edge(i)
            if u.value < big_n and v.value < big_n:
                return "both endpoints are below N"
            return None
        if tag == ("iv" if name == "turan" else "ii"):
            i = w["i"]
            if not in_range(i):
                return "index must be below M"
            u, v = ctx.edge(i)
            if u.value < v.value:
                return "endpoints are strictly increasing"
            return None
        if tag == ("v" if name == "turan" else "iii"):
            i, j = w["i"], w["j"]
            if i.value == j.value:
                return "indices must be distinct"
            if not (in_range(i) and in_range(j)):
                return "indices must be below M"
            if ctx.out(i) != ctx.out(j):
                return "edges differ"
            return None
        if tag == ("vi" if name == "turan" else "iv"):
            i = w["i"]
            if not in_range(i):
                return "index must be below M"
            u, v = ctx.edge(i)
            if v.value != (u.value + 1) % (2 ** n):
                return "second endpoint is not the successor of the first"
            return None

    raise DomainError(f"unknown problem {name!r}")


def verify(inst: ProblemInstance, sol: Solution) -> Verdict:
    wf = inst.wellformed_verdict
    if not wf:
        return wf
    try:
        names = witness_names(inst.pid, sol.tag)
    except DomainError as exc:
        return Verdict.rejected(str(exc))
    got = tuple(key for key, _ in sol.witness)
    if got != names:
        return Verdict.rejected(f"type {sol.tag} needs witnesses {names}, got {got}")
    # ws-family witnesses are single vertices, half the pair-input width
    expect_w = 2 * inst.n if inst.pid.name in _WS_FAMILY else inst.in_width
    for key, value in sol.witness:
        if value.width != expect_w:
            return Verdict.rejected(
                f"witness {key} has width {value.width}, expected {expect_w}"
            )
    reason = _check_clause(_Clauses(inst), sol)
    if reason is None:
        return Verdict.accepted(sol.tag)
    return Verdict.rejected(f"type {sol.tag}: {reason}")


# ---------------------------------------------------------------------------
# random instances


def honest_turan_params(r: int, n: int) -> tuple[int, int]:
    big_n = (2 ** n // r) * r
    big_m = (r - 1) * big_n * big_n // (2 * r)
    return big_n, big_m


def random_table(rng: np.random.Generator, in_w: int, out_w: int) -> Table:
    """A uniform random truth table: 2**in_w rows drawn from rng as uint64."""
    if out_w > 64:
        raise CapabilityError(f"random tables have at most 64 output bits, this one needs {out_w}")
    return Table(in_w, out_w, rng.integers(0, 2 ** out_w, size=2 ** in_w, dtype=np.uint64))


def gen_random_instance(pid: ProblemId, n: int, seed: int) -> ProblemInstance:
    """Deterministic random instance: a uniform truth table plus honest auxiliaries."""
    in_w, out_w = circuit_shape(pid, n)
    if in_w > GEN_WIDTH_CAP:
        raise CapabilityError(f"instance input width {in_w} exceeds generation cap {GEN_WIDTH_CAP}")
    rng = np.random.Generator(np.random.PCG64(seed))
    table = random_table(rng, in_w, out_w)
    abc = None
    nm = None
    if pid.name in _WS_FAMILY:
        while True:
            vals = [int(v) for v in rng.integers(0, 2 ** (2 * n), size=3, dtype=np.uint64)]
            if len(set(vals)) == 3:
                break
        abc = tuple(BitString(2 * n, v) for v in vals)
    if pid.name == "turan":
        nm = honest_turan_params(pid.r, n)
    return ProblemInstance(pid, n, table, abc=abc, nm=nm)


# ---------------------------------------------------------------------------
# file formats


def instance_to_text(inst: ProblemInstance) -> str:
    lines = [f"PROBLEM {inst.pid.name}"]
    param = f"PARAM n={inst.n}"
    if inst.pid.k is not None:
        param += f" k={inst.pid.k}"
    if inst.pid.r is not None:
        param += f" r={inst.pid.r}"
    lines.append(param)
    if inst.abc is not None:
        a, b, c = inst.abc
        lines.append(f"AUX a={a} b={b} c={c}")
    if inst.nm is not None:
        lines.append(f"AUX N={inst.nm[0]} M={inst.nm[1]}")
    lines.append(circuit_to_text(inst.circuit))
    return "\n".join(lines)


def _parse_kv(parts: list[str], lineno: int) -> dict[str, str]:
    out = {}
    for part in parts:
        if "=" not in part:
            raise ParseError(f"expected key=value, got {part!r}", lineno)
        key, _, value = part.partition("=")
        out[key] = value
    return out


def instance_from_text(text: str) -> ProblemInstance:
    lines = text.splitlines()
    pos = 0

    def next_content() -> tuple[int, str]:
        nonlocal pos
        while pos < len(lines) and not lines[pos].strip():
            pos += 1
        if pos >= len(lines):
            raise ParseError("unexpected end of instance", len(lines))
        pos += 1
        return pos, lines[pos - 1].strip()

    lineno, head = next_content()
    if not head.startswith("PROBLEM "):
        raise ParseError("expected PROBLEM line", lineno)
    name = head.split()[1]
    lineno, param = next_content()
    if not param.startswith("PARAM "):
        raise ParseError("expected PARAM line", lineno)
    kv = _parse_kv(param.split()[1:], lineno)
    try:
        n = int(kv["n"])
        k = int(kv["k"]) if "k" in kv else None
        r = int(kv["r"]) if "r" in kv else None
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad PARAM line: {exc}", lineno) from None
    try:
        pid = ProblemId(name, k=k, r=r)
    except DomainError as exc:
        raise ParseError(str(exc), lineno) from None

    abc = None
    nm = None
    lineno, nxt = next_content()
    while nxt.startswith("AUX "):
        kv = _parse_kv(nxt.split()[1:], lineno)
        if "a" in kv:
            try:
                abc = tuple(BitString.from_str(kv[key]) for key in ("a", "b", "c"))
            except (KeyError, DomainError) as exc:
                raise ParseError(f"bad AUX line: {exc}", lineno) from None
        elif "N" in kv:
            try:
                nm = (int(kv["N"]), int(kv["M"]))
            except (KeyError, ValueError) as exc:
                raise ParseError(f"bad AUX line: {exc}", lineno) from None
        else:
            raise ParseError("AUX line needs a=/b=/c= or N=/M=", lineno)
        lineno, nxt = next_content()
    if not nxt.startswith("CIRCUIT"):
        raise ParseError("expected CIRCUIT block", lineno)
    circuit = circuit_from_text("\n".join(lines[lineno - 1 :]), start_line=lineno)
    return ProblemInstance(pid, n, circuit, abc=abc, nm=nm)


def solution_to_text(sol: Solution) -> str:
    lines = [f"SOLUTION type={sol.tag}"]
    for key, value in sol.witness:
        lines.append(f"WITNESS {key}={value}")
    return "\n".join(lines)


def solution_from_text(text: str) -> Solution:
    tag = None
    witness: list[tuple[str, BitString]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("SOLUTION"):
            kv = _parse_kv(line.split()[1:], lineno)
            if "type" not in kv:
                raise ParseError("SOLUTION line needs type=", lineno)
            tag = kv["type"]
        elif line.startswith("WITNESS "):
            kv = _parse_kv(line.split()[1:], lineno)
            for key, value in kv.items():
                try:
                    witness.append((key, BitString.from_str(value)))
                except DomainError as exc:
                    raise ParseError(str(exc), lineno) from None
        else:
            raise ParseError(f"unexpected line {line!r}", lineno)
    if tag is None:
        raise ParseError("missing SOLUTION line", 1)
    return Solution(tag, tuple(witness))


def all_solution_tags(pid: ProblemId) -> tuple[str, ...]:
    name = pid.name
    if name == "weak_pigeon":
        return ("ii",)
    if name == "weak_sperner":
        return ("i",)
    if name in ("pigeon", "general_pigeon", "weak_cayley", "sperner"):
        return ("i", "ii")
    if name in ("weak_ekr", "weak_gekr", "weak_mantel", "weak_turan", "ws", "cayley"):
        return ("i", "ii", "iii")
    if name in ("ekr", "gekr", "ws_collisions", "ws_colorful", "mantel"):
        return ("i", "ii", "iii", "iv")
    if name == "turan":
        return ("i", "ii", "iii", "iv", "v", "vi")
    raise DomainError(f"unknown problem {name!r}")
