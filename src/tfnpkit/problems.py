"""Total search problems over circuit-encoded collections.

Each problem is a relation between an instance (one Boolean circuit plus,
for some families, auxiliary constants) and a finite list of solution
clauses, described once by its ``ProblemSpec`` in ``catalog.SPECS``.  This
module holds the problem ids, instances and solutions, their text formats
and random generation, and the readers of the spec table: ``circuit_shape``,
``witness_names``, ``all_solution_tags``, ``wellformed`` and ``verify``.
``verify`` evaluates the defining clause of a tagged solution verbatim,
including every threshold side condition, and reports either
``Accepted(tag)`` or ``Rejected(reason)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .catalog import (
    SPECS,
    Clause,
    ProblemSpec,
    clique_size,
    edges_form_clique,
    honest_turan_params,
    star_tree,
)
from .circuit import (MAX_TABLE_WIDTH, Circuit, Table, from_text as circuit_from_text,
                      to_text as circuit_to_text)
from .encodings import is_spanning_tree
from .errors import CapabilityError, DomainError, ParseError
from .numerics import BitString

__all__ = [
    "PROBLEM_NAMES",
    "ProblemId",
    "ProblemInstance",
    "Solution",
    "Verdict",
    "all_solution_tags",
    "circuit_shape",
    "clique_size",
    "edges_form_clique",
    "gen_random_instance",
    "honest_turan_params",
    "instance_from_text",
    "instance_to_text",
    "is_spanning_tree",
    "make_solution",
    "random_aux",
    "random_table",
    "seeded_rng",
    "solution_from_text",
    "star_tree",
    "solution_to_text",
    "solution_order_key",
    "verify",
    "wellformed",
    "witness_names",
]

PROBLEM_NAMES = tuple(SPECS)


@dataclass(frozen=True)
class ProblemId:
    """Problem name plus its structural parameters (k for block families, r for clique families)."""

    name: str
    k: Optional[int] = None
    r: Optional[int] = None

    def __post_init__(self) -> None:
        spec = SPECS.get(self.name)
        if spec is None:
            raise DomainError(f"unknown problem {self.name!r}")
        for key in ("k", "r"):
            value = getattr(self, key)
            if key in spec.params:
                if value is None or value < spec.params[key]:
                    raise DomainError(f"{self.name} needs {key} >= {spec.params[key]}, got {value}")
            elif value is not None:
                raise DomainError(f"{self.name} takes no {key} parameter")

    @property
    def spec(self) -> ProblemSpec:
        return SPECS[self.name]

    def __str__(self) -> str:
        parts = [self.name]
        if self.k is not None:
            parts.append(f"k={self.k}")
        if self.r is not None:
            parts.append(f"r={self.r}")
        return " ".join(parts)


def circuit_shape(pid: ProblemId, n: int) -> tuple[int, int]:
    """(in_width, out_width) of the main circuit demanded by the defining relation."""
    spec = pid.spec
    if n < spec.min_n:
        raise DomainError(f"{pid.name} needs n >= {spec.min_n}, got {n}")
    return spec.shape(n, pid.k)


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


def _clause(pid: ProblemId, tag: str) -> Clause:
    clause = pid.spec.clauses.get(tag)
    if clause is None:
        raise DomainError(f"{pid.name} has no solution type {tag!r}")
    return clause


def witness_names(pid: ProblemId, tag: str) -> tuple[str, ...]:
    """Canonical witness field names for a solution tag, in file and comparison order."""
    return _clause(pid, tag).names(pid)


def all_solution_tags(pid: ProblemId) -> tuple[str, ...]:
    """The problem's solution tags in canonical order."""
    return tuple(pid.spec.clauses)


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
    spec = pid.spec
    if spec.k_counts_values and pid.k > 2 ** n:
        return Verdict.rejected(f"{pid.name} k={pid.k} exceeds range 2^{n}")
    if spec.vertex_pairs:
        if inst.abc is None:
            return Verdict.rejected(f"{pid.name} needs vertex constants a, b, c")
        a, b, cc = inst.abc
        if not (a.width == b.width == cc.width == 2 * n):
            return Verdict.rejected("vertex constants must have width 2n")
        if len({a.value, b.value, cc.value}) != 3:
            return Verdict.rejected("vertex constants a, b, c must be distinct")
    elif inst.abc is not None:
        return Verdict.rejected(f"{pid.name} takes no vertex constants")
    if spec.nm:
        if inst.nm is None:
            return Verdict.rejected(f"{pid.name} needs integers N and M")
        if inst.nm[0] < 0 or inst.nm[1] < 0:
            return Verdict.rejected("N and M must be nonnegative")
    elif inst.nm is not None:
        return Verdict.rejected(f"{pid.name} takes no N/M parameters")
    return Verdict.accepted("wellformed")


def verify(inst: ProblemInstance, sol: Solution) -> Verdict:
    wf = inst.wellformed_verdict
    if not wf:
        return wf
    pid = inst.pid
    try:
        clause = _clause(pid, sol.tag)
    except DomainError as exc:
        return Verdict.rejected(str(exc))
    names = clause.names(pid)
    got = tuple(key for key, _ in sol.witness)
    if got != names:
        return Verdict.rejected(f"type {sol.tag} needs witnesses {names}, got {got}")
    expect_w = pid.spec.witness_width(inst.n, inst.in_width)
    for key, value in sol.witness:
        if value.width != expect_w:
            return Verdict.rejected(
                f"witness {key} has width {value.width}, expected {expect_w}"
            )
    reason = clause.check(inst, sol.values())
    if reason is None:
        return Verdict.accepted(sol.tag)
    return Verdict.rejected(f"type {sol.tag}: {reason}")


# ---------------------------------------------------------------------------
# random instances


def seeded_rng(seed: int) -> np.random.Generator:
    """The PCG64 generator that random instances are drawn from."""
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def random_table(rng: np.random.Generator, in_w: int, out_w: int) -> Table:
    """A uniform random truth table: 2**in_w rows drawn from rng as uint64."""
    if in_w > MAX_TABLE_WIDTH:
        raise CapabilityError(f"random tables have at most {MAX_TABLE_WIDTH} input bits, got {in_w}")
    if out_w > 64:
        raise CapabilityError(f"random tables have at most 64 output bits, this one needs {out_w}")
    return Table(in_w, out_w, rng.integers(0, 2 ** out_w, size=2 ** in_w, dtype=np.uint64))


def gen_random_instance(pid: ProblemId, n: int, seed: int) -> ProblemInstance:
    """Deterministic random instance: a uniform truth table plus honest auxiliaries."""
    in_w, out_w = circuit_shape(pid, n)
    rng = seeded_rng(seed)
    table = random_table(rng, in_w, out_w)
    return ProblemInstance(pid, n, table, *random_aux(pid, n, rng))


def random_aux(pid: ProblemId, n: int, rng: np.random.Generator
               ) -> tuple[Optional[tuple[BitString, BitString, BitString]], Optional[tuple[int, int]]]:
    """(abc, nm) for a random instance: three distinct random vertices for a
    vertex-pair problem, the honest N and M for one that takes them."""
    abc = nm = None
    if pid.spec.vertex_pairs:
        while True:
            vals = [int(v) for v in rng.integers(0, 2 ** (2 * n), size=3, dtype=np.uint64)]
            if len(set(vals)) == 3:
                break
        abc = tuple(BitString(2 * n, v) for v in vals)
    if pid.spec.nm:
        nm = honest_turan_params(pid.r, n)
    return abc, nm


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


def _content_lines(text: str):
    """(line number, offset, stripped line) of each non-blank line of text,
    split and numbered as ``str.splitlines`` does.  The text is split one
    prefix at a time, the prefix doubling, so reading the header of an
    instance file does not split the circuit text that follows it."""
    lineno = offset = 0
    size = 1 << 10
    while offset < len(text):
        lines = text[offset:offset + size].splitlines(True)
        if offset + size < len(text):
            lines.pop()  # perhaps cut short, or a "\r" cut from its "\n"
        for line in lines:
            lineno += 1
            if line.strip():
                yield lineno, offset, line.strip()
            offset += len(line)
        size *= 2


def instance_from_text(text: str) -> ProblemInstance:
    """Parse the header lines here and hand the text from the CIRCUIT line
    on to the circuit parser, which numbers its lines from there."""
    content = _content_lines(text)

    def next_content() -> tuple[int, int, str]:
        item = next(content, None)
        if item is None:
            raise ParseError("unexpected end of instance", len(text.splitlines()))
        return item

    lineno, _, head = next_content()
    if not head.startswith("PROBLEM "):
        raise ParseError("expected PROBLEM line", lineno)
    name = head.split()[1]
    lineno, _, param = next_content()
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
    lineno, start, nxt = next_content()
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
        lineno, start, nxt = next_content()
    if not nxt.startswith("CIRCUIT"):
        raise ParseError("expected CIRCUIT block", lineno)
    circuit = circuit_from_text(text[start:], start_line=lineno)
    return ProblemInstance(pid, n, circuit, abc=abc, nm=nm)


def solution_to_text(sol: Solution) -> str:
    lines = [f"SOLUTION type={sol.tag}"]
    for key, value in sol.witness:
        lines.append(f"WITNESS {key}={value}")
    return "\n".join(lines)


def solution_from_text(text: str) -> Solution:
    tag = None
    witness: list[tuple[str, BitString]] = []
    for lineno, _, line in _content_lines(text):
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

