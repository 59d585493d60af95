"""Fixed-width bit vectors and the exact integer helpers used everywhere else.

A BitString is big-endian: the first character of ``str(b)`` is the most
significant bit, so lexicographic order on equal-width strings coincides with
numeric order on their values.  All arithmetic is arbitrary-precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator

from .errors import CapabilityError, DomainError

# Largest m of binomial(m, k), and n of the tree count n^(n-2), that the exact
# counts accept: far above every registry size, and low enough that a count
# takes microseconds and prints within Python's int-to-str digit limit.
MAX_COUNT_ARG = 1024


@dataclass(frozen=True, order=False)
class BitString:
    """Immutable bit vector of fixed width; value in [0, 2**width)."""

    width: int
    value: int

    def __post_init__(self):
        if self.width < 0:
            raise DomainError(f"negative width {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise DomainError(f"value {self.value} out of range for width {self.width}")

    @classmethod
    def from_str(cls, s: str) -> "BitString":
        if s and set(s) - {"0", "1"}:
            raise DomainError(f"not a bitstring: {s!r}")
        return cls(len(s), int(s, 2) if s else 0)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        v = 0
        w = 0
        for b in bits:
            if b not in (0, 1):
                raise DomainError(f"bit must be 0 or 1, got {b!r}")
            v = (v << 1) | b
            w += 1
        return cls(w, v)

    def __str__(self) -> str:
        return format(self.value, f"0{self.width}b") if self.width else ""

    def __repr__(self) -> str:
        return f'BitString("{self}")'

    def __len__(self) -> int:
        return self.width

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits())

    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> (self.width - 1 - i)) & 1 for i in range(self.width))

    def bit(self, i: int) -> int:
        """Bit at 0-based position i counted from the left (most significant)."""
        if not 0 <= i < self.width:
            raise DomainError(f"bit index {i} out of range for width {self.width}")
        return (self.value >> (self.width - 1 - i)) & 1

    def __getitem__(self, key) -> "BitString":
        if isinstance(key, slice):
            start, stop, step = key.indices(self.width)
            if step != 1:
                raise DomainError("only contiguous slices are supported")
            w = max(stop - start, 0)
            return BitString(w, (self.value >> (self.width - start - w)) & ((1 << w) - 1))
        return BitString(1, self.bit(key))

    def concat(self, other: "BitString") -> "BitString":
        return BitString(self.width + other.width, (self.value << other.width) | other.value)

    def complement(self) -> "BitString":
        return BitString(self.width, ((1 << self.width) - 1) ^ self.value)

    @property
    def weight(self) -> int:
        return self.value.bit_count()

    def _check_comparable(self, other: "BitString") -> None:
        if self.width != other.width:
            raise DomainError(f"cannot order widths {self.width} and {other.width}")

    def __lt__(self, other: "BitString") -> bool:
        self._check_comparable(other)
        return self.value < other.value

    def __le__(self, other: "BitString") -> bool:
        self._check_comparable(other)
        return self.value <= other.value

    def __gt__(self, other: "BitString") -> bool:
        return other < self

    def __ge__(self, other: "BitString") -> bool:
        return other <= self


def bits_of(value: int, width: int) -> BitString:
    if value < 0:
        raise DomainError(f"negative value {value}")
    if value >= (1 << width):
        raise DomainError(f"value {value} does not fit in {width} bits")
    return BitString(width, value)


def binomial(m: int, k: int) -> int:
    if m < 0 or k < 0 or k > m:
        raise DomainError(f"binomial({m}, {k}) undefined here")
    if m > MAX_COUNT_ARG:
        raise CapabilityError(f"binomial({m}, {k}) is past the counting cap {MAX_COUNT_ARG}")
    return comb(m, k)


def ceil_log2(v: int) -> int:
    """Smallest a with 2**a >= v, for v >= 1."""
    if v < 1:
        raise DomainError(f"ceil_log2 needs v >= 1, got {v}")
    return (v - 1).bit_length()
