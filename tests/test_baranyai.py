"""Parallel-class table tests: exact cover, counts, canonical first class,
the committed golden tables, the search bound, and the class-index lookup."""

import hashlib
import re
import time
from itertools import combinations
from pathlib import Path

import pytest

from tfnpkit import encodings
from tfnpkit.encodings import (
    baranyai_index,
    baranyai_table,
    baranyai_verify,
    bitmap_of_edges,
)
from tfnpkit.errors import CapabilityError, DomainError
from tfnpkit.numerics import BitString, binomial, bits_of

CASES = [(2, 2), (2, 3), (3, 2), (4, 2), (2, 4)]
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "baranyai_tables"


def naive_check(k, n, classes):
    universe = set(range(1, k * n + 1))
    blocks = [b for cls in classes for b in cls]
    assert len(blocks) == len(set(blocks))
    assert set(blocks) == {tuple(c) for c in combinations(sorted(universe), n)}
    for cls in classes:
        assert len(cls) == k
        assert sorted(x for b in cls for x in b) == sorted(universe)


@pytest.mark.parametrize("k,n", CASES)
def test_table_is_exact_cover(k, n):
    classes = baranyai_table(k, n)
    assert len(classes) == binomial(k * n - 1, n - 1)
    naive_check(k, n, classes)
    ok, msg = baranyai_verify(k, n, classes)
    assert ok, msg


@pytest.mark.parametrize("k,n", CASES)
def test_first_class_is_consecutive_runs(k, n):
    classes = baranyai_table(k, n)
    want = [tuple(range(i * n + 1, (i + 1) * n + 1)) for i in range(k)]
    assert classes[0] == want


def _table_text(classes):
    """A table printed as in the golden files: one class a line, a blank
    line after each."""
    return "".join(" ".join("{" + ",".join(map(str, b)) + "}" for b in cls) + "\n\n"
                   for cls in classes)[:-1]


def _golden_classes(text):
    """Parse a committed table: one class per non-blank line, blocks as {a,b}."""
    return [
        [tuple(int(x) for x in tok.split(",")) for tok in re.findall(r"\{([0-9,]+)\}", line)]
        for line in text.splitlines()
        if line.strip()
    ]


@pytest.mark.parametrize("k,n", [(2, 2), (3, 2)])
def test_table_matches_committed_golden_file(k, n):
    raw = (GOLDEN_DIR / f"baranyai_k{k}_n{n}.txt").read_bytes()
    encodings._table_memo.pop((k, n), None)
    classes = baranyai_table(k, n)
    assert classes == _golden_classes(raw.decode("ascii"))
    assert raw == _table_text(classes).encode("ascii")


def test_verify_rejects_broken_tables():
    good = baranyai_table(2, 2)
    ok, _ = baranyai_verify(2, 2, good)
    assert ok
    assert not baranyai_verify(2, 2, good[:-1])[0]
    swapped = [good[1], good[0]] + good[2:]
    ok, msg = baranyai_verify(2, 2, swapped)
    assert not ok and "canonical" in msg
    dup = [list(good[0])] + good[1:]
    dup[1] = list(good[0])
    assert not baranyai_verify(2, 2, dup)[0]


def test_index_lookup_consistent():
    k, n = 2, 3
    classes = baranyai_table(k, n)
    for ci, cls in enumerate(classes, start=1):
        for block in cls:
            v = 0
            for x in block:
                v |= 1 << (k * n - x)
            assert baranyai_index(k, n, bits_of(v, k * n)) == ci
    with pytest.raises(DomainError):
        baranyai_index(k, n, BitString.from_str("111100"))
    with pytest.raises(DomainError):
        baranyai_index(k, n, bits_of(0, k * n))


def test_cap_enforced():
    with pytest.raises(CapabilityError):
        baranyai_table(10, 5)
    with pytest.raises(DomainError):
        baranyai_table(0, 2)


# every size under the table cap whose search completes, with k >= 3 and
# n >= 2, and the sha256 prefix of its printed table
SEARCHED = [
    (3, 2, "c62fb78e9d3044a3"), (4, 2, "808eeac177186367"), (5, 2, "349dc24b2911112b"),
    (6, 2, "481692a8e0fe9e01"), (7, 2, "5b1f701b27bbfc5f"), (8, 2, "f7c3b52c906c21de"),
    (9, 2, "542e8e5a57f0eef4"), (10, 2, "1faa14c5dd3a9091"), (11, 2, "c8d1344b71429a22"),
    (12, 2, "770b93468b6521cb"), (16, 2, "fb9e70867e98b462"), (32, 2, "fea9106efcf3aadf"),
    (64, 2, "2e033e2a2dd5a349"), (3, 3, "40133c24e40be16c"),
]


@pytest.mark.parametrize("k,n,digest", SEARCHED)
def test_searched_tables_are_unchanged(k, n, digest):
    encodings._table_memo.pop((k, n), None)
    text = _table_text(baranyai_table(k, n))
    assert hashlib.sha256(text.encode("ascii")).hexdigest()[:16] == digest


def test_search_bound_is_exact_in_nodes(monkeypatch):
    # (3, 3) completes in exactly 10,282 nodes
    monkeypatch.setattr(encodings, "BARANYAI_SEARCH_NODES", 10_281)
    encodings._table_memo.pop((3, 3), None)
    with pytest.raises(CapabilityError, match="10281 search nodes"):
        baranyai_table(3, 3)
    monkeypatch.setattr(encodings, "BARANYAI_SEARCH_NODES", 10_282)
    assert len(baranyai_table(3, 3)) == binomial(8, 2)


@pytest.mark.parametrize("k,n", [(4, 3), (5, 3), (3, 4), (13, 2)])
def test_stalled_search_raises_within_budget(k, n):
    t0 = time.monotonic()
    with pytest.raises(CapabilityError, match="search nodes"):
        baranyai_table(k, n)
    assert time.monotonic() - t0 < 5.0
    assert (k, n) not in encodings._table_memo


def test_library_writes_no_file(tmp_path, monkeypatch, capsys):
    from tfnpkit.cli import main
    from tfnpkit.solvers import fuzz_soundness

    monkeypatch.chdir(tmp_path)
    encodings._table_memo.pop((3, 2), None)
    for idx in (6, 8):
        rep = fuzz_soundness(idx, trials=1, seed=0)
        assert rep["ok"] and rep["failures"] == 0
    assert baranyai_index(3, 2, BitString.from_str("110000")) == 1
    assert main(["baranyai", "3", "2"]) == 0
    assert "RESULT: PASS" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
