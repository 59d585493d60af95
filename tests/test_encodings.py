"""Codec tests against independent oracles: every rank is recomputed here by
naive enumeration before being compared to the library's answer."""

from itertools import combinations

import numpy as np
import pytest

from tfnpkit.circuit import Builtin, apply_many
from tfnpkit.encodings import (
    PAIR_SCAN_CAP,
    catalan_expand,
    catalan_factorize,
    chain_representative,
    check_property_preserving,
    cover_decode,
    cover_encode,
    cover_width,
    edge_bit_index,
    edge_count,
    edges_of_bitmap,
    bitmap_of_edges,
    is_spanning_tree,
    lexpair_decode,
    lexpair_encode,
    lexpair_width,
    pair_count,
    prufer_decode_rank,
    prufer_encode_rank,
    prufer_width,
    tree_count,
)
from tfnpkit.errors import CapabilityError, DomainError, OutOfRangeError
from tfnpkit.numerics import MAX_COUNT_ARG, BitString, binomial, bits_of, ceil_log2


def B(s):
    return BitString.from_str(s)


def naive_weight_k(m, k):
    """All weight-k values of width m, ascending — the rank order by definition."""
    return sorted(v for v in range(1 << m) if bin(v).count("1") == k)


# ---------------------------------------------------------------------------
# cover codec


@pytest.mark.parametrize("m,k", [(4, 2), (6, 3), (8, 4), (9, 3), (12, 6), (10, 2)])
def test_cover_round_trip_exhaustive(m, k):
    order = naive_weight_k(m, k)
    w = cover_width(k, m)
    assert w == ceil_log2(binomial(m, k))
    for rank, v in enumerate(order):
        enc = cover_encode(k, m, bits_of(v, m))
        assert enc.value == rank
        assert cover_decode(k, m, bits_of(rank, w)).value == v


def test_cover_rank_zero_is_lower_block():
    for n in range(2, 6):
        got = cover_decode(n, 2 * n, bits_of(0, cover_width(n, 2 * n)))
        assert str(got) == "0" * n + "1" * n


def test_cover_leading_bit_splits_rank_range():
    # sets avoiding the first element occupy exactly the ranks below C(m-1, n)
    for n in range(2, 6):
        m = 2 * n
        cut = binomial(m - 1, n)
        for rank, v in enumerate(naive_weight_k(m, n)):
            avoids_first = (v >> (m - 1)) & 1 == 0
            assert avoids_first == (rank < cut)


def test_cover_off_weight_clamps_down():
    # clamp = largest weight-k value not above the input; below all -> rank 0
    m, k = 6, 3
    order = naive_weight_k(m, k)
    for v in range(1 << m):
        got = cover_encode(k, m, bits_of(v, m)).value
        below = [x for x in order if x <= v]
        assert got == (order.index(below[-1]) if below else 0)


def test_cover_decode_rejects_out_of_range_rank():
    with pytest.raises(OutOfRangeError):
        cover_decode(2, 4, bits_of(6, cover_width(2, 4)))
    with pytest.raises(DomainError):
        cover_decode(2, 4, bits_of(0, 5))


# ---------------------------------------------------------------------------
# lexpair codec


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lexpair_round_trip_exhaustive(n):
    pairs = list(combinations(range(1 << n), 2))  # ascending (u, v): lex order
    assert len(pairs) == pair_count(n)
    w = lexpair_width(n)
    for rank, (u, v) in enumerate(pairs):
        assert lexpair_encode(n, bits_of(u, n), bits_of(v, n)).value == rank
        assert lexpair_encode(n, bits_of(v, n), bits_of(u, n)).value == rank
        du, dv = lexpair_decode(n, bits_of(rank, w))
        assert (du.value, dv.value) == (u, v)


def test_lexpair_corners():
    assert lexpair_encode(2, bits_of(0, 2), bits_of(1, 2)).value == 0
    assert lexpair_encode(2, bits_of(3, 2), bits_of(3, 2)).value == 0  # ties collapse
    with pytest.raises(OutOfRangeError):
        lexpair_decode(2, bits_of(6, lexpair_width(2)))


@pytest.mark.parametrize("n", [0, -1, -3])
def test_pair_and_chain_blocks_need_nonempty_strings(n):
    with pytest.raises(DomainError):
        lexpair_width(n)
    for name in ("lexpair_encode", "lexpair_decode", "chain_rep"):
        with pytest.raises(DomainError):
            Builtin(name, n=n)


# ---------------------------------------------------------------------------
# tree codec


def naive_trees(n):
    """All spanning-tree edge bitmaps on [n], by brute force over edge subsets."""
    m = edge_count(n)
    return [g for g in range(1 << m) if is_spanning_tree(n, bits_of(g, m))]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_prufer_bijection_exhaustive(n):
    trees = naive_trees(n)
    assert len(trees) == tree_count(n) == n ** (n - 2)
    m = edge_count(n)
    w = prufer_width(n)
    ranks = set()
    for g in trees:
        r = prufer_encode_rank(n, bits_of(g, m))
        assert prufer_decode_rank(n, r).value == g
        ranks.add(r.value)
    assert ranks == set(range(len(trees)))


def test_prufer_rank_zero_is_star_at_vertex_one():
    for n in range(3, 6):
        m = edge_count(n)
        star = bitmap_of_edges(n, [(1, j) for j in range(2, n + 1)])
        assert prufer_encode_rank(n, star).value == 0
        assert prufer_decode_rank(n, bits_of(0, prufer_width(n))) == star


def test_prufer_non_tree_clamps_to_rank_zero():
    n = 4
    m = edge_count(n)
    non_trees = [g for g in range(1 << m) if not is_spanning_tree(n, bits_of(g, m))]
    for g in non_trees[:40] + non_trees[-40:]:
        assert prufer_encode_rank(n, bits_of(g, m)).value == 0


def test_exact_counts_stop_at_the_counting_cap():
    assert binomial(MAX_COUNT_ARG, 2) == MAX_COUNT_ARG * (MAX_COUNT_ARG - 1) // 2
    assert tree_count(MAX_COUNT_ARG) == MAX_COUNT_ARG ** (MAX_COUNT_ARG - 2)
    assert prufer_width(MAX_COUNT_ARG) == (MAX_COUNT_ARG - 2) * 10
    for count in (lambda m: binomial(m, 1), tree_count, prufer_width):
        with pytest.raises(CapabilityError, match="past the counting cap 1024"):
            count(MAX_COUNT_ARG + 1)


def test_edge_bitmap_round_trip():
    n = 5
    for i, j in combinations(range(1, n + 1), 2):
        g = bitmap_of_edges(n, [(i, j)])
        assert g.weight == 1
        assert g.bit(edge_bit_index(n, i, j)) == 1
        assert edges_of_bitmap(n, g) == [(i, j)]


def test_spanning_tree_predicate():
    assert is_spanning_tree(3, B("110"))  # edges (1,2), (1,3)
    assert not is_spanning_tree(3, B("111"))  # triangle: cycle
    assert not is_spanning_tree(3, B("100"))  # too few edges
    # 3 edges forming a triangle on {1,2,3}: vertex 4 isolated
    assert not is_spanning_tree(4, bitmap_of_edges(4, [(1, 2), (1, 3), (2, 3)]))
    assert is_spanning_tree(4, bitmap_of_edges(4, [(1, 2), (1, 3), (3, 4)]))


# ---------------------------------------------------------------------------
# catalan factorization


def test_worked_factorization_example():
    form, level = catalan_factorize(B("01101100"))
    assert (form, level) == ("zz101100", 1)
    assert catalan_expand(form, 1) == B("01101100")
    assert catalan_expand(form, 0) == B("00101100")
    assert catalan_expand(form, 2) == B("11101100")


def test_factorize_rejects_odd_width():
    with pytest.raises(DomainError):
        catalan_factorize(B("011"))


def test_factorize_expand_inverse_exhaustive():
    for w in range(0, 13, 2):
        for v in range(1 << w):
            x = bits_of(v, w)
            form, level = catalan_factorize(x)
            assert catalan_expand(form, level) == x
            k = form.count("z")
            assert 0 <= level <= k
            # level counts how many of the unmatched slots carry ones
            assert sum(1 for i, ch in enumerate(form) if ch == "z" and x.bit(i)) == level


def test_forms_partition_into_catalan_classes():
    # distinct forms of width 2n number C(2n, n)
    for n in range(1, 7):
        forms = {catalan_factorize(bits_of(v, 2 * n))[0] for v in range(1 << (2 * n))}
        assert len(forms) == binomial(2 * n, n)


def test_chain_representative_weight_and_idempotence():
    for n in (1, 2, 3, 4):
        for v in range(1 << (2 * n)):
            x = bits_of(v, 2 * n)
            rep = chain_representative(x)
            assert rep.weight == n
            assert catalan_factorize(rep)[0] == catalan_factorize(x)[0]
            assert chain_representative(rep) == rep


def test_chain_representative_unique_balanced_fixed_point():
    n = 3
    lower = B("1" * n + "0" * n)
    assert chain_representative(lower) == lower
    hits = [v for v in range(1 << (2 * n))
            if chain_representative(bits_of(v, 2 * n)) == lower]
    assert hits == [lower.value]


# ---------------------------------------------------------------------------
# builtin circuit blocks mirror the functions


def test_builtins_match_functions():
    enc = Builtin("cover_encode", k=2, m=4)
    dec = Builtin("cover_decode", k=2, m=4)
    for v in range(16):
        x = bits_of(v, 4)
        assert enc.eval(x) == cover_encode(2, 4, x)
    for r in range(6):
        x = bits_of(r, cover_width(2, 4))
        assert dec.eval(x) == cover_decode(2, 4, x)
    rep = Builtin("chain_rep", n=2)
    for v in range(16):
        assert rep.eval(bits_of(v, 4)) == chain_representative(bits_of(v, 4))
    pe = Builtin("prufer_encode", n=4)
    for g in naive_trees(4):
        assert pe.eval(bits_of(g, 6)) == prufer_encode_rank(4, bits_of(g, 6))


# ---------------------------------------------------------------------------
# array kernels: vector evaluation of a block equals its scalar host


def assert_kernel_matches_host(blk, xs):
    xs = np.asarray(xs, dtype=np.int64)
    want = [blk._eval_value(int(x)) for x in xs]
    assert blk._many(xs).tolist() == want
    assert apply_many(blk, xs).tolist() == want


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_prufer_decode_kernel_matches_host(n):
    assert_kernel_matches_host(Builtin("prufer_decode", n=n), range(tree_count(n)))


COVER_SIZES = [(k, m) for m in range(11) for k in range(m + 1)] + [(6, 18), (7, 14)]


@pytest.mark.parametrize("k,m", COVER_SIZES)
def test_cover_decode_kernel_matches_host(k, m):
    assert_kernel_matches_host(Builtin("cover_decode", k=k, m=m), range(binomial(m, k)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_lexpair_encode_kernel_matches_host(n):
    assert_kernel_matches_host(Builtin("lexpair_encode", n=n), range(1 << (2 * n)))


@pytest.mark.parametrize("n", [20, 31])
def test_lexpair_encode_kernel_matches_host_on_wide_strings(n):
    # up to n = 31 the kernel's products stay below 2**63
    xs = np.random.default_rng(n).integers(0, 1 << (2 * n), 2000)
    assert_kernel_matches_host(Builtin("lexpair_encode", n=n), np.append(xs, (1 << (2 * n)) - 2))


def loop_error(blk, xs):
    """The error of the per-value loop over the sorted distinct values."""
    for x in sorted(set(xs)):
        try:
            blk._eval_value(x)
        except OutOfRangeError as e:
            return str(e)
    return None


@pytest.mark.parametrize("name,params,limit", [
    ("prufer_decode", {"n": 5}, 125),
    ("cover_decode", {"k": 3, "m": 7}, 35),
])
def test_decoder_kernels_fail_like_the_loop(name, params, limit):
    blk = Builtin(name, **params)
    top = (1 << blk.in_width) - 1
    assert_kernel_matches_host(blk, range(limit))
    for xs in ([limit, 0, 1], [top, 2, limit + 1, 0, top], [3, top, limit, limit + 1],
               [top, *range(limit + 1)][::-1]):
        want = loop_error(blk, xs)
        assert want is not None and want.startswith(f"rank {min(x for x in xs if x >= limit)} ")
        for evaluate in (blk._many, lambda a: apply_many(blk, a)):
            with pytest.raises(OutOfRangeError) as e:
                evaluate(np.array(xs))
            assert str(e.value) == want


# ---------------------------------------------------------------------------
# compressing-encoding checker


def test_property_checker_accepts_parity_classes():
    from tfnpkit.circuit import GateNet, Gate

    parity = GateNet(4, [Gate("INPUT", 0), Gate("INPUT", 1), Gate("INPUT", 2),
                         Gate("INPUT", 3), Gate("XOR", 0, 1), Gate("XOR", 4, 2),
                         Gate("XOR", 5, 3)], [6])
    rep = check_property_preserving(
        parity, None, lambda a, b: a.weight % 2 == b.weight % 2)
    assert rep.ok and rep.class_count == 2 and rep.image_size == 2
    assert rep.domain_size == 16 and rep.domain_size <= PAIR_SCAN_CAP


def test_property_checker_flags_violation():
    from tfnpkit.circuit import identity

    rep = check_property_preserving(identity(3), None, lambda a, b: True)
    assert not rep.ok and rep.violation is not None and rep.class_count == 1
