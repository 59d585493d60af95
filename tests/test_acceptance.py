"""Acceptance gate: ten independent criteria, one test and one printed
pass/fail line each.  Each criterion recomputes its expected values from
first principles (ascending-order oracles, counting identities, exhaustive
scans) rather than trusting the module under test."""

import time
from itertools import combinations

import pytest

from tfnpkit.circuit import Builtin, Case, Compose, Gate, GateNet, Piecewise, Slice
from tfnpkit.cli import main
from tfnpkit.encodings import (
    baranyai_verify,
    baranyai_table,
    catalan_expand,
    catalan_factorize,
    chain_representative,
    check_property_preserving,
    cover_decode,
    cover_encode,
    cover_width,
    edge_count,
    is_spanning_tree,
    lexpair_decode,
    lexpair_encode,
    lexpair_width,
    prufer_decode_rank,
    prufer_encode_rank,
)
from tfnpkit.numerics import BitString, binomial, bits_of
from tfnpkit.problems import PROBLEM_NAMES, ProblemId, gen_random_instance
from tfnpkit.reductions import build_entry, apply as apply_reduction
from tfnpkit.solvers import (
    SolveBudget,
    brute_force_solve,
    designed_instances,
    enumerate_solutions,
    ramsey_explicit,
    random_coloring,
)


_capsys = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    # lets report() print through pytest's capture, so the ten criterion
    # lines show up even when every test passes
    global _capsys
    _capsys = capsys
    yield
    _capsys = None


def report(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}"
    if _capsys is not None:
        with _capsys.disabled():
            print(line)
    else:
        print(line)
    assert ok, detail


# ---------------------------------------------------------------------------


def test_criterion_01_codec_bijections_exhaustive():
    t0 = time.monotonic()
    # cover: ranks must follow ascending characteristic-vector order
    pairs = 0
    for m in range(1, 13):
        for k in range(0, m + 1):
            w = cover_width(k, m)
            rank = 0
            for v in range(1 << m):
                if bin(v).count("1") != k:
                    continue
                assert cover_encode(k, m, bits_of(v, m)).value == rank
                assert cover_decode(k, m, bits_of(rank, w)).value == v
                rank += 1
            assert rank == binomial(m, k)
            pairs += 1
    # lexpair: rank equals position in the sorted pair list
    for n in range(1, 5):
        all_pairs = list(combinations(range(1 << n), 2))
        w = lexpair_width(n)
        for r, (u, v) in enumerate(all_pairs):
            assert lexpair_encode(n, bits_of(u, n), bits_of(v, n)).value == r
            du, dv = lexpair_decode(n, bits_of(r, w))
            assert (du.value, dv.value) == (u, v)
    assert len(list(combinations(range(16), 2))) == 120
    # prufer: bijection between spanning trees and the first n^(n-2) ranks
    tree_totals = {}
    for n in range(3, 6):
        m = edge_count(n)
        trees = [g for g in range(1 << m) if is_spanning_tree(n, bits_of(g, m))]
        tree_totals[n] = len(trees)
        assert len(trees) == n ** (n - 2)
        seen = set()
        for g in trees:
            r = prufer_encode_rank(n, bits_of(g, m))
            assert prufer_decode_rank(n, r).value == g
            seen.add(r.value)
        assert seen == set(range(len(trees)))
    assert tree_totals[4] == 16
    # catalan: factorize/expand are mutually inverse on every width-12 string
    for v in range(1 << 12):
        x = bits_of(v, 12)
        form, level = catalan_factorize(x)
        assert catalan_expand(form, level) == x
    elapsed = time.monotonic() - t0
    report(1, elapsed < 10.0,
           f"cover {pairs} (k,m) pairs, lexpair n<=4, prufer n<=5, "
           f"catalan 4096 strings in {elapsed:.2f}s")


def test_criterion_02_worked_factorization_example():
    form, level = catalan_factorize(BitString.from_str("01101100"))
    ok = (form, level) == ("zz101100", 1)
    expansions = [str(catalan_expand("zz101100", l)) for l in (1, 0, 2)]
    ok = ok and expansions == ["01101100", "00101100", "11101100"]
    report(2, ok, f"factorize -> ({form}, {level}); expansions {expansions}")


def test_criterion_03_lower_block_and_leading_bit():
    checked = 0
    for n in range(2, 6):
        m, alpha = 2 * n, cover_width(n, 2 * n)
        half = binomial(2 * n - 1, n - 1)
        # the all-zero rank decodes to the lower block
        got = cover_decode(n, m, bits_of(0, alpha))
        assert str(got) == "0" * n + "1" * n
        # rank geometry backing the leading-bit argument
        assert (1 << (alpha - 2)) < half <= (1 << (alpha - 1))
        rank = 0
        for v in range(1 << m):
            if bin(v).count("1") != n:
                continue
            avoids_first = (v >> (m - 1)) & 1 == 0
            enc = cover_encode(n, m, bits_of(v, m))
            # sets avoiding element 1 occupy exactly the low half of ranks
            assert avoids_first == (rank < half) == (enc.value < half)
            if avoids_first:
                assert enc.bit(0) == 0
            if enc.value < (1 << (alpha - 2)):
                assert avoids_first
            rank += 1
            checked += 1
    report(3, True, f"lower-block decode and leading-bit split on {checked} vectors, n in 2..5")


def test_criterion_04_chain_partition_counts():
    t0 = time.monotonic()
    counts = {}
    for n in range(1, 7):
        w = 2 * n
        forms = set()
        for v in range(1 << w):
            x = bits_of(v, w)
            forms.add(catalan_factorize(x)[0])
            assert chain_representative(x).weight == n
        counts[n] = len(forms)
        assert counts[n] == binomial(2 * n, n)
    elapsed = time.monotonic() - t0
    report(4, elapsed < 30.0,
           f"class counts {counts} match central binomials in {elapsed:.2f}s")


def test_criterion_05_baranyai_desk_scale():
    from tfnpkit import encodings as enc_mod

    cases = [(2, 2), (2, 3), (3, 2), (4, 2), (2, 4)]
    t0 = time.monotonic()
    sizes = {}
    for k, n in cases:
        enc_mod._table_memo.pop((k, n), None)  # honest timing: rebuild, no memo
        classes = baranyai_table(k, n)
        ok, msg = baranyai_verify(k, n, classes)
        assert ok, msg
        assert len(classes) == binomial(k * n - 1, n - 1)
        assert classes[0] == [tuple(range(i * n + 1, (i + 1) * n + 1)) for i in range(k)]
        sizes[(k, n)] = len(classes)
    elapsed = time.monotonic() - t0
    report(5, elapsed < 60.0, f"tables {sizes} exact-cover verified in {elapsed:.2f}s")


def test_criterion_06_check_all_100_trials(capsys):
    t0 = time.monotonic()
    code = main(["check", "all", "--trials", "100", "--seed", "0"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    lines = [ln for ln in out.splitlines() if ln.startswith("entry")]
    ok = code == 0 and "RESULT: PASS" in out and len(lines) == 27
    ok = ok and all("failures=0" in ln and " pass " in ln for ln in lines)
    report(6, ok and elapsed < 300.0,
           f"check all --trials 100: exit {code}, 27 entries, {elapsed:.1f}s")


def test_criterion_07_purity_of_hardness_images():
    t0 = time.monotonic()
    forbidden_by_entry = {2: ("i", "iii"), 14: ("i",), 17: ("ii",), 22: ("i", "ii")}
    scanned = {}
    for idx, forbidden in forbidden_by_entry.items():
        red = build_entry(idx)
        insts = designed_instances(red.source, red.source_n)
        insts += [gen_random_instance(red.source, red.source_n, s) for s in range(10)]
        hits = 0
        for inst in insts:
            tgt = apply_reduction(red, inst)
            # per-type caps cannot hide a nonempty type: the scan only stops
            # after emitting, so an empty result is an exact emptiness proof
            sols, _ = enumerate_solutions(tgt, SolveBudget(max_per_type=50))
            assert sols
            bad = [s for s in sols if s.tag in forbidden]
            assert not bad, (idx, bad[:3])
            hits += len(sols)
        scanned[idx] = hits
    elapsed = time.monotonic() - t0
    report(7, elapsed < 60.0,
           f"entries 2/14/17/22 image scans {scanned} forbidden-free in {elapsed:.1f}s")


def test_criterion_08_totality_fuzz_500():
    t0 = time.monotonic()
    structural = {"general_pigeon": {"k": 2}, "weak_gekr": {"k": 3}, "gekr": {"k": 3},
                  "weak_turan": {"r": 2}, "turan": {"r": 2}}
    small_n = {"weak_ekr": 2, "ekr": 2, "weak_gekr": 2, "gekr": 2,
               "weak_sperner": 2, "sperner": 2, "weak_cayley": 3, "cayley": 3,
               "weak_mantel": 2, "mantel": 2, "weak_turan": 2, "turan": 2}
    per_problem = 28  # 18 problems x 28 = 504 instances
    solved = {}
    for name in PROBLEM_NAMES:
        pid = ProblemId(name, **structural.get(name, {}))
        n = small_n.get(name, 1)
        count = 0
        for seed in range(per_problem):
            inst = gen_random_instance(pid, n, 1000 + seed)
            brute_force_solve(inst)  # IntegrityError would fail the test
            count += 1
        solved[name] = count
    total = sum(solved.values())
    elapsed = time.monotonic() - t0
    assert len(PROBLEM_NAMES) == 18 and total >= 500
    assert solved["weak_mantel"] == per_problem
    report(8, elapsed < 300.0,
           f"{total} random instances across 18 problems all solvable in {elapsed:.1f}s")


def test_criterion_09_ramsey_bounds():
    bounds = {16: 2, 64: 3, 256: 4}
    t0 = time.monotonic()
    worst = {}
    for big_n, need in bounds.items():
        sizes = []
        for seed in range(50):
            c = random_coloring(big_n, seed)
            clique = ramsey_explicit(c)  # halving invariants assert inside
            col = c.color(clique[0], clique[1]) if len(clique) >= 2 else 0
            for i, u in enumerate(clique):
                for v in clique[i + 1:]:
                    assert c.color(u, v) == col
            sizes.append(len(clique))
        worst[big_n] = min(sizes)
        assert worst[big_n] >= need
    single = time.monotonic()
    ramsey_explicit(random_coloring(256, 999))
    single = time.monotonic() - single
    elapsed = time.monotonic() - t0
    report(9, single < 1.0,
           f"min clique sizes {worst} over 50 seeds each; N=256 run {single * 1000:.0f}ms "
           f"(total {elapsed:.1f}s)")


def _complement_net(m: int) -> GateNet:
    gates = [Gate("INPUT", i) for i in range(m)]
    gates += [Gate("NOT", i) for i in range(m)]
    return GateNet(m, gates, list(range(m, 2 * m)))


def test_criterion_10_property_preserving_encodings():
    results = {}

    # sets under equal-or-disjoint: rank whichever of x / complement(x)
    # avoids the first element, dropping the always-zero leading rank bit
    for n in (2, 3, 4):
        m, alpha = 2 * n, cover_width(n, 2 * n)
        enc = Builtin("cover_encode", k=n, m=m)
        dispatch = Piecewise([
            Case(enc, 0, 1 << (m - 1)),
            Case(Compose(enc, _complement_net(m)), 0, 1 << m),
        ])
        pair_enc = Slice(dispatch, 1, alpha)
        rep = check_property_preserving(
            pair_enc,
            lambda x, n=n: x.weight == n,
            lambda a, b: a == b or (a.value ^ b.value) == (1 << a.width) - 1,
        )
        assert rep.ok and rep.violation is None
        assert rep.domain_size == binomial(2 * n, n)
        assert rep.class_count == binomial(2 * n, n) // 2
        assert rep.image_size == rep.class_count <= rep.domain_size
        results[f"pair n={n}"] = (rep.domain_size, rep.image_size)

    # subsets under same-chain: rank of the balanced chain representative
    for n in (2, 3, 4):
        chain_enc = Compose(Builtin("cover_encode", k=n, m=2 * n),
                            Builtin("chain_rep", n=n))
        rep = check_property_preserving(
            chain_enc,
            None,
            lambda a, b: catalan_factorize(a)[0] == catalan_factorize(b)[0],
        )
        assert rep.ok and rep.violation is None
        assert rep.domain_size == 1 << (2 * n)
        assert rep.class_count == binomial(2 * n, n)
        assert rep.image_size == rep.class_count <= rep.domain_size
        results[f"chain n={n}"] = (rep.domain_size, rep.image_size)

    # spanning trees under equality: the tree rank itself
    for n in (3, 4):
        rep = check_property_preserving(
            Builtin("prufer_encode", n=n),
            lambda x, n=n: is_spanning_tree(n, x),
            lambda a, b: a == b,
        )
        assert rep.ok and rep.violation is None
        assert rep.domain_size == n ** (n - 2)
        assert rep.class_count == rep.image_size == rep.domain_size
        results[f"tree n={n}"] = (rep.domain_size, rep.image_size)

    report(10, True, f"domain/image counts {results}")
