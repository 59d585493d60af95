"""Verifier tests.  naive_accepts below re-implements every solution clause
from the problem definitions using only circuit evaluation and plain integer
logic, then gets compared against verify() over the full witness-tuple space
at tiny sizes."""

from itertools import product

import pytest

import tfnpkit.problems as problems
from tfnpkit.circuit import MAX_TABLE_WIDTH, Table
from tfnpkit.encodings import is_spanning_tree
from tfnpkit.errors import CapabilityError, DomainError, ParseError
from tfnpkit.numerics import BitString, binomial, bits_of, ceil_log2
from tfnpkit.problems import (
    ProblemId,
    ProblemInstance,
    Solution,
    all_solution_tags,
    circuit_shape,
    clique_size,
    gen_random_instance,
    honest_turan_params,
    instance_from_text,
    instance_to_text,
    make_solution,
    solution_from_text,
    solution_order_key,
    solution_to_text,
    star_tree,
    verify,
    wellformed,
    witness_names,
)

WS = ("ws", "ws_collisions", "ws_colorful")


# ---------------------------------------------------------------------------
# independent clause logic


def naive_accepts(inst, tag, vals):
    """Reference decision for witness value tuple vals (plain ints)."""
    pid, n, c = inst.pid, inst.n, inst.circuit
    name = pid.name
    win = 2 * n if name in WS else c.in_width
    out = lambda v: c.eval(bits_of(v, c.in_width)).value
    col = lambda u, v: c.eval(bits_of((u << (2 * n)) | v, 4 * n)).value
    popcount = lambda v: bin(v).count("1")

    if name == "weak_pigeon":
        x, y = vals
        return x != y and out(x) == out(y)
    if name == "pigeon":
        if tag == "i":
            return out(vals[0]) == 0
        x, y = vals
        return x != y and out(x) == out(y)
    if name == "general_pigeon":
        if tag == "i":
            x, y = vals
            return x != y and out(x) == out(y)
        return out(vals[0]) < pid.k
    if name in ("weak_ekr", "ekr", "weak_gekr", "gekr"):
        k = pid.k if pid.k is not None else 2
        tight = name in ("ekr", "gekr")
        thr = binomial(k * n - 1, n - 1)
        if tag == "i":
            x = vals[0]
            return (not tight or x < thr) and popcount(out(x)) != n
        if tag == "ii":
            x, y = vals
            ok = not tight or (x < thr and y < thr)
            return x != y and ok and out(x) == out(y)
        if tag == "iii":
            x, y = vals
            ok = not tight or (x < thr and y < thr)
            return ok and out(x) & out(y) == 0
        x = vals[0]
        blocks = [((1 << n) - 1) << (k * n - (j + 1) * n) for j in range(k if name == "gekr" else 2)]
        return x < thr and out(x) in blocks
    if name in ("weak_sperner", "sperner"):
        thr = binomial(2 * n, n)
        if tag == "i":
            x, y = vals
            rng = name == "weak_sperner" or (x < thr and y < thr)
            return x != y and rng and out(x) | out(y) == out(y)
        x = vals[0]
        return x < thr and out(x) == (1 << n) - 1
    if name in ("weak_cayley", "cayley"):
        thr = n ** (n - 2)
        m = binomial(n, 2)
        if tag == "i":
            x = vals[0]
            rng = name == "weak_cayley" or x < thr
            return rng and not is_spanning_tree(n, bits_of(out(x), m))
        if tag == "ii":
            x, y = vals
            rng = name == "weak_cayley" or x < thr
            return x != y and rng and out(x) == out(y)
        x = vals[0]
        return x < thr and out(x) == star_tree(n).value
    if name in WS:
        if tag == "i":
            a, b, cc = (v.value for v in inst.abc)
            return col(a, b) == col(a, cc)
        if tag == "ii":
            x, y = vals
            return col(x, y) != col(y, x)
        if tag == "iii":
            x, y, z = vals
            return (len({x, y, z}) == 3 and col(x, y) == col(y, z)
                    and col(x, y) != col(x, z))
        x, y, z, x2, y2, z2 = vals
        if len({x, y, z}) != 3 or len({x2, y2, z2}) != 3:
            return False
        if {x, y, z} == {x2, y2, z2}:
            return False
        same = (col(x, y) == col(x2, y2) and col(x, z) == col(x2, z2)
                and col(y, z) == col(y2, z2))
        if name == "ws_colorful":
            return same and len({col(x, y), col(x, z), col(y, z)}) == 3
        return same
    if name in ("weak_mantel", "mantel", "weak_turan", "turan"):
        r = pid.r if pid.r is not None else 2
        uv = lambda i: divmod(out(i), 1 << n)
        if name == "turan":
            big_n, big_m = inst.nm
            rng = lambda i: i < big_m
        else:
            rng = lambda i: True
        if name == "turan" and tag == "i":
            honest = (big_n % r == 0 and big_n <= 2 ** n and big_n + r > 2 ** n
                      and 2 * r * big_m == (r - 1) * big_n * big_n)
            return not honest
        if tag == ("iii" if name == "turan" else "i"):
            if name in ("weak_mantel", "mantel"):
                want = 3
            else:
                want = r + 1
            if len(set(vals)) != len(vals) or not all(rng(i) for i in vals):
                return False
            pairs = set()
            verts = set()
            for i in vals:
                u, v = uv(i)
                if u == v:
                    return False
                pairs.add(frozenset((u, v)))
                verts |= {u, v}
            return (len(pairs) == len(vals) and len(verts) == want
                    and len(pairs) == want * (want - 1) // 2)
        if name == "turan" and tag == "ii":
            i = vals[0]
            u, v = uv(i)
            return rng(i) and (u >= big_n or v >= big_n)
        if tag == ("iv" if name == "turan" else "ii"):
            i = vals[0]
            u, v = uv(i)
            return rng(i) and u >= v
        if tag == ("v" if name == "turan" else "iii"):
            i, j = vals
            return i != j and rng(i) and rng(j) and out(i) == out(j)
        i = vals[0]
        u, v = uv(i)
        return rng(i) and v == (u + 1) % (1 << n)
    raise AssertionError(name)


CROSS_CASES = [
    ("weak_pigeon", 2, {}),
    ("pigeon", 2, {}),
    ("general_pigeon", 2, {"k": 3}),
    ("weak_ekr", 2, {}),
    ("ekr", 2, {}),
    ("weak_gekr", 2, {"k": 3}),
    ("gekr", 2, {"k": 3}),
    ("weak_sperner", 2, {}),
    ("sperner", 2, {}),
    ("weak_cayley", 3, {}),
    ("cayley", 3, {}),
    ("ws", 1, {}),
    ("ws_collisions", 1, {}),
    ("ws_colorful", 1, {}),
    ("weak_mantel", 2, {}),
    ("mantel", 2, {}),
    ("weak_turan", 2, {"r": 2}),
    ("turan", 2, {"r": 2}),
]


@pytest.mark.parametrize("name,n,extra", CROSS_CASES)
def test_verify_matches_naive_exhaustive(name, n, extra):
    pid = ProblemId(name, **extra)
    accepted_somewhere = 0
    for seed in (0, 1, 7):
        inst = gen_random_instance(pid, n, seed)
        win = 2 * n if name in WS else inst.in_width
        for tag in all_solution_tags(pid):
            arity = len(witness_names(pid, tag))
            for vals in product(range(1 << win), repeat=arity):
                sol = make_solution(pid, tag, *(bits_of(v, win) for v in vals))
                got = verify(inst, sol).ok
                want = naive_accepts(inst, tag, vals)
                assert got == want, (name, tag, vals, seed)
                accepted_somewhere += got
    assert accepted_somewhere > 0  # totality at this scale


def test_turan_dishonest_params_accept_the_empty_witness():
    pid = ProblemId("turan", r=2)
    honest = gen_random_instance(pid, 2, 0)
    assert not verify(honest, make_solution(pid, "i")).ok
    crooked = ProblemInstance(pid, 2, honest.circuit, nm=(honest.nm[0], honest.nm[1] + 1))
    assert verify(crooked, make_solution(pid, "i")).ok


def test_turan_clique_positive_case():
    # hand-built edge list: indices 0..5 enumerate K4 on vertices {0,1,2,3}
    pid = ProblemId("turan", r=3)
    n = 2
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    rows = [(u << n) | v for u, v in edges] + [0, 0]
    inst = ProblemInstance(pid, n, Table(3, 4, tuple(rows)), nm=(4, 6))
    assert wellformed(inst).ok
    vals = [bits_of(i, 3) for i in range(6)]
    assert verify(inst, make_solution(pid, "iii", *vals)).ok
    # any repeated index breaks it
    assert not verify(inst, make_solution(pid, "iii", *(vals[:5] + [vals[0]]))).ok
    # index 6 is out of range (M = 6) even though the row duplicates edge 0
    vals2 = vals[:5] + [bits_of(6, 3)]
    assert not verify(inst, make_solution(pid, "iii", *vals2)).ok


# ---------------------------------------------------------------------------
# verdict plumbing


def test_unknown_tag_and_bad_names_rejected():
    pid = ProblemId("pigeon")
    inst = gen_random_instance(pid, 2, 0)
    assert not verify(inst, Solution("vii", (("x", bits_of(0, 2)),))).ok
    assert not verify(inst, Solution("i", (("q", bits_of(0, 2)),))).ok
    assert not verify(inst, Solution("ii", (("x", bits_of(0, 2)),))).ok
    assert not verify(inst, Solution("i", (("x", bits_of(0, 3)),))).ok


def test_ws_witnesses_use_vertex_width():
    pid = ProblemId("ws")
    inst = gen_random_instance(pid, 1, 3)
    good = make_solution(pid, "ii", bits_of(0, 2), bits_of(1, 2))
    bad = make_solution(pid, "ii", bits_of(0, 4), bits_of(1, 4))
    assert not verify(inst, bad).ok
    # the width check fires before the clause, so `good` may go either way;
    # it must at least reach the clause rather than the width complaint
    verdict = verify(inst, good)
    assert verdict.ok or "width" not in verdict.reason


def test_malformed_instance_rejected_before_clauses():
    pid = ProblemId("pigeon")
    inst = ProblemInstance(pid, 2, Table(3, 2, (0,) * 8))
    assert not wellformed(inst).ok
    assert not verify(inst, make_solution(pid, "i", bits_of(0, 3))).ok


def test_wellformed_gates():
    ws_inst = gen_random_instance(ProblemId("ws"), 1, 0)
    assert wellformed(ws_inst).ok
    no_abc = ProblemInstance(ws_inst.pid, 1, ws_inst.circuit)
    assert not wellformed(no_abc).ok
    dup = ProblemInstance(ws_inst.pid, 1, ws_inst.circuit,
                          abc=(bits_of(0, 2), bits_of(0, 2), bits_of(1, 2)))
    assert not wellformed(dup).ok
    pg = gen_random_instance(ProblemId("pigeon"), 2, 0)
    stray = ProblemInstance(pg.pid, 2, pg.circuit, abc=ws_inst.abc)
    assert not wellformed(stray).ok
    stray_nm = ProblemInstance(pg.pid, 2, pg.circuit, nm=(1, 1))
    assert not wellformed(stray_nm).ok
    big_k = ProblemInstance(ProblemId("general_pigeon", k=5), 2,
                            Table(2, 2, (0, 1, 2, 3)))
    assert not wellformed(big_k).ok


# ---------------------------------------------------------------------------
# shapes and parameters


def test_circuit_shape_table():
    assert circuit_shape(ProblemId("weak_pigeon"), 3) == (4, 3)
    assert circuit_shape(ProblemId("pigeon"), 3) == (3, 3)
    assert circuit_shape(ProblemId("weak_ekr"), 2) == (ceil_log2(3) + 1, 4)
    assert circuit_shape(ProblemId("ekr"), 2) == (ceil_log2(3), 4)
    assert circuit_shape(ProblemId("weak_sperner"), 2) == (ceil_log2(6) + 1, 4)
    assert circuit_shape(ProblemId("weak_cayley"), 3) == (ceil_log2(3) + 1, 3)
    assert circuit_shape(ProblemId("ws"), 2) == (8, 2)
    assert circuit_shape(ProblemId("mantel"), 3) == (4, 6)
    assert circuit_shape(ProblemId("turan", r=3), 3) == (5, 6)
    with pytest.raises(DomainError):
        circuit_shape(ProblemId("cayley"), 2)
    with pytest.raises(DomainError):
        circuit_shape(ProblemId("sperner"), 1)


def test_problem_id_validation():
    with pytest.raises(DomainError):
        ProblemId("nope")
    with pytest.raises(DomainError):
        ProblemId("pigeon", k=2)
    with pytest.raises(DomainError):
        ProblemId("gekr")
    with pytest.raises(DomainError):
        ProblemId("weak_gekr", k=1)
    with pytest.raises(DomainError):
        ProblemId("turan")
    with pytest.raises(DomainError):
        ProblemId("weak_turan", r=1)
    with pytest.raises(DomainError):
        ProblemId("mantel", r=2)


def test_honest_turan_params():
    for r in (2, 3, 5):
        for n in (2, 3, 4, 6):
            big_n, big_m = honest_turan_params(r, n)
            assert big_n % r == 0
            assert big_n <= 2 ** n < big_n + r
            assert 2 * r * big_m == (r - 1) * big_n * big_n


def test_clique_size():
    assert [clique_size(r) for r in (2, 3, 4)] == [3, 6, 10]


# ---------------------------------------------------------------------------
# generation and serialization


def test_gen_is_deterministic_and_wellformed():
    for name, n, extra in CROSS_CASES:
        pid = ProblemId(name, **extra)
        a = gen_random_instance(pid, n, 42)
        b = gen_random_instance(pid, n, 42)
        assert instance_to_text(a) == instance_to_text(b)
        assert wellformed(a).ok
        c = gen_random_instance(pid, n, 43)
        assert instance_to_text(a) != instance_to_text(c)


class _NoDraws:
    """A generator stand-in that fails any draw."""

    def integers(self, *args, **kwargs):
        raise AssertionError("a table was drawn past the table cap")


def test_generation_past_the_table_cap_draws_nothing(monkeypatch):
    monkeypatch.setattr(problems, "seeded_rng", lambda seed: _NoDraws())
    # weak_pigeon at n has n + 1 input bits
    with pytest.raises(CapabilityError, match="at most 20 input bits, got 21"):
        gen_random_instance(ProblemId("weak_pigeon"), MAX_TABLE_WIDTH, 0)
    with pytest.raises(CapabilityError, match="at most 20 input bits, got 40"):
        problems.random_table(_NoDraws(), 40, 1)


@pytest.mark.parametrize("name,n,extra", CROSS_CASES)
def test_instance_text_round_trip(name, n, extra):
    pid = ProblemId(name, **extra)
    inst = gen_random_instance(pid, n, 5)
    back = instance_from_text(instance_to_text(inst))
    assert back.pid == inst.pid and back.n == inst.n
    assert back.abc == inst.abc and back.nm == inst.nm
    for v in range(1 << inst.in_width):
        x = bits_of(v, inst.in_width)
        assert back.circuit.eval(x) == inst.circuit.eval(x)


def test_solution_text_round_trip():
    pid = ProblemId("weak_mantel")
    sol = make_solution(pid, "i", bits_of(1, 3), bits_of(2, 3), bits_of(5, 3))
    back = solution_from_text(solution_to_text(sol))
    assert back == sol
    empty = make_solution(ProblemId("turan", r=2), "i")
    assert solution_from_text(solution_to_text(empty)) == empty


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        instance_from_text("PROBLEM pigeon\nPARAM oops\nCIRCUIT table 1 1\n0\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        solution_from_text("WITNESS x=01")
    with pytest.raises(ParseError):
        solution_from_text("SOLUTION type=i\nGIBBERISH")


def test_solution_order_key_sorts_tags_then_values():
    pid = ProblemId("cayley")
    a = make_solution(pid, "i", bits_of(1, 2))
    b = make_solution(pid, "ii", bits_of(0, 2), bits_of(1, 2))
    c = make_solution(pid, "iii", bits_of(0, 2))
    d = make_solution(pid, "ii", bits_of(0, 2), bits_of(2, 2))
    order = sorted([d, c, b, a], key=solution_order_key)
    assert order == [a, b, d, c]
    roman = ["i", "ii", "iii", "iv", "v", "vi"]
    assert sorted(roman) == roman


def test_make_solution_arity_checked():
    pid = ProblemId("pigeon")
    with pytest.raises(DomainError):
        make_solution(pid, "i", bits_of(0, 2), bits_of(1, 2))
    with pytest.raises(DomainError):
        make_solution(pid, "iii", bits_of(0, 2))
