import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfnpkit.circuit import (
    Builtin,
    Case,
    Compose,
    ConstOp,
    Gate,
    GateNet,
    GuardPrefix,
    PadLeft,
    Parallel,
    Piecewise,
    Slice,
    Table,
    append_const,
    apply_many,
    const_circuit,
    duplicate,
    embed,
    eq_const,
    eq_halves,
    eval_all,
    fanout,
    from_text,
    identity,
    le_halves,
    not_all,
    prepend_const,
    projection,
    shrink_chain,
    shrink_chain_pullback,
    swap_halves,
    take_low,
    to_text,
)
from tfnpkit.errors import DomainError
from tfnpkit.numerics import BitString
from tfnpkit.solvers import _fold_circuit


def B(s):
    return BitString.from_str(s)


def brute(c):
    return [c.eval(BitString(c.in_width, v)).value for v in range(1 << c.in_width)]


def test_table_eval_and_bounds():
    t = Table(2, 3, [5, 0, 7, 2])
    assert brute(t) == [5, 0, 7, 2]
    with pytest.raises(DomainError):
        Table(2, 2, [0, 1, 2])
    with pytest.raises(DomainError):
        Table(1, 1, [0, 2])


def test_gatenet_xor_of_inputs():
    g = GateNet(2, [Gate("INPUT", 0), Gate("INPUT", 1), Gate("XOR", 0, 1)], [2])
    assert brute(g) == [0, 1, 1, 0]


def test_gatenet_rejects_forward_reference():
    with pytest.raises(DomainError):
        GateNet(1, [Gate("NOT", 1), Gate("INPUT", 0)], [0])


def test_compose_runs_inner_first():
    inc = ConstOp("add", BitString(3, 1))
    dbl = Table(3, 3, [(2 * v) % 8 for v in range(8)])
    c = Compose(dbl, inc)  # dbl(inc(x))
    assert c.eval(B("001")).value == 4


def test_parallel_splits_first_bits_to_first_circuit():
    p = Parallel(not_all(2), identity(1))
    assert p.eval(B("101")).value == 0b011


def test_slice_is_left_based():
    c = Slice(identity(5), 1, 4)
    assert str(c.eval(B("10110"))) == "011"


def test_padleft_preserves_value():
    c = PadLeft(identity(3), 2)
    assert str(c.eval(B("101"))) == "00101"


def test_guard_prefix_applies_below_threshold_only():
    g = GuardPrefix(ConstOp("add", BitString(3, 1)), 4)
    assert [g.eval(BitString(3, v)).value for v in range(8)] == [1, 2, 3, 4, 4, 5, 6, 7]


def test_const_op_add_sub_xor():
    for op, expect in (("add", 5), ("sub", 1), ("xor", 1)):
        assert ConstOp(op, BitString(3, 2)).eval(BitString(3, 3)).value == expect


def test_piecewise_first_match_and_full_coverage():
    p = Piecewise((
        Case(const_circuit(B("11"), in_width=2), lo=0, hi=1),
        Case(not_all(2), lo=0, hi=4),
    ))
    assert brute(p) == [3, 2, 1, 0]
    with pytest.raises(DomainError):
        Piecewise((Case(identity(2), lo=0, hi=3),))  # last case must cover the range


def test_piecewise_predicate_case():
    is_odd = projection(2, [1])
    p = Piecewise((
        Case(const_circuit(B("10"), in_width=2), pred=is_odd),
        Case(identity(2), lo=0, hi=4),
    ))
    assert brute(p) == [0, 2, 2, 2]


def test_helpers_small():
    assert brute(identity(2)) == [0, 1, 2, 3]
    assert brute(const_circuit(B("01"), in_width=2)) == [1, 1, 1, 1]
    assert str(projection(3, [2, 0]).eval(B("100"))) == "01"
    assert str(duplicate(2, 2).eval(B("10"))) == "1010"
    assert brute(not_all(2)) == [3, 2, 1, 0]
    assert str(swap_halves(4).eval(B("1101"))) == "0111"
    assert str(append_const(2, B("0")).eval(B("11"))) == "110"
    assert str(prepend_const(2, B("0")).eval(B("11"))) == "011"
    assert brute(eq_const(2, 2)) == [0, 0, 1, 0]
    assert brute(eq_halves(4)) == [1 if (v >> 2) == (v & 3) else 0 for v in range(16)]
    assert brute(le_halves(4)) == [1 if (v >> 2) <= (v & 3) else 0 for v in range(16)]
    assert str(take_low(5, 2).eval(B("10110"))) == "10"


def test_fanout_shares_input():
    f = fanout([identity(2), not_all(2)])
    assert str(f.eval(B("10"))) == "1001"


def test_embed_acts_on_low_bits():
    inner = ConstOp("add", BitString(2, 1))
    e = embed(inner, 4)
    assert e.eval(B("0010")).value == 0b0011
    assert e.eval(B("1110")).value == 0b0011  # high bits dropped, output padded


@given(st.integers(2, 6), st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_shrink_chain_matches_stagewise_replay(m, extra, data):
    w_in = m + extra
    w_out = data.draw(st.integers(max(m - 1, 1), w_in - 1))
    rows = data.draw(st.lists(st.integers(0, (1 << (m - 1)) - 1),
                              min_size=1 << m, max_size=1 << m))
    cprime = Table(m, m - 1, rows)
    chain = shrink_chain(cprime, w_in, w_out)
    assert (chain.in_width, chain.out_width) == (w_in, w_out)

    def stage_eval(w, v):
        if w > m:
            hi = v >> (w - m)
            lo = v & ((1 << (w - m)) - 1)
            return (cprime._eval_value(hi) << (w - m)) | lo
        return cprime._eval_value(v)

    x = data.draw(st.integers(0, (1 << w_in) - 1))
    v = x
    for w in range(w_in, w_out, -1):
        v = stage_eval(w, v)
    assert chain.eval(BitString(w_in, x)).value == v


def test_shrink_chain_pullback_finds_first_stage_collision():
    rows = [v >> 1 for v in range(8)]  # 3 -> 2 floor halving: adjacent values collide
    cprime = Table(3, 2, rows)
    chain = shrink_chain(cprime, 6, 2)
    hit = None
    for x1 in range(64):
        for x2 in range(x1 + 1, 64):
            a, b = BitString(6, x1), BitString(6, x2)
            if chain.eval(a) == chain.eval(b):
                hit = (a, b)
                break
        if hit:
            break
    assert hit is not None
    u1, u2 = shrink_chain_pullback(cprime, 6, 2, hit[0], hit[1])
    assert u1.width == u2.width == 3
    assert u1 != u2
    assert cprime.eval(u1) == cprime.eval(u2)


def test_shrink_chain_pullback_rejects_non_collisions():
    cprime = Table(3, 2, [v >> 1 for v in range(8)])
    with pytest.raises(DomainError, match="distinct"):
        shrink_chain_pullback(cprime, 6, 2, B("101101"), B("101101"))
    # first bits differ in the last place only: stage one collides
    assert shrink_chain_pullback(cprime, 6, 2, B("100000"), B("101000")) == (B("100"), B("101"))
    # inputs differing in a bit that every stage passes through never meet
    with pytest.raises(DomainError, match="never met"):
        shrink_chain_pullback(cprime, 4, 3, B("0000"), B("0001"))
    with pytest.raises(DomainError, match="width"):
        shrink_chain_pullback(cprime, 6, 2, B("10110"), B("101101"))


@given(st.integers(1, 3), st.data())
@settings(max_examples=30, deadline=None)
def test_apply_many_agrees_with_pointwise(h, data):
    w = 2 * h
    top = 1 << w
    rows = data.draw(st.lists(st.integers(0, top - 1), min_size=top, max_size=top))
    lo, hi = sorted(data.draw(st.lists(st.integers(0, top), min_size=2, max_size=2)))
    c = data.draw(st.integers(0, top - 1))
    t = Table(w, w, rows)
    blk = Builtin("chain_rep", n=h)
    circuits = [
        t,
        le_halves(w),
        blk,
        Compose(blk, t),
        Parallel(t, not_all(1)),
        Slice(t, 1, w),
        PadLeft(t, 2),
        GuardPrefix(t, data.draw(st.integers(0, top))),
        ConstOp("add", BitString(w, c)),
        ConstOp("sub", BitString(w, c)),
        ConstOp("xor", BitString(w, c)),
        Piecewise((
            Case(Compose(ConstOp("xor", BitString(w, c)), t), lo=lo, hi=hi),
            Case(blk, pred=eq_halves(w)),
            Case(t, lo=0, hi=top),
        )),
    ]
    for circ in circuits:
        # the scalar interpreter is the reference; it never reads a table
        assert circ._table is None
        want = [circ._eval_value(v) for v in range(1 << circ.in_width)]
        assert list(eval_all(circ)) == want
        xs = np.array([0, (1 << circ.in_width) - 1, 1], dtype=np.int64)
        assert list(apply_many(circ, xs)) == [want[v] for v in xs]
        assert brute(circ) == want


def test_gatenet_bit_planes_match_scalar_interpreter():
    # every gate op, with inputs and outputs wider than one byte
    gates = [Gate("INPUT", i) for i in range(10)] + [
        Gate("CONST", 0), Gate("CONST", 1), Gate("NOT", 0), Gate("AND", 1, 2),
        Gate("OR", 3, 4), Gate("XOR", 5, 6), Gate("AND", 10, 7), Gate("OR", 11, 8),
        Gate("XOR", 12, 9), Gate("NOT", 15),
    ]
    net = GateNet(10, gates, list(range(10, 20)) + [9])
    assert list(eval_all(net)) == [net._eval_value(v) for v in range(1 << 10)]
    # the 22 -> 16 XOR fold that fuzz_instance puts in front of its table
    fold = _fold_circuit(22, 16)
    sample = [0, (1 << 22) - 1] + np.random.default_rng(0).integers(0, 1 << 22, 4096).tolist()
    table = eval_all(fold)
    assert [int(table[v]) for v in sample] == [fold._eval_value(v) for v in sample]


def test_eval_all_table_is_cached_and_read_only():
    c = Compose(not_all(3), Table(3, 3, [5, 0, 7, 2, 1, 1, 3, 6]))
    table = eval_all(c)
    assert eval_all(c) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1
    assert [c.eval(BitString(3, v)).value for v in range(8)] == list(table)


def test_serialization_round_trip():
    inner = Compose(
        Piecewise((
            Case(not_all(3), lo=0, hi=3),
            Case(GuardPrefix(ConstOp("add", BitString(3, 5)), 6), lo=0, hi=8),
        )),
        Parallel(Table(2, 2, [1, 2, 3, 0]), identity(1)),
    )
    c = Slice(PadLeft(inner, 2), 1, 5)
    text = to_text(c)
    back = from_text(text)
    assert back == c
    assert brute(back) == brute(c)


def test_eval_memo_consistency():
    t = Table(3, 3, list(range(8)))
    x = BitString(3, 5)
    assert t.eval(x) == t.eval(x) == x
