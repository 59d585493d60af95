import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tfnpkit.circuit as circuit_mod
from tfnpkit.circuit import (
    MAX_PARSE_DEPTH,
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
    table_prefix,
    take_low,
    to_text,
)
from tfnpkit.errors import CapabilityError, DomainError, ParseError
from tfnpkit.numerics import BitString
from tfnpkit.problems import (
    ProblemId,
    gen_random_instance,
    instance_from_text,
    instance_to_text,
    make_solution,
    verify,
)
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
        # the scalar interpreter is the reference; it never reads a table,
        # except a Table's own rows, which are its table
        assert circ._table is None or circ is t
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
    # seeded random nets: every point up to 16 inputs, a sample at 40 and 62
    rng = np.random.default_rng(23)
    plans = []
    for w, nets in ((0, 3), (1, 3), (2, 3), (5, 3), (9, 3), (12, 2), (16, 1), (40, 4), (62, 4)):
        for _ in range(nets):
            net = random_netlist(rng, w, 70)
            if w <= 16:
                points = np.arange(1 << w)
                got = eval_all(net)
            else:
                points = np.concatenate([[0, (1 << w) - 1], rng.integers(0, 1 << w, 2000)])
                got = apply_many(net, points)
            assert got.tolist() == [net._eval_value(int(v)) for v in points], (w, net.gates, net.outputs)
            plans.append(net._plan)
    # the nets exercise both shift directions, constants, and planes fed by
    # affine operands with and without a constant bit
    assert {d > 0 for _, terms, _, _ in plans for d, _ in terms} == {False, True}
    assert any(const for const, *_ in plans)
    assert {form[1] for _, _, steps, _ in plans for _, _, form in steps if form} == {0, 1}
    # a 3,000-gate AND chain and XOR chain: plans are built without recursion
    for op in ("AND", "XOR"):
        chain = GateNet(2, [Gate("INPUT", 0), Gate("INPUT", 1)]
                        + [Gate(op, i - 1, i % 2) for i in range(2, 3000)], [2999, 1500, 0])
        assert eval_all(chain).tolist() == [chain._eval_value(v) for v in range(4)]


def test_word_plan_term_counts():
    # (d, M_d) terms, and planes: the fold is two shifts, duplicate one per
    # copy, identity one, a constant none and no plane
    counts = [(len(terms), len(steps)) for _, terms, steps, _ in (
        c._word_plan() for c in (_fold_circuit(22, 16), duplicate(16, 3), identity(7),
                                 const_circuit(B("1011"), in_width=3)))]
    assert counts == [(2, 0), (3, 0), (1, 0), (0, 0)]
    # the plan waits for the first vector evaluation, then stays on the net
    fold = _fold_circuit(22, 16)
    assert fold._plan is None
    apply_many(fold, [5])
    assert fold._plan is fold._word_plan()


GATE_OPS = tuple(GateNet._ARITY)


def random_netlist(rng, w, size):
    """A seeded random GateNet on w inputs (no INPUT gate when w is 0) that
    mixes all six ops and holds the cases the word plan tells apart: a plane
    XOR-ed with an affine gate in both orders, NOT of AND, a repeated input
    cancelled by XOR, and outputs that repeat, are constant and come out of
    gate order."""
    x = Gate("INPUT", int(rng.integers(w))) if w else Gate("CONST", 1)
    # gate 5 is x XOR x, the same input read twice
    gates = [Gate("CONST", 0), Gate("CONST", 1), x, Gate("NOT", 2), x, Gate("XOR", 2, 4)]
    while len(gates) < size:
        op = str(rng.choice(GATE_OPS))
        a, b = (int(r) for r in rng.integers(0, len(gates), 2))
        if op == "INPUT" and w:
            gates.append(Gate(op, int(rng.integers(w))))
        elif op in ("INPUT", "CONST"):
            gates.append(Gate("CONST", a % 2))
        else:
            gates.append(Gate(op, a, b if GateNet._ARITY[op] == 2 else 0))
    p = len(gates)
    a, b = (int(r) for r in rng.integers(0, p, 2))
    gates += [Gate("AND", a, b), Gate("XOR", p, 3), Gate("XOR", 3, p), Gate("NOT", p),
              Gate("OR", p + 3, p + 1)]
    outs = rng.integers(0, len(gates), int(rng.integers(1, 50))).tolist()
    outs += [0, 1, 5, p + 1, p + 2, p + 3, p + 4, p + 1, 1]
    return GateNet(w, gates, outs)


def test_eval_all_table_is_cached_and_read_only():
    c = Compose(not_all(3), Table(3, 3, [5, 0, 7, 2, 1, 1, 3, 6]))
    table = eval_all(c)
    assert eval_all(c) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1
    assert [c.eval(BitString(3, v)).value for v in range(8)] == list(table)


def test_blocked_eval_all_matches_one_shot_apply_many(monkeypatch):
    # 18 input bits: four 2**16-input blocks through a GateNet fold, a Table,
    # Parallel and Slice, and Builtins with and without an array kernel
    rows = np.random.default_rng(11).integers(0, 1 << 16, 1 << 16)
    core = Compose(Table(16, 16, rows), _fold_circuit(18, 16))
    blocks = Compose(Parallel(Builtin("prufer_decode", n=4), Builtin("chain_rep", n=4)),
                     Slice(core, 2, 14))
    assert blocks.f.f._many is not None and blocks.f.g._many is None
    split = Parallel(Table(2, 2, [3, 1, 0, 2]), _fold_circuit(16, 8))
    c = fanout([core, blocks, split])
    assert c.in_width == 18
    want = apply_many(c, np.arange(1 << 18))
    calls = []
    monkeypatch.setattr(circuit_mod, "apply_many",
                        lambda c, xs: calls.append(len(xs)) or apply_many(c, xs))
    got = eval_all(c)
    assert calls == [1 << 16] * 4
    assert got.dtype == np.int64 and np.array_equal(got, want)
    for v in (0, 65535, 65536, 131071, 131072, (1 << 18) - 1):
        assert int(got[v]) == c._eval_value(v)


def test_blocked_eval_all_fails_like_one_shot_and_keeps_no_table():
    # ranks below C(22, 6) = 74613 decode: the first block is all in range,
    # the second holds the first out-of-range rank
    c = Builtin("cover_decode", k=6, m=22)
    assert c.in_width == 17
    with pytest.raises(DomainError) as one_shot:
        apply_many(c, np.arange(1 << 17))
    assert apply_many(c, np.arange(1 << 16)).shape == (1 << 16,)
    with pytest.raises(type(one_shot.value)) as blocked:
        eval_all(c)
    assert str(blocked.value) == str(one_shot.value)
    assert c._table is None


def test_table_prefix_resumes_and_ends_as_the_one_shot_table(monkeypatch):
    rows = np.random.default_rng(5).integers(0, 1 << 16, 1 << 16)
    c = Compose(Table(16, 16, rows), _fold_circuit(18, 16))
    want = apply_many(c, np.arange(1 << 18))
    calls = []
    monkeypatch.setattr(circuit_mod, "apply_many",
                        lambda c, xs: calls.append(len(xs)) or apply_many(c, xs))
    assert table_prefix(c, 0).shape == (0,) and calls == []
    head = table_prefix(c, 70000)
    assert calls == [1 << 16] * 2 and c._table is None
    assert np.array_equal(head, want[:70000]) and not head.flags.writeable
    assert np.array_equal(table_prefix(c, 100), want[:100]) and len(calls) == 2
    got = eval_all(c)
    assert calls == [1 << 16] * 4
    assert np.array_equal(got, want) and not got.flags.writeable
    assert c._table is got and eval_all(c) is got and c._fill is None
    assert np.array_equal(table_prefix(c, 9), want[:9]) and len(calls) == 4


def test_failing_block_keeps_the_filled_prefix_and_fails_again(monkeypatch):
    # cover_decode k=6 m=22: block 0 decodes, block 1 holds the first rank
    # past C(22, 6) = 74613
    c = Builtin("cover_decode", k=6, m=22)
    want = apply_many(c, np.arange(1 << 16))
    calls = []
    monkeypatch.setattr(circuit_mod, "apply_many",
                        lambda c, xs: calls.append(len(xs)) or apply_many(c, xs))
    with pytest.raises(DomainError) as first:
        eval_all(c)
    assert calls == [1 << 16] * 2 and c._table is None
    assert np.array_equal(table_prefix(c, 1 << 16), want) and len(calls) == 2
    with pytest.raises(DomainError) as again:
        eval_all(c)
    assert str(again.value) == str(first.value)
    assert calls == [1 << 16] * 3 and c._table is None


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


def test_depth_is_capped_at_construction():
    leaf = ConstOp("xor", BitString(2, 1))
    assert leaf.depth == 1
    c = leaf
    # 1,500 nested Compose nodes used to overflow the stack in eval and hash
    with pytest.raises(CapabilityError, match="nested deeper"):
        for _ in range(1500):
            c = Compose(ConstOp("xor", BitString(2, 1)), c)
    assert c.depth == MAX_PARSE_DEPTH
    # the deepest circuit allowed is the deepest the parser reads back
    assert from_text(to_text(c)) == c
    assert hash(c) == hash(from_text(to_text(c)))
    assert c.eval(BitString(2, 0)) == BitString(2, MAX_PARSE_DEPTH % 2)
    assert eval_all(c)[0] == MAX_PARSE_DEPTH % 2
    for wrap in (
        lambda x: Compose(leaf, x),
        lambda x: Compose(x, leaf),
        lambda x: Parallel(leaf, x),
        lambda x: Slice(x, 0, 1),
        lambda x: PadLeft(x, 1),
        lambda x: GuardPrefix(x, 1),
        lambda x: Piecewise((Case(leaf, pred=Slice(x, 0, 1)), Case(leaf, 0, 4))),
        lambda x: Piecewise((Case(x, 0, 4),)),
    ):
        with pytest.raises(CapabilityError, match="nested deeper"):
            wrap(c)


def test_registry_deepest_circuit_still_builds():
    # entry 17 at m=5: a 15-stage shrink chain inside a piecewise, 18 levels
    from tfnpkit.reductions import build_entry
    from tfnpkit.solvers import fuzz_instance

    red = build_entry(17, m=5)
    tgt = red.transform(fuzz_instance(red.source, 5, 0))
    assert tgt.circuit.depth == 18
    assert from_text(to_text(tgt.circuit)) == tgt.circuit


def test_eval_memo_consistency():
    t = Table(3, 3, list(range(8)))
    x = BitString(3, 5)
    assert t.eval(x) == t.eval(x) == x


# ---------------------------------------------------------------------------
# TABLE text codec against a row-by-row reference


def reference_tables(text, start_line=1):
    """Every TABLE of circuit text as (in, out, rows), in text order, read one
    row at a time: blank lines are skipped, a row's leading spaces and
    trailing whitespace dropped, and what is left must be out 0/1 digits.
    Raises the ParseError the parser reports for the first bad row."""
    lines = [(start_line + i, raw.lstrip(" ").rstrip())
             for i, raw in enumerate(text.splitlines()) if raw.strip()]
    tables = []
    pos = 0
    while pos < len(lines):
        _, head = lines[pos]
        pos += 1
        if head.split()[0] != "TABLE":
            continue
        attrs = dict(tok.split("=") for tok in head.split()[1:])
        in_w, out_w = int(attrs["in"]), int(attrs["out"])
        rows = []
        for _ in range(1 << in_w):
            if pos == len(lines):
                raise ParseError("unexpected end of circuit text")
            ln, row = lines[pos]
            pos += 1
            if set(row) - {"0", "1"} or len(row) != out_w:
                raise ParseError(f"bad table row {row!r}", ln)
            rows.append(int(row, 2))
        tables.append((in_w, out_w, rows))
    return tables


def tables_of(c):
    """(in, out, rows) of every Table in c, in the order to_text writes them."""
    if isinstance(c, Table):
        return [(c.in_width, c.out_width, [int(r) for r in c.rows])]
    return [t for kid in c._children() for t in tables_of(kid)]


def reference_table_text(t, indent):
    pad = " " * indent
    return "\n".join([f"{pad}TABLE in={t.in_width} out={t.out_width}"]
                     + [pad + format(int(r), f"0{t.out_width}b") for r in t.rows])


def parse_outcome(parse, text, start_line=1):
    try:
        return parse(text, start_line)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)


def assert_round_trip(c, placed=()):
    """to_text(c) holds each (table, indent) of placed as the reference writes
    it, and parsing it back gives c and the reference parser's tables."""
    text = to_text(c)
    for t, indent in placed:
        assert reference_table_text(t, indent) + "\n" in text
    back = from_text(text)
    assert back == c
    assert tables_of(back) == reference_tables(text) == tables_of(c)
    assert to_text(back) == text


def nested_tables():
    t1 = Table(4, 3, [(3 * v) % 8 for v in range(16)])
    t2 = Table(2, 2, [1, 2, 3, 0])
    t3 = Table(1, 2, [3, 1])
    t4 = Table(4, 3, [(5 * v + 1) % 8 for v in range(16)])
    c = Compose(
        Piecewise((Case(t4, lo=0, hi=5), Case(t1, lo=0, hi=16))),
        Parallel(t2, Compose(t3, identity(1))),
    )
    return c, ((t4, 6), (t1, 6), (t2, 4), (t3, 6))


def test_table_codec_round_trips_65536_rows():
    rows = np.random.default_rng(3).integers(0, 1 << 16, size=1 << 16)
    t = Table(16, 16, rows)
    assert_round_trip(t, [(t, 0)])
    assert to_text(t) == "CIRCUIT in=16 out=16\n" + reference_table_text(t, 0) + "\n"


def test_table_codec_round_trips_nested_and_short_tables():
    c, placed = nested_tables()
    assert_round_trip(c, placed)
    for t in (Table(0, 3, [5]), Table(1, 1, [1, 0]), Table(2, 62, [0, 1, (1 << 62) - 1, 1 << 61])):
        assert_round_trip(t, [(t, 0)])
        assert_round_trip(PadLeft(t, 1), [(t, 2)])


def test_table_codec_keeps_exact_rows_past_62_bits():
    inst = gen_random_instance(ProblemId("gekr", k=32), 2, 0)
    t = inst.circuit
    assert (t.in_width, t.out_width) == (6, 64) and t._table is None
    assert max(t.rows) >= 1 << 62
    assert_round_trip(t, [(t, 0)])
    assert_round_trip(Slice(t, 0, 63), [(t, 2)])
    back = instance_from_text(instance_to_text(inst))
    assert back.circuit == t
    x = next(x for x, r in enumerate(t.rows) if bin(r).count("1") != 2)
    sol = make_solution(inst.pid, "i", BitString(6, x))
    assert verify(inst, sol).ok and verify(back, sol).ok


def test_table_codec_skips_blank_lines_between_rows():
    c, _ = nested_tables()
    lines = to_text(c).split("\n")
    rows = [i for i, ln in enumerate(lines) if ln.strip() and set(ln.strip()) <= {"0", "1"}]
    for i, blank in zip(reversed(rows[1::3]), ("", "   ", "\t", " \t ")):
        lines.insert(i, blank)
    text = "\n".join(lines)
    assert from_text(text) == c
    assert tables_of(from_text(text)) == reference_tables(text) == tables_of(c)


def test_table_codec_reports_bad_rows_like_the_reference():
    c, _ = nested_tables()
    t = Table(3, 5, [v * 3 for v in range(8)])
    mutations = (
        lambda s: s[:-1] + "2",  # a bad character
        lambda s: s[:-1],  # one digit short
        lambda s: s + "0",  # one digit long
        lambda s: s.replace(s.strip(), "\t" + s.strip()),  # a leading tab
        lambda s: s.replace(s.strip(), s.strip()[0] + "\t" + s.strip()[1:]),  # a tab inside
        lambda s: s + "\t",  # a trailing tab: accepted
        lambda s: s + "  ",  # trailing spaces: accepted
        lambda s: " " + s,  # one more space of indent: accepted
        lambda s: s.replace("0", "O", 1) if "0" in s else s + "x",  # a letter
        lambda s: s.replace(" ", "\t", 1) if s.startswith(" ") else "\t" + s,  # tab for space
    )
    failures = 0
    for circ in (c, t):
        lines = to_text(circ).split("\n")
        rows = [i for i, ln in enumerate(lines) if ln.strip() and set(ln.strip()) <= {"0", "1"}]
        for i in (rows[0], rows[len(rows) // 2], rows[-1]):
            for mutate in mutations:
                text = "\n".join(lines[:i] + [mutate(lines[i])] + lines[i + 1:])
                for start_line in (1, 7):
                    want = parse_outcome(reference_tables, text, start_line)
                    got = parse_outcome(lambda s, n: tables_of(from_text(s, n)), text, start_line)
                    assert got == want, (lines[i], mutate(lines[i]), start_line)
                    if isinstance(got, tuple):
                        failures += 1
                        assert got[2] == start_line + i
    assert failures == 2 * 3 * 2 * 7
    # one row short and a later one long, so the rows still total the right size
    lines = to_text(t).split("\n")
    lines[3], lines[6] = lines[3][:-1], lines[6] + "1"
    text = "\n".join(lines)
    assert parse_outcome(from_text, text) == parse_outcome(reference_tables, text) == (
        "ParseError", f"line 4: bad table row {lines[3]!r}", 4)


def test_table_rows_are_one_read_only_array():
    given = np.array([5, 0, 7, 2], dtype=np.uint64)
    t = Table(2, 3, given)
    assert t.rows.dtype == np.int64 and not t.rows.flags.writeable
    assert eval_all(t) is t.rows and t._table is t.rows
    assert given.flags.writeable  # the caller's array is copied, not frozen
    assert t == Table(2, 3, (5, 0, 7, 2)) and hash(t) == hash(Table(2, 3, [5, 0, 7, 2]))
    assert t != Table(2, 3, [5, 0, 7, 3])
    for bad in ([0, 8], [0, -1], [0, 1 << 70], np.array([0, 1 << 63], dtype=np.uint64)):
        with pytest.raises(DomainError, match="out of range"):
            Table(1, 3, bad)
    wide = Table(1, 64, [0, (1 << 64) - 1])
    assert wide.rows == (0, (1 << 64) - 1) and wide._table is None
    assert wide.eval(BitString(1, 1)).value == (1 << 64) - 1
    with pytest.raises(DomainError):
        apply_many(Slice(wide, 0, 8), np.array([0, 1]))


@pytest.mark.parametrize("params, message", [
    ("k=2", "missing a required argument: 'm'"),
    ("k=2 m=4 z=1", "unexpected keyword argument 'z'"),
])
def test_block_with_missing_or_unknown_parameter_is_a_parse_error(params, message):
    with pytest.raises(ParseError, match=message) as e:
        from_text(f"CIRCUIT in=4 out=4\nBLOCK cover_encode {params}\n")
    assert e.value.line == 2


def test_header_rejects_negative_widths():
    for head in ("CIRCUIT in=-6 out=-7", "CIRCUIT in=-1 out=1", "CIRCUIT in=1 out=-1"):
        with pytest.raises(ParseError, match="negative width") as e:
            from_text(head + "\nBLOCK lexpair_encode n=-3\n")
        assert e.value.line == 1


def test_vector_evaluation_refuses_blocks_past_62_output_bits():
    wide = Builtin("prufer_decode", n=12)  # 66 edge bits
    assert wide.eval(BitString(wide.in_width, 0)).width == 66  # the scalar path stays exact
    with pytest.raises(DomainError, match="vector limit"):
        wide._apply_many(np.array([0, 1], dtype=np.int64))
    with pytest.raises(DomainError, match="vector limit"):
        apply_many(Slice(wide, 0, 8), np.array([0, 1]))
