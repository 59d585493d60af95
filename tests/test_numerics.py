import pytest
from hypothesis import given, strategies as st

from tfnpkit.circuit import ConstOp
from tfnpkit.errors import DomainError
from tfnpkit.numerics import (
    BitString,
    binomial,
    bits_of,
    ceil_log2,
)


def test_str_is_big_endian():
    b = BitString(4, 0b0110)
    assert str(b) == "0110"
    assert b.bit(0) == 0 and b.bit(1) == 1 and b.bit(2) == 1 and b.bit(3) == 0


def test_from_str_round_trip():
    for s in ("", "0", "1", "0000", "10110"):
        assert str(BitString.from_str(s)) == s


def test_out_of_range_value_rejected():
    with pytest.raises(DomainError):
        BitString(3, 8)
    with pytest.raises(DomainError):
        BitString(2, -1)


def test_slice_is_contiguous_left_based():
    b = BitString.from_str("10110")
    assert str(b[0:2]) == "10"
    assert str(b[2:5]) == "110"
    assert str(b[1:1]) == ""
    with pytest.raises(DomainError):
        b[::2]
    with pytest.raises(DomainError):
        b[::-1]


def test_slice_matches_bitwise_reference():
    for width in range(11):
        for value in {0, (1 << width) - 1, 0b1011001110 % (1 << width)}:
            b = BitString(width, value)
            bounds = [None] + list(range(-width - 2, width + 3))
            for start in bounds:
                for stop in bounds:
                    want = BitString.from_bits(b.bits()[start:stop])
                    assert b[start:stop] == want, (b, start, stop)


def test_concat_weight_complement():
    a = BitString.from_str("101")
    b = BitString.from_str("01")
    assert str(a.concat(b)) == "10101"
    assert a.weight == 2
    assert str(a.complement()) == "010"


def test_order_requires_equal_width():
    assert BitString(3, 2) < BitString(3, 5)
    with pytest.raises(DomainError):
        BitString(3, 2) < BitString(4, 2)


@given(st.integers(0, 12), st.data())
def test_bits_round_trip(width, data):
    v = data.draw(st.integers(0, (1 << width) - 1))
    b = bits_of(v, width)
    assert b.value == v
    assert BitString.from_bits(b.bits()) == b
    assert len(b) == width


@given(st.integers(0, 10), st.data())
def test_modular_ops_wrap(width, data):
    # the constant add/sub/xor circuits wrap mod 2**width and undo each other
    v = data.draw(st.integers(0, (1 << width) - 1))
    c = bits_of(data.draw(st.integers(0, (1 << width) - 1)), width)
    b = bits_of(v, width)
    add, sub, xor = (ConstOp(op, c) for op in ("add", "sub", "xor"))
    assert add.eval(b).value == (v + c.value) % (1 << width)
    assert sub.eval(b).value == (v - c.value) % (1 << width)
    assert sub.eval(add.eval(b)) == b
    assert add.eval(sub.eval(b)) == b
    assert xor.eval(xor.eval(b)) == b


def test_binomial_exact():
    assert binomial(8, 4) == 70
    assert binomial(0, 0) == 1
    assert binomial(5, 0) == binomial(5, 5) == 1
    with pytest.raises(DomainError):
        binomial(3, 4)
    with pytest.raises(DomainError):
        binomial(-1, 0)


def test_ceil_log2():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(3) == 2
    assert ceil_log2(4) == 2
    assert ceil_log2(5) == 3
    with pytest.raises(DomainError):
        ceil_log2(0)


def test_central_binomial_log_step():
    # the rank space of 2n-choose-n needs exactly one more bit than (2n-1)-choose-(n-1)
    for n in range(2, 12):
        assert ceil_log2(binomial(2 * n, n)) == ceil_log2(binomial(2 * n - 1, n - 1)) + 1


def test_central_binomial_never_power_of_two():
    for n in range(2, 16):
        v = binomial(2 * n, n)
        assert v & (v - 1) != 0
