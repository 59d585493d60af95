"""Every parse error of the circuit, instance and solution text readers, with
its message and line number, and the CLI's exit code for a malformed gate
line."""

import pytest

from tfnpkit.circuit import from_text, to_text
from tfnpkit.cli import main
from tfnpkit.errors import ParseError
from tfnpkit.problems import instance_from_text, solution_from_text

READERS = {"circuit": from_text, "instance": instance_from_text, "solution": solution_from_text}
H = "CIRCUIT in=1 out=1\n"
NETLIST = H + "NETLIST in=1\n"
PIECES = H + "PIECEWISE\n"
INST = "PROBLEM pigeon\nPARAM n=1\n"
INT_X = "invalid literal for int() with base 10: 'x'"
# a width so large that 1 << width overflows
HUGE = "99999999999999999999"
HUGE_TABLE = H + f"TABLE in={HUGE} out=1\n0\n1\n"
HUGE_BRANCH = f"    NETLIST in={HUGE}\n    g0 = INPUT 0\n    OUTPUT g0\n"
HUGE_ELSE = PIECES + "  CASE lo=0 hi=1\n    XORC c=1\n  ELSE\n" + HUGE_BRANCH
HUGE_CASE = PIECES + "  CASE lo=0 hi=1\n" + HUGE_BRANCH + "  ELSE\n    XORC c=1\n"

# (reader, text, message without its line prefix, line or None)
PARSE_ERRORS = [
    ("circuit", "", "empty circuit text", None),
    ("circuit", "\n  \n", "empty circuit text", None),
    ("circuit", "TABLE in=1 out=1\n0\n1\n", "expected CIRCUIT header", 1),
    ("circuit", "CIRCUIT in=1\nXORC c=1\n", "CIRCUIT header missing 'out'", 1),
    ("circuit", "CIRCUIT in=1 out=x\nXORC c=1\n", f"bad CIRCUIT header: {INT_X}", 1),
    ("circuit", H, "expected a circuit node", None),
    ("circuit", H + "COMPOSE\n  XORC c=1\n", "expected a circuit node", None),
    ("circuit", H + "  XORC c=1\n", "expected node at indent 0", 2),
    ("circuit", H + "FOO\n", "unknown node 'FOO'", 2),
    ("circuit", H + "CASE lo=0 hi=1\n", "unknown node 'CASE'", 2),
    ("circuit", H + "SLICE start=0 x y\n  XORC c=1\n", "bad attribute 'x'", 2),
    ("circuit", H + "PAD\n  XORC c=1\n", "missing or unknown attribute 'bits'", 2),
    ("circuit", H + "SLICE start=0\n  XORC c=1\n", "missing or unknown attribute 'stop'", 2),
    ("circuit", H + "GUARD t=x\n  XORC c=1\n", INT_X, 2),
    ("circuit", H + "SLICE start=0 stop=5\n  XORC c=1\n", "slice [0, 5) of 1 output bits", 2),
    ("circuit", H + "COMPOSE\n  XORC c=1\n  XORC c=11\n", "compose widths: inner out 2, outer in 1", 2),
    ("circuit", H + "XORC\n", "missing or unknown attribute 'c'", 2),
    ("circuit", H + "XORC c=2\n", "not a bitstring: '2'", 2),
    ("circuit", H + "TABLE in=1 out=1\n0\n", "unexpected end of circuit text", None),
    ("circuit", H + "PAD bits=0\n  TABLE in=1\n  0\n  1\n", "nested TABLE needs in= and out=", 3),
    ("circuit", H + "PAD bits=0\n  NETLIST\n  g0 = INPUT 0\n  OUTPUT g0\n", "nested NETLIST needs in=", 3),
    ("circuit", NETLIST + "g0 = INPUT 0\n", "unexpected end of circuit text", None),
    ("circuit", NETLIST + "g0 = INPUT 0\nOUTPUT g5\n", "unknown gate 'g5'", 4),
    ("circuit", NETLIST + "g0 INPUT 0\nOUTPUT g0\n", "bad netlist line 'g0 INPUT 0'", 3),
    ("circuit", NETLIST + "g0 = NAND 0\nOUTPUT g0\n", "unknown gate op 'NAND'", 3),
    ("circuit", NETLIST + "g0 = INPUT x\nOUTPUT g0\n", INT_X, 2),
    ("circuit", NETLIST + "g0 = INPUT 3\nOUTPUT g0\n", "gate 0 reads input bit 3 of 1", 2),
    ("circuit", NETLIST + "g0 = CONST 2\nOUTPUT g0\n", "gate 0 CONST must be 0 or 1", 2),
    ("circuit", H + "BLOCK nosuch n=2\n", "unknown builtin block 'nosuch'", 2),
    ("circuit", PIECES + "  CASE lo=0 hi=1\n    XORC c=1\n", "piecewise must end with an ELSE case", 2),
    ("circuit", PIECES + "  CASE lo=0 hi=1\n    XORC c=1\n  ELSEWHERE\n    XORC c=0\n",
     "unexpected 'ELSEWHERE' inside PIECEWISE", 5),
    ("circuit", PIECES + "  CASE lo=1 hi=0\n    XORC c=1\n  ELSE\n    XORC c=0\n",
     "case range [1, 0) bad for width 1", 2),
    ("circuit", PIECES + "  CASE lo=0 hi=1 z\n    XORC c=1\n  ELSE\n    XORC c=0\n", "bad attribute 'z'", 3),
    ("circuit", HUGE_TABLE, f"table in_width {HUGE} beyond cap 20", 2),
    ("circuit", H + f"PAD bits=0\n  TABLE in={HUGE} out=1\n", f"table in_width {HUGE} beyond cap 20", 3),
    ("circuit", HUGE_ELSE, "width too large to build this node", 2),
    ("circuit", HUGE_CASE, "width too large to build this node", 2),
    ("circuit", H + "XORC c=1\nXORC c=0\n", "trailing content after circuit", 3),
    ("circuit", H + "XORC c=11\n", "header says 1->1 but node is 2->2", 1),
    ("circuit", "CIRCUIT in=1 out=2\nXORC c=1\n", "header says 1->2 but node is 1->1", 1),
    ("instance", "", "unexpected end of instance", 0),
    ("instance", "PROBLEM pigeon\n\n\n", "unexpected end of instance", 3),
    ("instance", "PARAM n=1\n", "expected PROBLEM line", 1),
    ("instance", "PROBLEM pigeon\nAUX N=1 M=1\n", "expected PARAM line", 2),
    ("instance", "PROBLEM pigeon\nPARAM oops\n", "expected key=value, got 'oops'", 2),
    ("instance", "PROBLEM pigeon\nPARAM k=2\n", "bad PARAM line: 'n'", 2),
    ("instance", "PROBLEM pigeon\nPARAM n=x\n", f"bad PARAM line: {INT_X}", 2),
    ("instance", "PROBLEM nosuch\nPARAM n=1\n", "unknown problem 'nosuch'", 2),
    ("instance", "PROBLEM pigeon\nPARAM n=1 k=2\n", "pigeon takes no k parameter", 2),
    ("instance", INST + "AUX a=01 b=10\n", "bad AUX line: 'c'", 3),
    ("instance", INST + "AUX a=01 b=10 c=1x\n", "bad AUX line: not a bitstring: '1x'", 3),
    ("instance", INST + "AUX N=1\n", "bad AUX line: 'M'", 3),
    ("instance", INST + "AUX N=1 M=x\n", f"bad AUX line: {INT_X}", 3),
    ("instance", INST + "AUX z=1\n", "AUX line needs a=/b=/c= or N=/M=", 3),
    ("instance", INST + "AUX N=1 M=1\n\n", "unexpected end of instance", 4),
    ("instance", INST + "TABLE in=1 out=1\n", "expected CIRCUIT block", 3),
    # the circuit reader numbers its lines from the CIRCUIT line on
    ("instance", INST + "\n" + H + "\nFOO\n", "unknown node 'FOO'", 6),
    ("instance", INST + "AUX N=1 M=1\n" + H + "TABLE in=1 out=1\n0\n1\nXORC c=1\n",
     "trailing content after circuit", 8),
    ("instance", INST + "CIRCUIT in=1 out=1\r\nTABLE in=1 out=1\r\n0\r\n2\r\n", "bad table row '2'", 6),
    # every line boundary of str.splitlines counts, in the header and after it
    ("instance", "PROBLEM pigeon\x0bPARAM n=1\x1c\rCIRCUIT in=1 out=1\u2028FOO\x85", "unknown node 'FOO'", 5),
    ("instance", "\r\n\x0cPROBLEM pigeon\r\rPARAM n=x\n", f"bad PARAM line: {INT_X}", 5),
    # a "\r\n" that straddles offset 1024, and a line that runs past offset 2048
    ("instance", INST + " " * 998 + "\r\nAUX z=1\n", "AUX line needs a=/b=/c= or N=/M=", 4),
    ("instance", "PROBLEM pigeon" + " " * 3000 + "\nPARAM n=x\n", f"bad PARAM line: {INT_X}", 2),
    ("solution", "SOLUTION\nWITNESS x=01\n", "SOLUTION line needs type=", 1),
    ("solution", "SOLUTION type=i\nWITNESS x=012\n", "not a bitstring: '012'", 2),
    ("solution", "SOLUTION type=i\n\nWITNESS x\n", "expected key=value, got 'x'", 3),
    ("solution", "SOLUTION type=i\nGIBBERISH\n", "unexpected line 'GIBBERISH'", 2),
    ("solution", "WITNESS x=01\n", "missing SOLUTION line", 1),
]


@pytest.mark.parametrize("reader, text, message, line", PARSE_ERRORS)
def test_parse_error_message_and_line(reader, text, message, line):
    with pytest.raises(ParseError) as e:
        READERS[reader](text)
    assert (str(e.value), e.value.line) == (message if line is None else f"line {line}: {message}", line)


# a gate line with one operand too few, none at all, one too many, or an
# unknown operand, as line 6 of an instance file
BAD_GATE_LINES = [
    ("g1 = AND g0", "bad netlist line 'g1 = AND g0'"),
    ("g1 = INPUT", "bad netlist line 'g1 = INPUT'"),
    ("g1 = AND g0 g0 g0", "bad netlist line 'g1 = AND g0 g0 g0'"),
    ("g1 = NOT g5", "unknown gate 'g5'"),
]


@pytest.mark.parametrize("gate, message", BAD_GATE_LINES)
def test_bad_gate_line_is_a_parse_error(gate, message, tmp_path, capsys):
    circuit = f"{NETLIST}g0 = INPUT 0\n{gate}\nOUTPUT g1\n"
    with pytest.raises(ParseError) as e:
        from_text(circuit)
    assert (str(e.value), e.value.line) == (f"line 4: {message}", 4)
    inst = tmp_path / "inst.txt"
    inst.write_text(INST + circuit)
    assert main(["solve", "--inst", str(inst)]) == 2
    err = capsys.readouterr().err
    assert err == f"parse error [solve]: line 6: {message}\n"


@pytest.mark.parametrize("circuit, line, message", [
    (HUGE_TABLE, 4, f"table in_width {HUGE} beyond cap 20"),
    (HUGE_ELSE, 4, "width too large to build this node"),
])
def test_huge_width_exits_2_with_its_line(circuit, line, message, tmp_path, capsys):
    inst, sol = tmp_path / "inst.txt", tmp_path / "sol.txt"
    inst.write_text(INST + circuit)
    sol.write_text("SOLUTION type=i\nWITNESS x=0\n")
    assert main(["solve", "--inst", str(inst)]) == 2
    assert main(["verify", "--inst", str(inst), "--sol", str(sol)]) == 2
    err = capsys.readouterr().err
    assert err == "".join(f"parse error [{cmd}]: line {line}: {message}\n" for cmd in ("solve", "verify"))


def test_netlist_reads_what_it_prints():
    text = NETLIST + "g0 = INPUT 0\ng1 = CONST 1\ng2 = NOT g0\ng3 = AND g0 g1\ng4 = OR g2 g3\n" \
        "g5 = XOR g4 g0\nOUTPUT g5\n"
    assert to_text(from_text(text)) == text


@pytest.mark.parametrize("case, message", [
    ("CASE hi=1", "missing or unknown attribute 'lo'"),
    ("CASE lo=0", "missing or unknown attribute 'hi'"),
    ("CASE lo=x hi=1", INT_X),
])
def test_bad_case_range_is_reported_at_its_case_line(case, message):
    text = f"{PIECES}  CASE lo=0 hi=1\n    XORC c=1\n  {case}\n    XORC c=0\n  ELSE\n    XORC c=1\n"
    with pytest.raises(ParseError) as e:
        from_text(text)
    assert (str(e.value), e.value.line) == (f"line 5: {message}", 5)
