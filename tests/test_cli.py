"""CLI contract tests: argument shapes, output conventions, exit codes.

Each command is driven through main(argv) in process; one subprocess case
confirms the installed entry point wires up the same function.
"""

import os
import re
import subprocess
import sys
import time

import pytest

import tfnpkit.solvers as solvers
from tfnpkit.cli import _build_parser, main
from tfnpkit.numerics import BitString
from tfnpkit.problems import (
    instance_from_text,
    solution_from_text,
    verify,
)
from tfnpkit.solvers import coloring_to_text, random_coloring


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# codec


def test_codec_cover_worked_example(capsys):
    code, out, _ = run(capsys, "codec", "encode", "cover", "k=2", "m=4", "0011")
    assert (code, out.strip()) == (0, "000")
    code, out, _ = run(capsys, "codec", "decode", "cover", "k=2", "m=4", "000")
    assert (code, out.strip()) == (0, "0011")


def test_codec_catalan_and_chain(capsys):
    code, out, _ = run(capsys, "codec", "encode", "catalan", "01101100")
    assert (code, out.strip()) == (0, "zz101100 1")
    code, out, _ = run(capsys, "codec", "decode", "catalan", "l=1", "zz101100")
    assert (code, out.strip()) == (0, "01101100")
    code, out, _ = run(capsys, "codec", "decode", "catalan", "l=0", "zz101100")
    assert (code, out.strip()) == (0, "00101100")
    code, out, _ = run(capsys, "codec", "encode", "chain", "01101100")
    assert code == 0 and BitString.from_str(out.strip()).weight == 4
    code, _, err = run(capsys, "codec", "decode", "chain", "0011")
    assert code == 2 and "chain" in err


def test_codec_lexpair_and_prufer(capsys):
    code, out, _ = run(capsys, "codec", "encode", "lexpair", "n=2", "0001")
    assert (code, out.strip()) == (0, "000")
    code, out, _ = run(capsys, "codec", "decode", "lexpair", "n=2", "000")
    assert (code, out.strip()) == (0, "0001")
    code, out, _ = run(capsys, "codec", "encode", "prufer", "n=3", "110")
    assert (code, out.strip()) == (0, "00")
    code, out, _ = run(capsys, "codec", "decode", "prufer", "n=3", "00")
    assert (code, out.strip()) == (0, "110")


def test_codec_usage_errors(capsys):
    code, _, err = run(capsys, "codec", "encode", "cover", "k=2", "0011")
    assert code == 2 and "m=" in err
    code, _, err = run(capsys, "codec", "encode", "cover", "k=2", "m=4", "01xzy1")
    assert code == 2
    code, _, err = run(capsys, "codec", "encode", "nosuch", "0011")
    assert code == 2 and err == ("parse error [codec]: unknown codec 'nosuch'; "
                                 "pick cover, lexpair, prufer, catalan, chain\n")
    code, _, err = run(capsys, "codec", "decode", "chain", "0011")
    assert code == 2 and err == (
        "parse error [codec]: chain is a projection onto representatives; it has no decode\n")
    code, _, err = run(capsys, "codec", "encode", "lexpair", "n=2", "011")
    assert code == 2 and err == (
        "parse error [codec]: codec encode lexpair: input must be the 2n-bit pair u||v\n")
    # a codec takes only its own parameters
    code, out, err = run(capsys, "codec", "encode", "cover", "k=2", "m=4", "x=1", "0011")
    assert code == 2 and out == "" and "takes no parameter 'x'" in err
    # decode past the rank range is a domain error, still exit 2
    code, _, err = run(capsys, "codec", "decode", "cover", "k=2", "m=4", "110")
    assert code == 2 and "error" in err


# ---------------------------------------------------------------------------
# gen / verify / solve round trip


def test_gen_verify_solve_pipeline(capsys, tmp_path):
    inst_file = tmp_path / "inst.txt"
    sol_file = tmp_path / "sol.txt"
    code, _, _ = run(capsys, "gen", "pigeon", "3", "5", "--out", str(inst_file))
    assert code == 0 and inst_file.is_file()

    again = tmp_path / "again.txt"
    run(capsys, "gen", "pigeon", "3", "5", "--out", str(again))
    assert inst_file.read_text() == again.read_text()

    code, _, _ = run(capsys, "solve", "--inst", str(inst_file), "--out", str(sol_file))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--inst", str(inst_file), "--sol", str(sol_file))
    assert code == 0 and "RESULT: PASS" in out

    par = tmp_path / "par.txt"
    for p in ("1", "2", "3", "4"):
        code, _, _ = run(capsys, "solve", "--inst", str(inst_file), "--parallelism", p,
                         "--out", str(par))
        assert code == 0 and par.read_text() == sol_file.read_text()

    # break the witness: flip the tag onto a wrong-arity shape
    sol_file.write_text("SOLUTION type=ii\nWITNESS x=000\n")
    code, out, _ = run(capsys, "verify", "--inst", str(inst_file), "--sol", str(sol_file))
    assert code == 1 and "RESULT: FAIL" in out


def test_solve_refuses_parallelism_above_the_cap(capsys, tmp_path, monkeypatch):
    """An oversized --parallelism exits 2 before any thread starts."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was opened")

    monkeypatch.setattr(solvers, "ThreadPoolExecutor", no_pool)
    inst_file = tmp_path / "inst.txt"
    run(capsys, "gen", "weak_pigeon", "4", "0", "--out", str(inst_file))
    for p in ("65", "100000"):
        code, out, err = run(capsys, "solve", "--inst", str(inst_file), "--parallelism", p)
        assert code == 2 and f"parallelism must be between 1 and 64, got {p}" in err and not out


def test_gen_parameter_requirements(capsys):
    code, _, err = run(capsys, "gen", "gekr", "2", "0")
    assert code == 2 and "k=" in err
    code, _, err = run(capsys, "gen", "turan", "2", "0")
    assert code == 2 and "r=" in err
    code, _, err = run(capsys, "gen", "pigeon", "3")
    assert code == 2
    code, _, err = run(capsys, "gen", "nosuch", "3", "0")
    assert code == 2
    # a parameter that is not an integer is a parse error, not a traceback
    code, _, err = run(capsys, "gen", "gekr", "k=x", "2", "0")
    assert code == 2 and "k='x' is not an integer" in err
    # a key the problem does not take is an error that names the keys it does take
    code, out, err = run(capsys, "gen", "pigeon", "z=3", "1", "0")
    assert code == 2 and "no parameter 'z' (has [])" in err and not out
    code, out, err = run(capsys, "gen", "gekr", "k=3", "r=2", "2", "0")
    assert code == 2 and "no parameter 'r' (has ['k'])" in err and not out


def test_gen_with_structural_params(capsys, tmp_path):
    f = tmp_path / "g.txt"
    code, _, _ = run(capsys, "gen", "weak_gekr", "k=3", "2", "9", "--out", str(f))
    assert code == 0
    inst = instance_from_text(f.read_text())
    assert inst.pid.k == 3


def test_gen_past_64_output_bits_is_a_capability_error(capsys, tmp_path):
    # gekr k=40 n=2 has 80 output bits, wider than a uint64 row draw
    f = tmp_path / "g.txt"
    code, _, err = run(capsys, "gen", "gekr", "k=40", "2", "0", "--out", str(f))
    assert code == 2
    assert "64 output bits" in err and "Traceback" not in err
    assert not f.exists()
    code, _, _ = run(capsys, "gen", "gekr", "k=32", "2", "0", "--out", str(f))
    assert code == 0 and instance_from_text(f.read_text()).circuit.out_width == 64


# ---------------------------------------------------------------------------
# reduce / pullback round trip


def test_reduce_pullback_pipeline(capsys, tmp_path):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    tsol = tmp_path / "tsol.txt"
    ssol = tmp_path / "ssol.txt"

    run(capsys, "gen", "weak_ekr", "2", "3", "--out", str(src))
    code, _, _ = run(capsys, "reduce", "--name", "weak_ekr_to_weak_pigeon",
                     "--in", str(src), "--out", str(tgt))
    assert code == 0
    code, _, _ = run(capsys, "solve", "--inst", str(tgt), "--out", str(tsol))
    assert code == 0
    code, _, _ = run(capsys, "pullback", "--name", "weak_ekr_to_weak_pigeon",
                     "--inst", str(src), "--sol", str(tsol), "--out", str(ssol))
    assert code == 0
    inst = instance_from_text(src.read_text())
    back = solution_from_text(ssol.read_text())
    assert verify(inst, back).ok


def test_reduce_errors(capsys, tmp_path):
    src = tmp_path / "src.txt"
    run(capsys, "gen", "weak_ekr", "2", "3", "--out", str(src))
    code, _, err = run(capsys, "reduce", "--name", "nosuch", "--in", str(src))
    assert code == 2 and "unknown reduction" in err
    code, _, err = run(capsys, "reduce", "--name", "weak_ekr_to_weak_pigeon",
                       "--in", str(tmp_path / "missing.txt"))
    assert code == 2 and "no such file" in err
    code, _, err = run(capsys, "reduce", "--name", "weak_ekr_to_weak_pigeon",
                       "--in", str(src), "--param", "zz=3")
    assert code == 2 and "zz" in err
    code, _, err = run(capsys, "reduce", "--name", "weak_ekr_to_weak_pigeon",
                       "--in", str(src), "--param", "n=x")
    assert code == 2 and "n='x' is not an integer" in err
    # wrong source problem for the entry
    other = tmp_path / "other.txt"
    run(capsys, "gen", "pigeon", "2", "0", "--out", str(other))
    code, _, err = run(capsys, "reduce", "--name", "weak_ekr_to_weak_pigeon",
                       "--in", str(other))
    assert code == 2


@pytest.mark.parametrize("index,name,source", [
    ("1", "weak_ekr_to_weak_pigeon", ("weak_ekr", "2", "3")),
    ("22", "weak_pigeon_to_weak_mantel", ("weak_pigeon", "2", "4")),
])
def test_reduce_and_pullback_accept_the_registry_index(capsys, tmp_path, index, name, source):
    """`--name INDEX` writes the same target and pull-back files as
    `--name NAME`."""
    src = tmp_path / "src.txt"
    run(capsys, "gen", *source, "--out", str(src))
    files = {}
    for key in (index, name):
        tgt, tsol, ssol = (tmp_path / f"{part}-{key}.txt" for part in ("tgt", "tsol", "ssol"))
        assert run(capsys, "reduce", "--name", key, "--in", str(src), "--out", str(tgt))[0] == 0
        assert run(capsys, "solve", "--inst", str(tgt), "--out", str(tsol))[0] == 0
        assert run(capsys, "pullback", "--name", key, "--inst", str(src), "--sol", str(tsol),
                   "--out", str(ssol))[0] == 0
        files[key] = (tgt.read_bytes(), ssol.read_bytes())
    assert files[index] == files[name]
    for index in ("0", "28"):
        code, out, err = run(capsys, "reduce", "--name", index, "--in", str(src))
        assert code == 2 and f"unknown reduction {index}" in err and not out
        code, out, err = run(capsys, "pullback", "--name", index, "--inst", str(src),
                             "--sol", str(tmp_path / f"tsol-{name}.txt"))
        assert code == 2 and f"unknown reduction {index}" in err and not out


def test_pullback_rejects_invalid_target_solution(capsys, tmp_path):
    src = tmp_path / "src.txt"
    bogus = tmp_path / "bogus.txt"
    run(capsys, "gen", "weak_ekr", "2", "3", "--out", str(src))
    bogus.write_text("SOLUTION type=ii\nWITNESS x=000\nWITNESS y=000\n")
    code, _, err = run(capsys, "pullback", "--name", "weak_ekr_to_weak_pigeon",
                       "--inst", str(src), "--sol", str(bogus))
    assert code == 2 and "rejected" in err


# ---------------------------------------------------------------------------
# check / ramsey / baranyai


def test_check_single_entry(capsys):
    code, out, _ = run(capsys, "check", "ekr_to_pigeon", "--trials", "2", "--seed", "5")
    assert code == 0
    assert "entry  4 ekr_to_pigeon" in out
    assert "pass" in out and "RESULT: PASS" in out
    assert re.search(r"failures=0 seconds=\d+\.\d\d\n", out)


def test_negative_seed_exits_2_with_a_message(capsys):
    code, out, err = run(capsys, "check", "ekr_to_pigeon", "--trials", "1", "--seed", "-1")
    assert code == 2 and "seed must be non-negative, got -1" in err and "RESULT" not in out
    code, out, err = run(capsys, "gen", "pigeon", "2", "-1")
    assert code == 2 and "seed must be non-negative, got -1" in err and not out


def test_negative_trials_exit_2_with_a_message(capsys):
    code, out, err = run(capsys, "check", "ekr_to_pigeon", "--trials", "-3")
    assert code == 2 and "trials must be non-negative, got -3" in err
    assert "cases=" not in out and "RESULT" not in out


def test_check_unknown_entry(capsys):
    code, _, err = run(capsys, "check", "bogus_entry")
    assert code == 2 and "unknown reduction" in err
    for index in ("0", "28"):
        code, out, err = run(capsys, "check", index, "--trials", "1")
        assert code == 2 and f"unknown reduction {index}" in err and not out


def test_check_by_registry_index(capsys):
    """`check 5` runs entry 5 and prints the line `check NAME` prints."""

    def line(target):
        code, out, _ = run(capsys, "check", target, "--trials", "1")
        assert code == 0
        return re.sub(r"seconds=\S+", "", out)

    by_index = line("5")
    assert by_index.startswith("entry  5 weak_pigeon_to_weak_gekr ")
    assert by_index == line("weak_pigeon_to_weak_gekr")


def test_ramsey_command(capsys, tmp_path):
    f = tmp_path / "c16.txt"
    f.write_text(coloring_to_text(random_coloring(16, 1)))
    code, out, _ = run(capsys, "ramsey", str(f))
    assert code == 0 and "RESULT: PASS" in out
    size = int(out.split("size")[1].split(":")[0])
    assert size >= 2
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n7\n")
    code, _, err = run(capsys, "ramsey", str(bad))
    assert code == 2


def test_baranyai_command(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "baranyai", "2", "2")
    assert code == 0
    assert "class 0: {1,2} {3,4}" in out
    assert "classes: 3" in out and "RESULT: PASS" in out
    code, _, err = run(capsys, "baranyai", "10", "5")
    assert code == 2 and "exceeds" in err
    # under the table cap, but the exact-cover search gives up
    code, out, err = run(capsys, "baranyai", "4", "3")
    assert code == 2 and "search nodes" in err and "Traceback" not in err and out == ""


@pytest.mark.parametrize("argv", [
    ("verify", "BLOCK cover_decode k=1000000 m=2000000"),
    ("verify", "BLOCK prufer_encode n=2000000"),
    ("verify", "BLOCK prufer_decode n=2000000"),
    ("baranyai", "100000", "100000"),
    ("baranyai", "1000000", "1000000"),
], ids=["cover-block", "prufer-encode-block", "prufer-decode-block", "baranyai-1e5",
        "baranyai-1e6"])
def test_oversized_counts_exit_2_at_once(capsys, tmp_path, argv):
    # exact counts past numerics.MAX_COUNT_ARG are refused before they are
    # computed; a file's BLOCK line is reported with its line number
    if argv[0] == "verify":
        inst, sol = tmp_path / "inst.txt", tmp_path / "sol.txt"
        inst.write_text(f"PROBLEM weak_pigeon\nPARAM n=2\nCIRCUIT in=3 out=2\n{argv[1]}\n")
        sol.write_text("SOLUTION type=ii\nWITNESS x=000\nWITNESS y=001\n")
        argv = ("verify", "--inst", str(inst), "--sol", str(sol))
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == "" and "past the counting cap 1024" in err
    assert "Traceback" not in err
    if argv[0] == "verify":
        assert err.startswith("parse error [verify]: line 4: ")


# ---------------------------------------------------------------------------
# top-level behavior


def test_usage_exit_codes(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_installed_entry_point_matches():
    got = subprocess.run(
        [sys.executable, "-m", "tfnpkit.cli", "codec", "encode", "cover",
         "k=2", "m=4", "0011"],
        capture_output=True, text=True,
    )
    assert got.returncode == 0 and got.stdout.strip() == "000"


def test_deeply_nested_circuit_is_a_parse_error(capsys, tmp_path):
    depth = 1200
    lines = ["PROBLEM pigeon", "PARAM n=1", "CIRCUIT in=1 out=1"]
    for level in range(depth):
        pad = "  " * level
        lines += [pad + "COMPOSE", pad + "  XORC c=0"]
    lines.append("  " * depth + "XORC c=1")
    inst = tmp_path / "deep.txt"
    inst.write_text("\n".join(lines) + "\n")
    sol = tmp_path / "sol.txt"
    sol.write_text("SOLUTION type=i\nWITNESS x=1\n")
    code, _, err = run(capsys, "verify", "--inst", str(inst), "--sol", str(sol))
    assert code == 2 and "nested deeper" in err


@pytest.mark.parametrize("params", ["k=2", "k=2 m=4 z=1"])
def test_bad_block_parameters_are_a_parse_error(capsys, tmp_path, params):
    inst = tmp_path / "inst.txt"
    inst.write_text(f"PROBLEM pigeon\nPARAM n=4\nCIRCUIT in=4 out=4\nBLOCK cover_encode {params}\n")
    code, _, err = run(capsys, "solve", "--inst", str(inst))
    assert code == 2 and "line 4: block cover_encode" in err and "Traceback" not in err


def test_closed_output_pipe_ends_quietly():
    # the instance text (about 100 KB) outgrows the pipe buffer, so the
    # writer meets the pipe its reader closed after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "tfnpkit.cli", "gen", "weak_pigeon", "12", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"PROBLEM weak_pigeon\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == ""


def test_output_pipe_closed_before_a_short_write_ends_quietly():
    # with stdout block-buffered, a short text waits in the buffer until
    # the final flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        got = subprocess.run(
            [sys.executable, "-m", "tfnpkit.cli", "gen", "pigeon", "2", "0"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
        )
    finally:
        os.close(write_end)
    assert (got.returncode, got.stderr) == (141, "")


def test_repeated_calls_share_no_arguments(capsys, tmp_path):
    # the parser is built once per process; no call's arguments leak to the next
    assert _build_parser() is _build_parser()
    out = tmp_path / "inst.txt"
    assert main(["gen", "pigeon", "2", "0", "--out", str(out)]) == 0
    code, printed, _ = run(capsys, "gen", "pigeon", "2", "0")
    assert code == 0 and printed == out.read_text()
    assert run(capsys, "solve")[0] == 2


def test_bad_circuit_header_is_a_parse_error(capsys, tmp_path):
    inst = tmp_path / "inst.txt"
    inst.write_text("PROBLEM pigeon\nPARAM n=1\nCIRCUIT in=x out=1\nTABLE in=1 out=1\n0\n1\n")
    sol = tmp_path / "sol.txt"
    sol.write_text("SOLUTION type=i\nWITNESS x=1\n")
    code, _, err = run(capsys, "verify", "--inst", str(inst), "--sol", str(sol))
    assert code == 2 and "line 3: bad CIRCUIT header" in err and "Traceback" not in err
