"""Command-line surface for reproducible batch runs.

Exit codes: 0 success or accepted; 1 rejected verification or failed check
(with a final ``RESULT: PASS|FAIL`` line); 2 usage or parse errors; 141, with
no traceback, when the reader closes standard output early (``... | head``).
All commands are deterministic given argv, input files, and seeds.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

from .catalog import SPECS
from .encodings import (
    baranyai_table,
    baranyai_verify,
    catalan_expand,
    catalan_factorize,
    chain_representative,
    cover_decode,
    cover_encode,
    lexpair_decode,
    lexpair_encode,
    prufer_decode_rank,
    prufer_encode_rank,
)
from .errors import CapabilityError, DomainError, IntegrityError, ParseError
from .numerics import BitString
from .problems import (
    ProblemId,
    gen_random_instance,
    instance_from_text,
    instance_to_text,
    solution_from_text,
    solution_to_text,
    verify,
)
from .reductions import (
    Entry,
    Reduction,
    apply as apply_reduction,
    build_entry,
    lookup,
    pullback as pullback_reduction,
    registry,
)
from .solvers import (
    SolveBudget,
    brute_force_solve,
    coloring_from_text,
    fuzz_soundness,
    ramsey_explicit,
)

def _bits(token: str) -> BitString:
    if not token or any(ch not in "01" for ch in token):
        raise ParseError(f"expected a 0/1 string, got {token!r}")
    return BitString(len(token), int(token, 2))


def _split_params(tokens: list[str]) -> tuple[dict[str, str], list[str]]:
    params: dict[str, str] = {}
    rest: list[str] = []
    for t in tokens:
        if "=" in t:
            key, _, val = t.partition("=")
            params[key] = val
        else:
            rest.append(t)
    return params, rest


def _check_keys(params: dict[str, str], allowed, what: str) -> None:
    """Reject a key=value token whose key is not one that ``what`` takes."""
    for key in params:
        if key not in allowed:
            raise ParseError(f"{what} takes no parameter {key!r} (has {sorted(allowed)})")


def _int_param(params: dict[str, str], key: str, op: str) -> int:
    if key not in params:
        raise ParseError(f"{op} needs {key}=<int>")
    try:
        return int(params[key])
    except ValueError:
        raise ParseError(f"{op}: {key}={params[key]!r} is not an integer") from None


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"no such file: {path}")
    return p.read_text()


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# codec


def _lexpair_encode(n: int, token: str) -> BitString:
    uv = _bits(token)
    if uv.width != 2 * n:
        raise ParseError("codec encode lexpair: input must be the 2n-bit pair u||v")
    return lexpair_encode(n, uv[0:n], uv[n:2 * n])


def _chain_decode(token: str):
    raise ParseError("chain is a projection onto representatives; it has no decode")


# (codec, mode) -> (the integer parameters it takes, its function of their
# values and the input token x, whose result the command prints)
_CODECS = {
    ("cover", "encode"): (("k", "m"), lambda k, m, x: cover_encode(k, m, _bits(x))),
    ("cover", "decode"): (("k", "m"), lambda k, m, x: cover_decode(k, m, _bits(x))),
    ("lexpair", "encode"): (("n",), _lexpair_encode),
    ("lexpair", "decode"): (("n",), lambda n, x: BitString.concat(*lexpair_decode(n, _bits(x)))),
    ("prufer", "encode"): (("n",), lambda n, x: prufer_encode_rank(n, _bits(x))),
    ("prufer", "decode"): (("n",), lambda n, x: prufer_decode_rank(n, _bits(x))),
    ("catalan", "encode"): ((), lambda x: "{} {}".format(*catalan_factorize(_bits(x)))),
    ("catalan", "decode"): (("l",), lambda level, x: catalan_expand(x, level)),
    ("chain", "encode"): ((), lambda x: chain_representative(_bits(x))),
    ("chain", "decode"): ((), _chain_decode),
}


def _cmd_codec(args) -> int:
    op = f"codec {args.mode} {args.codec}"
    params, rest = _split_params(args.args)
    if len(rest) != 1:
        raise ParseError(f"{op} takes exactly one input token, got {rest}")
    if (args.codec, args.mode) not in _CODECS:
        names = ", ".join(dict.fromkeys(codec for codec, _ in _CODECS))
        raise ParseError(f"unknown codec {args.codec!r}; pick {names}")
    keys, fn = _CODECS[args.codec, args.mode]
    _check_keys(params, keys, op)
    print(fn(*(_int_param(params, key, op) for key in keys), rest[0]))
    return 0


# ---------------------------------------------------------------------------
# gen / verify / solve


def _problem_id(name: str, params: dict[str, str]) -> ProblemId:
    """The problem id from its parameter tokens (k= or r=): each parameter the
    problem has must be given, and no other key may be."""
    spec = SPECS.get(name)
    if spec is None:
        return ProblemId(name)  # raises DomainError naming the unknown problem
    _check_keys(params, spec.params, name)
    return ProblemId(name, **{key: _int_param(params, key, name) for key in spec.params})


def _cmd_gen(args) -> int:
    params, rest = _split_params(args.args)
    if len(rest) != 2:
        raise ParseError("gen <problem> [k=..] [r=..] <n> <seed>")
    try:
        n, seed = int(rest[0]), int(rest[1])
    except ValueError:
        raise ParseError(f"n and seed must be integers, got {rest}") from None
    pid = _problem_id(args.problem, params)
    inst = gen_random_instance(pid, n, seed)
    _emit(instance_to_text(inst), args.out)
    return 0


def _cmd_verify(args) -> int:
    inst = instance_from_text(_read(args.inst))
    sol = solution_from_text(_read(args.sol))
    verdict = verify(inst, sol)
    if verdict:
        print(f"accepted: type {sol.tag}")
        print("RESULT: PASS")
        return 0
    print(f"rejected: {verdict.reason}")
    print("RESULT: FAIL")
    return 1


def _cmd_solve(args) -> int:
    inst = instance_from_text(_read(args.inst))
    budget = SolveBudget(parallelism=args.parallelism)
    sol = brute_force_solve(inst, budget)
    _emit(solution_to_text(sol), args.out)
    return 0


# ---------------------------------------------------------------------------
# reduce / pullback


def _find_entry(key: str) -> Entry:
    """The registry row a command names by its index or its name."""
    wanted = int(key) if key.isdecimal() else key
    try:
        return lookup(wanted)
    except DomainError:
        raise ParseError(
            f"unknown reduction {wanted!r}; see `tfnpkit check all` for the registry") from None


def _entry_params(row: Entry, inst, overrides: dict[str, str]) -> dict:
    """Builder parameters inferred from the source instance plus overrides."""
    params = dict(row.defaults)
    for key in params:
        if key in ("n", "m"):
            params[key] = inst.n
        elif key == "k" and inst.pid.k is not None:
            params[key] = inst.pid.k
        elif key in ("r", "r1") and inst.pid.r is not None:
            params[key] = inst.pid.r
    _check_keys(overrides, params, row.name)
    for key in overrides:
        params[key] = _int_param(overrides, key, row.name)
    return params


def _build(args, inst) -> Reduction:
    """The reduction that --name and --param pick for this source instance."""
    overrides, rest = _split_params(args.param or [])
    if rest:
        raise ParseError(f"--param takes key=value tokens, got {rest}")
    row = _find_entry(args.name)
    return build_entry(row.index, **_entry_params(row, inst, overrides))


def _cmd_reduce(args) -> int:
    inst = instance_from_text(_read(args.infile))
    red = _build(args, inst)
    tgt = apply_reduction(red, inst)
    _emit(instance_to_text(tgt), args.out)
    return 0


def _cmd_pullback(args) -> int:
    inst = instance_from_text(_read(args.inst))
    sol = solution_from_text(_read(args.sol))
    red = _build(args, inst)
    back = pullback_reduction(red, inst, sol)
    _emit(solution_to_text(back), args.out)
    return 0


# ---------------------------------------------------------------------------
# check / ramsey / baranyai


def _cmd_check(args) -> int:
    if args.target == "all":
        picked = registry()
    else:
        row = _find_entry(args.target)
        picked = [(row.index, row.name)]
    all_ok = True
    for idx, name in picked:
        t0 = time.perf_counter()
        rep = fuzz_soundness(idx, trials=args.trials, seed=args.seed)
        seconds = time.perf_counter() - t0
        ok = rep["ok"]
        all_ok = all_ok and ok
        status = "pass" if ok else "FAIL"
        print(
            f"entry {idx:2d} {name:32s} {status}  cases={rep['cases']} "
            f"solutions={rep['solutions_checked']} truncated={rep['truncated_cases']} "
            f"failures={rep['failures']} seconds={seconds:.2f}"
        )
        if not ok:
            print(f"  first failure: {rep['first_failure']}")
    print(f"RESULT: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def _cmd_ramsey(args) -> int:
    coloring = coloring_from_text(_read(args.matrix))
    try:
        clique = ramsey_explicit(coloring)
    except IntegrityError as exc:
        print(f"failed: {exc}")
        print("RESULT: FAIL")
        return 1
    print(f"monochromatic clique of size {len(clique)}: {' '.join(map(str, clique))}")
    print("RESULT: PASS")
    return 0


def _cmd_baranyai(args) -> int:
    classes = baranyai_table(args.k, args.n)
    ok, msg = baranyai_verify(args.k, args.n, classes)
    for i, cls in enumerate(classes):
        print(f"class {i}: " + " ".join("{" + ",".join(map(str, b)) + "}" for b in cls))
    print(f"classes: {len(classes)}  check: {msg}")
    print(f"RESULT: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# wiring


@functools.cache  # built once per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tfnpkit",
        description="Encodings, total-search verifiers, reductions, and brute-force checks.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codec", help="rank/unrank one combinatorial object")
    p.add_argument("mode", choices=("encode", "decode"))
    p.add_argument("codec", help="cover | lexpair | prufer | catalan | chain")
    p.add_argument("args", nargs="+", help="key=value parameters plus one input token")
    p.set_defaults(fn=_cmd_codec)

    p = sub.add_parser("gen", help="deterministic random instance (seed mandatory)")
    p.add_argument("problem")
    p.add_argument("args", nargs="+", help="[k=..] [r=..] <n> <seed>")
    p.add_argument("--out", help="write instance text here instead of stdout")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("reduce", help="apply a registry reduction to an instance file")
    p.add_argument("--name", required=True, help="a reduction name or a registry index")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="write target instance here instead of stdout")
    p.add_argument("--param", nargs="*", help="builder overrides, key=value")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("pullback", help="map a target solution back to the source")
    p.add_argument("--name", required=True, help="a reduction name or a registry index")
    p.add_argument("--inst", required=True, help="source instance file")
    p.add_argument("--sol", required=True, help="target solution file")
    p.add_argument("--out", help="write source solution here instead of stdout")
    p.add_argument("--param", nargs="*", help="builder overrides, key=value")
    p.set_defaults(fn=_cmd_pullback)

    p = sub.add_parser("verify", help="check a solution file against an instance file")
    p.add_argument("--inst", required=True)
    p.add_argument("--sol", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("solve", help="canonical-minimum brute-force solution")
    p.add_argument("--inst", required=True)
    p.add_argument("--out", help="write solution text here instead of stdout")
    p.add_argument("--parallelism", type=int, default=1)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("check", help="fuzz reduction soundness over the registry")
    p.add_argument("target", help="a reduction name, a registry index or 'all'")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("ramsey", help="explicit monochromatic clique from a coloring file")
    p.add_argument("matrix", help="first line N, then N-1 rows of the 0/1 upper triangle")
    p.set_defaults(fn=_cmd_ramsey)

    p = sub.add_parser("baranyai", help="build and verify the parallel-class table")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_baranyai)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`): stop quietly, and point
        # stdout at /dev/null so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, what a shell reports for a tool killed by it


def _main(argv: list[str] | None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error [{args.command}]: {exc}", file=sys.stderr)
        return 2
    except (DomainError, CapabilityError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity failure [{args.command}]: {exc}", file=sys.stderr)
        print("RESULT: FAIL")
        return 1


if __name__ == "__main__":
    sys.exit(main())
