"""Command-line surface for reproducible batch runs.

Exit codes: 0 success or accepted; 1 rejected verification or failed check
(with a final ``RESULT: PASS|FAIL`` line); 2 usage or parse errors.  All
commands are deterministic given argv, input files, and seeds.
"""

from __future__ import annotations

import argparse
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
    apply as apply_reduction,
    build_reduction,
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


def _cmd_codec(args) -> int:
    op = f"codec {args.mode} {args.codec}"
    params, rest = _split_params(args.args)
    if len(rest) != 1:
        raise ParseError(f"{op} takes exactly one input token, got {rest}")
    token = rest[0]

    if args.codec == "cover":
        k = _int_param(params, "k", op)
        m = _int_param(params, "m", op)
        if args.mode == "encode":
            out = cover_encode(k, m, _bits(token))
        else:
            out = cover_decode(k, m, _bits(token))
        print(out)
        return 0

    if args.codec == "lexpair":
        n = _int_param(params, "n", op)
        if args.mode == "encode":
            uv = _bits(token)
            if uv.width != 2 * n:
                raise ParseError(f"{op}: input must be the 2n-bit pair u||v")
            print(lexpair_encode(n, uv[0:n], uv[n:2 * n]))
        else:
            u, v = lexpair_decode(n, _bits(token))
            print(u.concat(v))
        return 0

    if args.codec == "prufer":
        n = _int_param(params, "n", op)
        if args.mode == "encode":
            print(prufer_encode_rank(n, _bits(token)))
        else:
            print(prufer_decode_rank(n, _bits(token)))
        return 0

    if args.codec == "catalan":
        if args.mode == "encode":
            form, level = catalan_factorize(_bits(token))
            print(f"{form} {level}")
        else:
            level = _int_param(params, "l", op)
            print(catalan_expand(token, level))
        return 0

    if args.codec == "chain":
        if args.mode != "encode":
            raise ParseError("chain is a projection onto representatives; it has no decode")
        print(chain_representative(_bits(token)))
        return 0

    raise ParseError(f"unknown codec {args.codec!r}; pick cover, lexpair, prufer, catalan, chain")


# ---------------------------------------------------------------------------
# gen / verify / solve


def _problem_id(name: str, params: dict[str, str]) -> ProblemId:
    """The problem id from its parameter tokens (k= or r=): each parameter the
    problem has must be given, and no other key may be."""
    spec = SPECS.get(name)
    if spec is None:
        return ProblemId(name)  # raises DomainError naming the unknown problem
    for key in params:
        if key not in spec.params:
            raise ParseError(f"{name} takes no parameter {key!r} (has {sorted(spec.params)})")
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


def _find_entry(name: str) -> Entry:
    try:
        return lookup(name)
    except DomainError:
        raise ParseError(
            f"unknown reduction {name!r}; see `tfnpkit check all` for the registry") from None


def _entry_params(name: str, inst, overrides: dict[str, str]) -> dict:
    """Builder parameters inferred from the source instance plus overrides."""
    params = dict(_find_entry(name).defaults)
    for key in params:
        if key in ("n", "m"):
            params[key] = inst.n
        elif key == "k" and inst.pid.k is not None:
            params[key] = inst.pid.k
        elif key in ("r", "r1") and inst.pid.r is not None:
            params[key] = inst.pid.r
    for key in overrides:
        if key not in params:
            raise ParseError(f"{name} takes no parameter {key!r} (has {sorted(params)})")
        params[key] = _int_param(overrides, key, name)
    return params


def _cmd_reduce(args) -> int:
    inst = instance_from_text(_read(args.infile))
    overrides, rest = _split_params(args.param or [])
    if rest:
        raise ParseError(f"--param takes key=value tokens, got {rest}")
    red = build_reduction(args.name, **_entry_params(args.name, inst, overrides))
    tgt = apply_reduction(red, inst)
    _emit(instance_to_text(tgt), args.out)
    return 0


def _cmd_pullback(args) -> int:
    inst = instance_from_text(_read(args.inst))
    sol = solution_from_text(_read(args.sol))
    overrides, rest = _split_params(args.param or [])
    if rest:
        raise ParseError(f"--param takes key=value tokens, got {rest}")
    red = build_reduction(args.name, **_entry_params(args.name, inst, overrides))
    back = pullback_reduction(red, inst, sol)
    _emit(solution_to_text(back), args.out)
    return 0


# ---------------------------------------------------------------------------
# check / ramsey / baranyai


def _cmd_check(args) -> int:
    if args.target == "all":
        picked = registry()
    else:
        picked = [(_find_entry(args.target).index, args.target)]
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
    p.add_argument("--name", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="write target instance here instead of stdout")
    p.add_argument("--param", nargs="*", help="builder overrides, key=value")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("pullback", help="map a target solution back to the source")
    p.add_argument("--name", required=True)
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
    p.add_argument("target", help="a reduction name or 'all'")
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
