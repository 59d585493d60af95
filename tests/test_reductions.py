"""Registry-wide soundness fuzzing plus targeted checks on the apply and
pull-back plumbing.  The heavy exhaustive sweep lives in the acceptance suite;
here each entry gets a few seeds so failures localize quickly."""

import numpy as np
import pytest

from tfnpkit.circuit import eval_all
from tfnpkit.errors import DomainError
from tfnpkit.numerics import bits_of
from tfnpkit.problems import (
    ProblemId,
    ProblemInstance,
    Solution,
    gen_random_instance,
    instance_to_text,
    make_solution,
    verify,
    wellformed,
)
from tfnpkit.reductions import (
    ENTRY_DEFAULTS,
    REDUCTION_NAMES,
    apply,
    build_entry,
    build_reduction,
    pullback,
    registry,
)
from tfnpkit.solvers import (
    FORBIDDEN_TARGET_TAGS,
    SolveBudget,
    brute_force_solve,
    designed_instances,
    enumerate_solutions,
    fuzz_instance,
    fuzz_soundness,
)


def test_registry_shape():
    entries = registry()
    assert [idx for idx, _ in entries] == list(range(1, 28))
    names = [nm for _, nm in entries]
    assert len(set(names)) == 27
    assert sorted(REDUCTION_NAMES) == sorted(names)
    assert set(ENTRY_DEFAULTS) == set(range(1, 28))


def test_build_lookup_both_ways():
    for idx, nm in registry():
        red = build_entry(idx)
        assert red.index == idx and red.name == nm
        same = build_reduction(nm, **ENTRY_DEFAULTS[idx])
        assert (same.source, same.target, same.source_n, same.target_n) == (
            red.source, red.target, red.source_n, red.target_n)
    with pytest.raises(DomainError):
        build_reduction("no_such_entry")
    with pytest.raises(DomainError):
        build_entry(28)


@pytest.mark.parametrize("idx", range(1, 28))
def test_entry_soundness_fuzz(idx):
    report = fuzz_soundness(idx, trials=3, seed=11)
    assert report["ok"], report["first_failure"]
    assert report["failures"] == 0
    assert report["solutions_checked"] > 0
    assert report["purity_tags"] == FORBIDDEN_TARGET_TAGS.get(idx, ())


@pytest.mark.parametrize("idx", range(1, 28))
def test_target_table_agrees_with_scalar_interpreter(idx):
    """eval_all's vector interpreter against the scalar one on real targets:
    every point up to 12 input bits, a fixed 4096-point sample beyond."""
    red = build_entry(idx)
    sources = designed_instances(red.source, red.source_n)
    sources.append(fuzz_instance(red.source, red.source_n, 0))
    for inst in sources:
        circ = apply(red, inst).circuit
        w = circ.in_width
        if w <= 12:
            points = np.arange(1 << w)
        else:
            points = np.random.Generator(np.random.PCG64(idx)).integers(0, 1 << w, size=4096)
        want = [circ._eval_value(int(v)) for v in points]
        assert eval_all(circ)[points].tolist() == want


def test_apply_is_deterministic_and_wellformed():
    red = build_entry(1)
    inst = gen_random_instance(red.source, red.source_n, 9)
    a, b = apply(red, inst), apply(red, inst)
    assert instance_to_text(a) == instance_to_text(b)
    assert wellformed(a).ok
    assert a.pid == red.target and a.n == red.target_n


def test_apply_rejects_mismatched_sources():
    red = build_entry(1)
    other = gen_random_instance(ProblemId("pigeon"), 2, 0)
    with pytest.raises(DomainError):
        apply(red, other)
    wrong_n = gen_random_instance(red.source, red.source_n + 1, 0)
    with pytest.raises(DomainError):
        apply(red, wrong_n)
    broken = ProblemInstance(red.source, red.source_n,
                             gen_random_instance(ProblemId("pigeon"), 3, 0).circuit)
    with pytest.raises(DomainError):
        apply(red, broken)


def test_pullback_round_trip_via_solver():
    for idx in (1, 3, 4, 10, 12, 16, 23, 26):
        red = build_entry(idx)
        inst = gen_random_instance(red.source, red.source_n, 21)
        tgt = apply(red, inst)
        sol = brute_force_solve(tgt)
        back = pullback(red, inst, sol)
        assert verify(inst, back).ok
        # explicit target= path gives the same answer without a rebuild
        assert pullback(red, inst, sol, target=tgt) == back


def test_pullback_rejects_bogus_target_solution():
    red = build_entry(1)
    inst = gen_random_instance(red.source, red.source_n, 2)
    tgt = apply(red, inst)
    w = tgt.in_width
    bogus = make_solution(tgt.pid, "ii", bits_of(0, w), bits_of(0, w))
    assert not verify(tgt, bogus).ok
    with pytest.raises(DomainError):
        pullback(red, inst, bogus)
    with pytest.raises(DomainError):
        pullback(red, inst, Solution("ix", ()))


@pytest.mark.parametrize("idx", sorted(FORBIDDEN_TARGET_TAGS))
def test_image_instances_avoid_forbidden_types(idx):
    red = build_entry(idx)
    forbidden = set(FORBIDDEN_TARGET_TAGS[idx])
    budget = SolveBudget(max_per_type=500)
    for seed in range(6):
        inst = gen_random_instance(red.source, red.source_n, seed)
        tgt = apply(red, inst)
        sols, _ = enumerate_solutions(tgt, budget)
        assert sols
        got = {s.tag for s in sols}
        assert not (got & forbidden), (idx, got & forbidden, seed)


def test_fuzz_report_flags_planted_failure():
    # sabotaged translate: emits an out-of-language tag, so every pull-back
    # must surface as a failure rather than pass silently
    import dataclasses

    red = build_entry(4)
    bad = dataclasses.replace(red, translate=lambda inst, sol: Solution("ix", ()))
    inst = gen_random_instance(red.source, red.source_n, 0)
    tgt = apply(bad, inst)
    sol = brute_force_solve(tgt)
    with pytest.raises(Exception):
        pullback(bad, inst, sol)


def test_fuzz_report_counts_truncated_cases():
    full = fuzz_soundness(1, trials=2, seed=0)
    assert full["truncated_cases"] == 0
    capped = fuzz_soundness(1, trials=2, seed=0, budget=SolveBudget(max_per_type=1))
    assert capped["truncated_cases"] == capped["cases"] == full["cases"]
    assert capped["solutions_checked"] < full["solutions_checked"]
