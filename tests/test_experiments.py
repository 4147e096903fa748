"""Verdict-level tests for the named experiments."""

import hashlib
import json

import pytest

from cohomlab.cohom import ModuleAction, cohomology_engine, h1_loc
from cohomlab.errors import BudgetExceeded
from cohomlab.experiments import (
    _Run,
    _curated_mod4_groups,
    _qualifying_diagonals,
    ExperimentVerdict,
    Check,
    brute_coboundary_tables,
    brute_cocycle_tables,
    brute_locally_trivial_tables,
    brute_quotient_invariants,
    falsify_main_theorem,
    full_matrix_group_mod_p,
    run_example6,
    sample_level2_groups,
    verify_diagonal_triviality,
    verify_shape_lemma,
    verify_structure_props,
)
from cohomlab.matgrp import Mat2, close_group, cyclic_subgroups, find_triangularizing_conjugator, reduce_mod
from cohomlab.zmod import ModulusContext


def normalized(verdict) -> str:
    doc = verdict.to_json_dict()
    doc["elapsed_ms"] = 0
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize(
    "p, order, gens",
    [
        (2, 6, [[[0, 1], [1, 0]], [[0, 1], [1, 1]]]),
        (3, 48, [[[0, 1], [1, 0]], [[0, 1], [1, 1]]]),
        (5, 480, [[[0, 1], [1, 0]], [[0, 1], [1, 1]], [[0, 1], [2, 0]]]),
    ],
)
def test_full_matrix_group_mod_p(p, order, gens):
    full = full_matrix_group_mod_p(p)
    assert len(full) == order
    assert [g.row_list() for g in full.generating_set] == gens


def test_example6_smallest_prime_passes():
    v = run_example6(3)
    assert v.passed
    assert v.parameters == {"p": 3, "m": 2}
    assert v.counterexamples == []
    assert len(v.checks) >= 15
    assert all(c.ok for c in v.checks)


def test_example6_prime_five_passes():
    v = run_example6(5)
    assert v.passed
    assert v.parameters["m"] == 2


def test_example6_explicit_nonsquare():
    v = run_example6(3, m=5)
    assert v.passed
    assert v.parameters["m"] == 5


def test_example6_rejects_bad_primes():
    with pytest.raises(ValueError):
        run_example6(2)
    with pytest.raises(ValueError):
        run_example6(9)
    with pytest.raises(ValueError):
        run_example6(15)


def test_example6_budget_bound():
    with pytest.raises(BudgetExceeded):
        run_example6(17)


def test_verdict_json_shape():
    doc = run_example6(3).to_json_dict()
    assert set(doc) == {"name", "parameters", "passed", "checks", "counterexamples", "elapsed_ms"}
    assert doc["name"] == "example6"
    assert doc["passed"] is True
    for check in doc["checks"]:
        assert set(check) == {"description", "expected", "actual", "ok"}
    json.dumps(doc)


def test_verdict_csv_rows():
    v = run_example6(3)
    rows = v.to_csv_rows()
    assert rows[0] == ["experiment", "check", "expected", "actual", "ok"]
    assert len(rows) == len(v.checks) + 1
    assert all(row[0] == "example6" for row in rows[1:])
    assert all(row[4] == "true" for row in rows[1:])


def test_verdict_passed_definition():
    good = Check("d", 1, 1, True)
    bad = Check("d", 1, 2, False)
    assert ExperimentVerdict("x", {}, [good], [], 0).passed
    assert not ExperimentVerdict("x", {}, [good, bad], [], 0).passed
    assert not ExperimentVerdict("x", {}, [good], [{"p": 3}], 0).passed


def test_diagonal_levels_pass():
    for p, n in ((3, 1), (3, 2), (5, 1)):
        v = verify_diagonal_triviality(p, n)
        assert v.passed, (p, n)
        assert v.parameters["subgroups"] >= 2


def test_diagonal_at_two_fails_only_triviality():
    # (Z/8)^* acting on Z/8 is the Grunwald-Wang case: 42 of the 67 diagonal
    # subgroups mod 8 have L/B1 != 0, so the triviality claim is for odd p
    v = verify_diagonal_triviality(2, 3)
    assert not v.passed and v.parameters["subgroups"] == 67
    assert [(c.ok, c.actual) for c in v.checks] == [(True, True), (False, 42), (True, 0), (True, 0), (True, 0)]
    assert len(v.counterexamples) == 42
    # the brute-force oracle agrees on <diag(1,3), diag(1,5)>: L/B1 = Z/2
    ctx = ModulusContext(2, 3)
    grp = close_group([Mat2.diagonal(1, 3, ctx), Mat2.diagonal(1, 5, ctx)], ctx)
    assert {"p": 2, "n": 3, "generators": [[[1, 0], [0, 3]], [[1, 0], [0, 5]]]} in [
        {k: c[k] for k in ("p", "n", "generators")} for c in v.counterexamples
    ]
    z = brute_cocycle_tables(grp)
    loc = brute_locally_trivial_tables(grp, ModuleAction.standard(ctx), z)
    assert brute_quotient_invariants(loc, brute_coboundary_tables(grp), ctx) == [2]


def test_diagonal_rejects_large_modulus():
    with pytest.raises(ValueError):
        verify_diagonal_triviality(3, 3)
    with pytest.raises(ValueError):
        verify_diagonal_triviality(7, 2)


def test_shape_lemma_exhaustive_levels():
    v2 = verify_shape_lemma(2)
    assert v2.passed and v2.parameters["exhaustive"]
    v3 = verify_shape_lemma(3)
    assert v3.passed and v3.parameters["nontrivial"] > 0


def test_shape_lemma_sampled_level():
    # GL2(F_5) is not solvable: its cyclic subgroups are the candidates
    v = verify_shape_lemma(5)
    assert v.passed
    assert not v.parameters["exhaustive"]
    assert v.parameters["candidates"] == len(cyclic_subgroups(full_matrix_group_mod_p(5))) == 176
    assert v.parameters["nontrivial"] == 6
    assert "seed" not in v.parameters


def test_shape_lemma_rejects_other_primes():
    with pytest.raises(ValueError):
        verify_shape_lemma(7)


def test_structure_props_rejects_other_primes():
    with pytest.raises(ValueError):
        verify_structure_props(5)


def test_falsify_passes_and_sees_nontrivial_group():
    v = falsify_main_theorem(3, samples=20)
    assert v.passed
    assert v.parameters["nontrivial"] >= 1
    assert v.counterexamples == []


def test_falsify_rejects_other_primes():
    with pytest.raises(ValueError):
        falsify_main_theorem(7)


def test_falsify_zero_budget_aborts():
    with pytest.raises(BudgetExceeded):
        falsify_main_theorem(3, budget_ms=0)


def test_experiments_deterministic_given_seed():
    assert normalized(falsify_main_theorem(3, seed=5, samples=15)) == normalized(
        falsify_main_theorem(3, seed=5, samples=15)
    )
    assert normalized(verify_shape_lemma(5)) == normalized(verify_shape_lemma(5))


def test_sampling_seed_changes_output():
    a = [g.elements for g in sample_level2_groups(3, seed=1, count=25)]
    b = [g.elements for g in sample_level2_groups(3, seed=1, count=25)]
    c = [g.elements for g in sample_level2_groups(3, seed=2, count=25)]
    assert a == b
    assert a != c


# sha256 of the JSON element row lists of sample_level2_groups(p, seed, 80),
# with the group count and total order, recorded before the closure walk
# moved to integer-coded elements and the unit list was cached.
SAMPLE_DIGESTS = {
    (3, 0): (80, 16625, "adac866e5c7e133100c87f3d57af8fefd6b66d6cc81b7d1f93e3388e5c14db94"),
    (3, 1): (80, 16662, "3da8eee9f2d15b0a5a65b9c40b72ac5cd13da4e64abd3f97ef5276048146d6c6"),
    (3, 2): (80, 15471, "651ce8ce8bb989d451822826934e3e2462162ff7dddaa5715c31618420a16d51"),
    (3, 3): (80, 15042, "c85fa637d7fd23a14790e0ec2803f377d8ae02b038d1370b44a425d46352f1e4"),
    (5, 0): (80, 51878, "df52a271d305dcb92313356233681e211593383b83a6d929a66375dba370168c"),
    (5, 1): (80, 38090, "a07a61c2202ff97346bad3b50e8d686f53fe2bdc6abd306668b1588ef10abb6c"),
    (5, 2): (80, 46675, "558b5d97c022c6d718e59c5cdc28482f9116c5c9281274dbe4b1d778a252206f"),
    (5, 3): (80, 51020, "81ada2a714cc6be6ebcd641ca62a1f263da782e7e1122b7a291209b2354d0bc6"),
}


@pytest.mark.parametrize("p, seed", sorted(SAMPLE_DIGESTS))
def test_sampling_is_pinned(p, seed):
    groups = sample_level2_groups(p, seed, 80)
    rows = [[g.row_list() for g in grp.elements] for grp in groups]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert (len(groups), sum(map(len, groups)), digest) == SAMPLE_DIGESTS[p, seed]


# verify_structure_props(3, seed) parameters (candidates, local-vanishing,
# triangular and word instances), recorded before its structured candidates
# and the sampler shared one closure routine. Acceptance criterion 8 asserts
# the seed-0 entry too, on the same run (the structure_props fixture).
STRUCTURE_PARAMETERS = {0: (144, 6, 0, 12), 1: (140, 7, 0, 12)}


@pytest.mark.parametrize("seed", sorted(STRUCTURE_PARAMETERS))
def test_structure_props_candidates_are_pinned(structure_props, seed):
    v = structure_props(seed)
    assert v.passed
    keys = ("candidates", "local_vanishing_instances", "triangular_instances", "word_instances")
    assert tuple(v.parameters[k] for k in keys) == STRUCTURE_PARAMETERS[seed]


def test_structure_props_triangular_check_has_a_counterexample():
    # <diag(1,4), [[1,3],[3,1]]> over Z/9 meets the hypotheses of the check
    # "nontrivial quotients with a qualifying diagonal are triangularizable"
    # and is not triangularizable: the check passes only because its sampled
    # candidates miss such groups. Mod 3 the group is trivial, so triangular.
    Z9 = ModulusContext(3, 2)
    grp = close_group([Mat2.diagonal(1, 4, Z9), Mat2(1, 3, 3, 1, Z9)], Z9)
    rep = h1_loc(cohomology_engine(grp))
    assert (len(grp), rep.h1_invariants, rep.h1loc_invariants) == (9, (3, 3), (3,))
    assert _qualifying_diagonals(grp) == [Mat2.diagonal(1, 4, Z9), Mat2.diagonal(1, 7, Z9)]
    assert find_triangularizing_conjugator(grp) is None
    level1 = reduce_mod(grp, 1)
    assert find_triangularizing_conjugator(level1) == Mat2.identity(level1.ctx)


def test_curated_mod4_groups_are_pinned():
    # group count, total order and sha256 of the JSON element row lists,
    # recorded under the same change as STRUCTURE_PARAMETERS
    groups = _curated_mod4_groups()
    rows = [[g.row_list() for g in grp.elements] for grp in groups]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert (len(groups), sum(map(len, groups)), digest) == (
        14,
        57,
        "195a3dd018b363a7b49288cfbcccd2366f2f5d053c978983a501929293c2e4b9",
    )


def test_brute_helpers_match_known_cyclic_case():
    ctx = ModulusContext(3, 1)
    grp = close_group([Mat2(1, 1, 0, 1, ctx)], ctx)
    z = brute_cocycle_tables(grp)
    b = brute_coboundary_tables(grp)
    assert len(z) == 9 and len(b) == 3
    assert b <= z
    assert brute_quotient_invariants(z, b, ctx) == [3]


def test_certificate_does_not_depend_on_the_generator_order():
    # one group closed from two generator orders keeps two generating sets,
    # but its certificate carries the greedy generators of its sorted elements
    Z3 = ModulusContext(3, 1)
    a, b = Mat2.diagonal(2, 1, Z3), Mat2.diagonal(1, 2, Z3)
    first, second = close_group([a, b], Z3), close_group([b, a], Z3)
    assert first == second and first.generating_set != second.generating_set
    run = _Run("certificates", {}, 1000)
    run.counterexample(first, "reason")
    run.counterexample(second, "reason")
    assert run.counterexamples[0] == run.counterexamples[1]
    assert run.counterexamples[0]["generators"] == [[[1, 0], [0, 2]], [[2, 0], [0, 1]]]
