"""Verdict-level tests for the named experiments."""

import json

import pytest

from cohomlab.errors import BudgetExceeded
from cohomlab.experiments import (
    ExperimentVerdict,
    Check,
    brute_coboundary_tables,
    brute_cocycle_tables,
    brute_quotient_invariants,
    falsify_main_theorem,
    full_matrix_group_mod_p,
    run_example6,
    sample_level2_groups,
    verify_diagonal_triviality,
    verify_oracle_equivalence,
    verify_shape_lemma,
    verify_structure_props,
)
from cohomlab.matgrp import Mat2, close_group
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
    v = verify_shape_lemma(5, seed=1, samples=40)
    assert v.passed
    assert not v.parameters["exhaustive"]
    assert v.parameters["candidates"] >= 40


def test_shape_lemma_rejects_other_primes():
    with pytest.raises(ValueError):
        verify_shape_lemma(7)


def test_structure_props_passes_with_instances():
    v = verify_structure_props(3, samples=10)
    assert v.passed
    assert v.parameters["local_vanishing_instances"] > 0
    assert v.parameters["word_instances"] > 0


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


def test_oracle_equivalence_passes():
    v = verify_oracle_equivalence()
    assert v.passed
    assert v.parameters["mod2_groups"] == 6
    assert v.parameters["mod3_groups"] >= 10
    assert v.parameters["mod4_groups"] >= 10


def test_experiments_deterministic_given_seed():
    assert normalized(falsify_main_theorem(3, seed=5, samples=15)) == normalized(
        falsify_main_theorem(3, seed=5, samples=15)
    )
    assert normalized(verify_shape_lemma(5, seed=2, samples=25)) == normalized(
        verify_shape_lemma(5, seed=2, samples=25)
    )


def test_sampling_seed_changes_output():
    a = [g.elements for g in sample_level2_groups(3, seed=1, count=25)]
    b = [g.elements for g in sample_level2_groups(3, seed=1, count=25)]
    c = [g.elements for g in sample_level2_groups(3, seed=2, count=25)]
    assert a == b
    assert a != c


def test_brute_helpers_match_known_cyclic_case():
    ctx = ModulusContext(3, 1)
    grp = close_group([Mat2(1, 1, 0, 1, ctx)], ctx)
    z = brute_cocycle_tables(grp)
    b = brute_coboundary_tables(grp)
    assert len(z) == 9 and len(b) == 3
    assert b <= z
    assert brute_quotient_invariants(z, b, ctx) == [3]
