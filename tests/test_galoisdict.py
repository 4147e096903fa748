"""Tests for the group-to-arithmetic dictionary predicates.

Stability and fixed-point answers are checked against literal loops over
every group element and every module vector.
"""

import itertools

import pytest

from cohomlab.errors import WrongLevel
from cohomlab.galoisdict import (
    ConditionReport,
    det_image,
    det_kernel_trivial,
    evaluate_main_theorem_conditions,
    fixed_points,
    isogeny_condition_p3,
    stable_cyclic_submodules,
)
from cohomlab.matgrp import Mat2, MatGroup, close_group, enumerate_subgroups, make_example_group, reduce_mod
from cohomlab.zmod import ModulusContext

Z3 = ModulusContext(3, 1)
Z9 = ModulusContext(3, 2)


def brute_fixed(group):
    n = group.ctx.modulus
    return {
        v
        for v in itertools.product(range(n), repeat=2)
        if all(g.apply(v) == v for g in group.elements)
    }


def brute_stable_spans(group, exact_order):
    ctx = group.ctx
    n = ctx.modulus
    out = set()
    for v in itertools.product(range(n), repeat=2):
        span = {tuple(((k * v[0]) % n, (k * v[1]) % n)) for k in range(n)}
        if len(span) != exact_order:
            continue
        if all(g.apply(v) in span for g in group.elements):
            out.add(frozenset(span))
    return out


def full_gl2_f3():
    return close_group(
        [Mat2(1, 1, 0, 1, Z3), Mat2(2, 0, 0, 1, Z3), Mat2(0, 2, 1, 0, Z3)], Z3, cap=60
    )


def upper_triangular_mod9():
    units = [1, 2, 4, 5, 7, 8]
    elems = tuple(
        Mat2(a, b, 0, d, Z9) for a in units for d in units for b in range(9)
    )
    return MatGroup(elems, Z9)


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------


def test_fixed_points_trivial_group():
    g = MatGroup((Mat2.identity(Z3),), Z3)
    assert fixed_points(g).cardinality() == 9


def test_fixed_points_diag12():
    g = close_group([Mat2.diagonal(1, 2, Z3)], Z3)
    fp = fixed_points(g)
    assert fp.cardinality() == 3
    assert fp.contains((1, 0)) and not fp.contains((0, 1))


def test_fixed_points_gl2f3_zero():
    assert fixed_points(full_gl2_f3()).is_zero()


def test_fixed_points_match_brute():
    groups = [
        close_group([Mat2(1, 1, 0, 1, Z9)], Z9),
        close_group([Mat2.diagonal(1, 4, Z9)], Z9),
        make_example_group(3).group,
        full_gl2_f3(),
    ]
    for g in groups:
        assert set(fixed_points(g).vectors()) == brute_fixed(g)


# ---------------------------------------------------------------------------
# determinant predicates
# ---------------------------------------------------------------------------


def test_det_image_cases():
    ex = make_example_group(3)
    g1 = reduce_mod(ex.group, 1)
    assert det_image(g1) == [1, 2]
    assert det_image(MatGroup((Mat2.identity(Z3),), Z3)) == [1]
    assert det_image(ex.group) == [1, 2, 4, 5, 7, 8]


def test_det_kernel_trivial_cases():
    ex = make_example_group(3)
    g1 = reduce_mod(ex.group, 1)
    assert det_kernel_trivial(g1) is True
    assert det_kernel_trivial(MatGroup((Mat2.identity(Z3),), Z3)) is True
    sigma = close_group([Mat2(1, 1, 0, 1, Z3)], Z3)
    assert det_kernel_trivial(sigma) is False
    with pytest.raises(WrongLevel):
        det_kernel_trivial(ex.group)


# ---------------------------------------------------------------------------
# stable cyclic submodules
# ---------------------------------------------------------------------------


def test_stable_submodules_example_group():
    ex = make_example_group(3)
    stable_p = stable_cyclic_submodules(ex.group, 3)
    assert len(stable_p) == 2
    spans = {s.generators for s in stable_p}
    assert spans == {((3, 0),), ((0, 3),)}
    assert stable_cyclic_submodules(ex.group, 9) == []


def test_stable_submodules_trivial_group_all_lines():
    g = MatGroup((Mat2.identity(Z9),), Z9)
    assert len(stable_cyclic_submodules(g, 3)) == 4
    assert len(stable_cyclic_submodules(g, 9)) == 12  # cyclic order-9 submodules of (Z/9)^2


def test_stable_submodules_match_brute():
    Z8 = ModulusContext(2, 3)
    Z27 = ModulusContext(3, 3)
    upper_mod8 = MatGroup(
        tuple(Mat2(a, b, 0, d, Z8) for a in (1, 3, 5, 7) for d in (1, 3, 5, 7) for b in range(8)), Z8
    )
    cases = [
        (make_example_group(3).group, (3, 9)),
        (make_example_group(5).group, (5, 25)),
        (upper_triangular_mod9(), (3, 9)),
        (close_group([Mat2(1, 1, 0, 1, Z9)], Z9), (3, 9)),
        (upper_mod8, (2, 4, 8)),
        (MatGroup((Mat2.identity(Z27),), Z27), (3, 9, 27)),
    ]
    Z4 = ModulusContext(2, 2)
    gl2_z4 = close_group([Mat2(1, 1, 0, 1, Z4), Mat2(0, 1, 1, 0, Z4), Mat2(3, 0, 0, 1, Z4)], Z4)
    subgroups = enumerate_subgroups(gl2_z4)
    assert (len(gl2_z4), len(subgroups)) == (96, 234)
    cases += [(g, (2, 4)) for g in subgroups]
    for g, orders in cases:
        for order in orders:
            stable = stable_cyclic_submodules(g, order)
            keys = [s.generators for s in stable]
            assert keys == sorted(keys)
            got = {frozenset(s.vectors()) for s in stable}
            assert len(got) == len(stable)
            assert got == brute_stable_spans(g, order)


def test_stable_submodules_rejects_bad_order():
    g = MatGroup((Mat2.identity(Z9),), Z9)
    with pytest.raises(ValueError):
        stable_cyclic_submodules(g, 27)
    with pytest.raises(ValueError):
        stable_cyclic_submodules(g, 1)


# ---------------------------------------------------------------------------
# the level-2 intersection condition
# ---------------------------------------------------------------------------


def test_isogeny_condition_example_group_false():
    ex = make_example_group(3)
    assert isogeny_condition_p3(ex.group) is False


def test_isogeny_condition_trivial_group_true():
    g = MatGroup((Mat2.identity(Z9),), Z9)
    assert isogeny_condition_p3(g) is True


def test_isogeny_condition_upper_triangular_false():
    assert isogeny_condition_p3(upper_triangular_mod9()) is False


def test_isogeny_condition_wrong_level():
    with pytest.raises(WrongLevel):
        isogeny_condition_p3(full_gl2_f3())


# ---------------------------------------------------------------------------
# the aggregated report
# ---------------------------------------------------------------------------


def test_report_example_group_profile():
    ex = make_example_group(3)
    rep = evaluate_main_theorem_conditions(ex.group)
    assert rep.zeta_condition_holds is False
    assert rep.has_fixed_point_of_exact_order_p is True
    assert rep.det_kernel_trivial_mod_p is True
    assert rep.isogeny_condition_p3 is False
    assert rep.det_image_order_mod_p == 2
    assert len(rep.stable_cyclic_order_p) == 2
    assert rep.stable_cyclic_order_p2 == ()
    assert (3 - 1) % rep.det_image_order_mod_p == 0


def test_report_gl2_mod9_no_fixed_point():
    elems = tuple(
        Mat2(a, b, c, d, Z9)
        for a, b, c, d in itertools.product(range(9), repeat=4)
        if (a * d - b * c) % 3 != 0
    )
    g = MatGroup(elems, Z9)
    assert len(g) == 3888
    rep = evaluate_main_theorem_conditions(g)
    assert rep.has_fixed_point_of_exact_order_p is False
    # at p=3 the determinant order divides p-1=2, so zeta can never hold
    assert rep.det_image_order_mod_p == 2
    assert rep.zeta_condition_holds is False


def test_report_sigma_lift_det_order_one():
    g = close_group([Mat2(1, 1, 0, 1, Z9)], Z9)
    rep = evaluate_main_theorem_conditions(g)
    assert rep.det_image_order_mod_p == 1
    assert rep.zeta_condition_holds is False


def test_report_wrong_level():
    with pytest.raises(WrongLevel):
        evaluate_main_theorem_conditions(full_gl2_f3())


def test_report_isogeny_implies_stable_p2():
    g = MatGroup((Mat2.identity(Z9),), Z9)
    rep = evaluate_main_theorem_conditions(g)
    assert rep.isogeny_condition_p3 is True
    assert rep.stable_cyclic_order_p2 != ()


def test_report_serialization_keys():
    ex = make_example_group(3)
    d = evaluate_main_theorem_conditions(ex.group).to_json_dict()
    assert set(d) == {
        "hasFixedPointOfExactOrderP",
        "detImageOrderMod_p",
        "detKernelTrivialMod_p",
        "stableCyclicOrderP",
        "stableCyclicOrderP2",
        "isogenyConditionP3",
        "zetaConditionHolds",
    }
    assert d["stableCyclicOrderP"] == [[[0, 3]], [[3, 0]]] or d["stableCyclicOrderP"] == [
        [[3, 0]],
        [[0, 3]],
    ]
