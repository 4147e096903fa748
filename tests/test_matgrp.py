"""Tests for matrix groups over Z/p^nZ.

Closure orders, subgroup counts, and triangularizability verdicts are
checked against literal enumeration over the full ambient group where
that is feasible.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cohomlab.errors import CapExceeded, NonInvertibleConjugator, NonInvertibleGenerator
from cohomlab.matgrp import (
    DEFAULT_CAP,
    ExampleGroup,
    Mat2,
    MatGroup,
    TripleParam,
    close_group,
    closed_form_triple,
    conjugate,
    cyclic_subgroups,
    enumerate_subgroups,
    find_triangularizing_conjugator,
    make_example_group,
    maximal_cyclic_subgroups,
    reduce_mod,
    smallest_nonsquare,
    special_subgroups,
)
from cohomlab.zmod import ModulusContext

Z2 = ModulusContext(2, 1)
Z3 = ModulusContext(3, 1)
Z9 = ModulusContext(3, 2)


def full_gl2(ctx):
    N = ctx.modulus
    elems = [
        Mat2(a, b, c, d, ctx)
        for a, b, c, d in itertools.product(range(N), repeat=4)
        if (a * d - b * c) % ctx.p != 0
    ]
    return MatGroup(tuple(elems), ctx)


def brute_subgroup_sets(group):
    """All subgroups of a tiny group by filtering every subset. |G| <= 8."""
    elems = list(group.elements)
    ident = group.identity
    out = set()
    for r in range(1, len(elems) + 1):
        for sub in itertools.combinations(elems, r):
            s = set(sub)
            if ident not in s:
                continue
            if all(a * b in s for a in s for b in s):
                out.add(tuple(sorted(s)))
    return out


# ---------------------------------------------------------------------------
# Mat2 arithmetic
# ---------------------------------------------------------------------------


def test_mat2_reduces_entries():
    m = Mat2(10, -1, 9, 4, Z9)
    assert m.row_list() == [[1, 8], [0, 4]]


def test_mat2_mul_det_inv():
    a = Mat2(1, 1, 0, 1, Z9)
    b = Mat2(2, 0, 0, 5, Z9)
    ab = a * b
    assert ab.row_list() == [[2, 5], [0, 5]]
    assert ab.det() == 10 % 9
    assert (ab * ab.inv()) == Mat2.identity(Z9)
    assert a.pow(9) == Mat2.identity(Z9)
    assert a.pow(-1) == Mat2(1, -1, 0, 1, Z9)


def test_mat2_order():
    assert Mat2.identity(Z9).order() == 1
    assert Mat2(1, 1, 0, 1, Z9).order() == 9
    assert Mat2.diagonal(1, -1, Z9).order() == 2
    for grp in (full_gl2(ModulusContext(2, 2)), make_example_group(5).group):
        ident = grp.identity
        for g in grp:
            least = next(k for k in itertools.count(1) if g.pow(k) == ident)
            assert g.order() == least, g


def test_mat2_shape_predicates():
    assert Mat2.diagonal(2, 5, Z9).is_diagonal()
    assert Mat2(1, 3, 0, 1, Z9).is_unipotent_upper()
    assert not Mat2(1, 3, 0, 1, Z9).is_unipotent_lower()
    assert Mat2(1, 0, 3, 1, Z9).is_unipotent_lower()
    assert Mat2(2, 1, 0, 5, Z9).is_upper() and not Mat2(2, 1, 0, 5, Z9).is_lower()


def test_mat2_reduce_to():
    m = Mat2(4, 6, 3, 7, Z9)
    r = m.reduce_to(1)
    assert r.ctx == Z3 and r.row_list() == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        m.reduce_to(3)


def test_mat2_apply():
    m = Mat2(1, 1, 0, 1, Z9)
    assert tuple(m.apply((2, 3))) == (5, 3)


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def test_close_group_sigma_mod3():
    g = close_group([Mat2(1, 1, 0, 1, Z3)], Z3)
    assert len(g) == 3


def test_close_group_gl2_f2():
    gens = [Mat2(0, 1, 1, 0, Z2), Mat2(1, 1, 0, 1, Z2)]
    g = close_group(gens, Z2)
    assert len(g) == 6
    assert g == full_gl2(Z2)


def test_close_group_rejects_singular_generator():
    with pytest.raises(NonInvertibleGenerator):
        close_group([Mat2(3, 0, 0, 1, Z9)], Z9)


def test_close_group_cap():
    sigma = Mat2(1, 1, 0, 1, Z9)
    with pytest.raises(CapExceeded):
        close_group([sigma], Z9, cap=4)
    assert len(close_group([sigma], Z9, cap=9)) == 9
    with pytest.raises(CapExceeded):
        close_group([sigma], Z9, cap=8)


def test_close_group_keeps_only_needed_generators():
    ident = Mat2.identity(Z9)
    a = Mat2(1, 1, 0, 1, Z9)
    b = Mat2(2, 0, 0, 1, Z9)
    gens = [ident, a, a, b, a * b, b * a, b]
    g = close_group(gens, Z9)
    assert len(g) == 54
    assert g.generating_set == (a, b)
    assert g.to_spec_dict()["generators"] == [a.row_list(), b.row_list()]
    assert MatGroup(g.elements, Z9, gens).generating_set == g.generating_set


def test_generating_set_regenerates():
    g = close_group([Mat2(0, 1, 1, 0, Z2), Mat2(1, 1, 0, 1, Z2)], Z2)
    regen = close_group(g.generating_set, Z2)
    assert regen == g
    trivial = MatGroup((Mat2.identity(Z9),), Z9)
    assert trivial.generating_set == ()
    assert trivial.to_spec_dict()["generators"] == [[[1, 0], [0, 1]]]


def _gl2_z9():
    return close_group([Mat2(1, 1, 0, 1, Z9), Mat2(1, 0, 1, 1, Z9), Mat2(2, 0, 0, 1, Z9)], Z9)


def _table_groups():
    """(name, group) pairs: closed groups, then groups built from element lists."""
    gl2 = _gl2_z9()
    family = make_example_group(5).group
    borel = close_group([Mat2(1, 1, 0, 1, Z9), Mat2(2, 0, 0, 1, Z9), Mat2(1, 0, 0, 4, Z9)], Z9)
    biggest = max(cyclic_subgroups(family), key=len)
    return [
        ("gl2-z9", gl2),
        ("family-p5", family),
        ("trivial", close_group([], Z9)),
        ("conjugate", conjugate(borel, Mat2(1, 2, 4, 1, Z9))),
        ("reduce-mod", reduce_mod(gl2, 1)),
        *((f"special-{i}", h) for i, h in enumerate(special_subgroups(borel))),
        ("cyclic", biggest),
        ("bare", MatGroup(tuple(reversed(family.elements)), family.ctx)),
    ]


def test_cayley_table_matches_literal_products():
    for name, grp in _table_groups():
        elements, gens = grp.elements, grp.generating_set
        k = len(gens)
        assert len(grp.cayley) == len(elements) * k, name
        for h, x in enumerate(elements):
            for i, s in enumerate(gens):
                assert elements[grp.cayley[h * k + i]] == x * s, (name, x, s)
        assert close_group(gens, grp.ctx) == grp, name
        # elements built by the walk equal, hash and sort like constructed ones
        fresh = [Mat2(g.a, g.b, g.c, g.d, grp.ctx) for g in elements]
        assert list(elements) == fresh and set(elements) == set(fresh), name
        assert [hash(g) for g in elements] == [hash(g) for g in fresh], name
        assert list(elements) == sorted(fresh), name
        assert sorted(elements, reverse=True) == sorted(fresh, reverse=True), name
        N = grp.ctx.modulus
        assert all(g.ctx == grp.ctx and 0 <= min(g.a, g.b, g.c, g.d) <= max(g.a, g.b, g.c, g.d) < N for g in elements), name


def test_generating_set_rejects_elements_that_are_not_a_group():
    with pytest.raises(ValueError, match="not closed"):
        MatGroup((Mat2.identity(Z9), Mat2(1, 1, 0, 1, Z9)), Z9).generating_set


# ---------------------------------------------------------------------------
# the counterexample family
# ---------------------------------------------------------------------------


def test_smallest_nonsquare_values():
    assert smallest_nonsquare(3) == 2
    assert smallest_nonsquare(5) == 2
    assert smallest_nonsquare(7) == 3
    assert smallest_nonsquare(11) == 2


@pytest.mark.parametrize("p", [3, 5])
def test_make_example_group_order_and_labels(p):
    ex = make_example_group(p)
    assert len(ex.group) == 2 * p * p
    assert ex.nonsquare == 2
    assert len(ex.triples) == 2 * p * p
    assert ex.element(0, 0, 0) == Mat2.identity(ex.group.ctx)
    assert ex.element(1, 0, 0) == ex.delta1
    assert ex.element(0, 1, 0) == ex.delta2
    assert ex.element(0, 0, 1) == ex.delta3


def test_make_example_group_rejects_bad_p_and_m():
    with pytest.raises(ValueError):
        make_example_group(2)
    with pytest.raises(ValueError):
        make_example_group(9)
    with pytest.raises(ValueError):
        make_example_group(3, m=4)  # 4 is a square mod 3


def test_triple_product_law_exhaustive_p3():
    # (a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, (-1)^{a2} c1 + c2)
    ex = make_example_group(3)
    p = 3
    for t1, t2 in itertools.product(ex.triples, repeat=2):
        expect = TripleParam(
            (t1.a + t2.a) % 2,
            (t1.b + t2.b) % p,
            ((-1) ** t2.a * t1.c + t2.c) % p,
        )
        assert ex.triples[t1] * ex.triples[t2] == ex.triples[expect]


def test_triple_of_roundtrip():
    ex = make_example_group(3)
    for t, g in ex.triples.items():
        assert ex.triple_of(g) == t


def test_reduce_mod_example_group():
    ex = make_example_group(3)
    r = reduce_mod(ex.group, 1)
    assert r.ctx == Z3
    assert len(r) == 2
    assert sorted(g.row_list() for g in r) == [[[1, 0], [0, 1]], [[1, 0], [0, 2]]]


def test_special_subgroups_example():
    ex = make_example_group(3)
    d, su, sl = special_subgroups(ex.group)
    assert len(d) == 6  # diag(1,-1) and diag(1+p,1+p) commute: 2*3 elements
    assert len(su) == 1 and len(sl) == 1


def test_special_subgroups_borel():
    g = close_group([Mat2(1, 1, 0, 1, Z3), Mat2(2, 0, 0, 1, Z3)], Z3)
    d, su, sl = special_subgroups(g)
    assert len(g) == 6 and len(d) == 2 and len(su) == 3 and len(sl) == 1


# ---------------------------------------------------------------------------
# subgroup enumeration
# ---------------------------------------------------------------------------


def test_cyclic_subgroups_gl2_f2():
    g = full_gl2(Z2)
    cyc = cyclic_subgroups(g)
    assert [len(h) for h in cyc] == [1, 2, 2, 2, 3]


def brute_cyclic_subgroups(group):
    """{sorted <g>: every g generating it, in canonical order}, from literal powers."""
    out = {}
    for g in group.elements:
        powers = {group.identity}
        cur = g
        while cur not in powers:
            powers.add(cur)
            cur = cur * g
        out.setdefault(tuple(sorted(powers)), []).append(g)
    return out


BOREL9 = close_group([Mat2(2, 0, 0, 1, Z9), Mat2(1, 0, 0, 2, Z9), Mat2(1, 1, 0, 1, Z9)], Z9)


@pytest.mark.parametrize(
    "group",
    [full_gl2(ModulusContext(2, 2)), make_example_group(5).group, BOREL9],
    ids=["gl2-z4", "family-p5", "borel-z9"],
)
def test_cyclic_subgroups_match_brute(group):
    brute = brute_cyclic_subgroups(group)
    cyc = cyclic_subgroups(group)
    assert [h.elements for h in cyc] == sorted(brute, key=lambda key: (len(key), key))
    assert len({h.elements for h in cyc}) == len(cyc)
    for h in cyc:
        assert h._gens == (brute[h.elements][0],)


@pytest.mark.parametrize(
    "group",
    [full_gl2(ModulusContext(2, 2)), make_example_group(5).group, BOREL9, close_group([], Z9)],
    ids=["gl2-z4", "family-p5", "borel-z9", "trivial"],
)
def test_maximal_cyclic_subgroups_match_brute(group):
    brute = brute_cyclic_subgroups(group)
    literal = {key: gens for key, gens in brute.items() if not any(set(key) < set(other) for other in brute)}
    maximal = maximal_cyclic_subgroups(group)
    assert [h.elements for h in maximal] == sorted(literal, key=lambda key: (len(key), key))
    for h in maximal:
        assert h._gens == (literal[h.elements][0],)
    assert set().union(*(h.elements for h in maximal)) == set(group.elements)
    assert list(group._power_walk.orders) == [g.order() for g in group.elements]
    # conjugacy oracle: each literal maximal subgroup conjugated by every element
    classes = {}
    for key in sorted(literal, key=lambda key: (len(key), key)):
        if key not in classes:
            orbit = set()
            for t in group.elements:
                t_inv = t.inv()
                orbit.add(tuple(sorted(t * h * t_inv for h in key)))
            assert orbit <= set(literal)
            for other in orbit:
                classes[other] = key
    firsts = list(dict.fromkeys(classes.values()))
    assert _representatives(group) == firsts


def _representatives(group):
    """The class representatives of a group, as sorted element tuples."""
    return [tuple(sorted(group.elements[j] for j in powers)) for powers in group._class_representatives]


def test_power_walk_forms_no_matrix_products(monkeypatch):
    groups = [make_example_group(5).group, BOREL9]
    want = [
        (
            [h.elements for h in cyclic_subgroups(g)],
            [h.elements for h in maximal_cyclic_subgroups(g)],
            _representatives(g),
        )
        for g in groups
    ]

    def no_products(self, other):
        raise AssertionError("Mat2.mul called")

    monkeypatch.setattr(Mat2, "mul", no_products)
    for g, (cyclic, maximal, reps) in zip(groups, want):
        fresh = MatGroup(g.elements, g.ctx)
        assert [h.elements for h in cyclic_subgroups(fresh)] == cyclic
        assert [h.elements for h in maximal_cyclic_subgroups(fresh)] == maximal
        assert _representatives(fresh) == reps


def test_enumerate_subgroups_gl2_f2():
    g = full_gl2(Z2)
    subs = enumerate_subgroups(g)
    assert [len(h) for h in subs] == [1, 2, 2, 2, 3, 6]
    assert {h.elements for h in subs} == brute_subgroup_sets(g)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_enumerate_subgroups_matches_brute_on_small_groups(data):
    # random small subgroups of GL2(F3), order <= 8, checked against subsets
    ctx = Z3
    g1 = Mat2(*(data.draw(st.integers(0, 2)) for _ in range(4)), ctx)
    g2 = Mat2(*(data.draw(st.integers(0, 2)) for _ in range(4)), ctx)
    gens = [g for g in (g1, g2) if g.is_invertible()]
    try:
        grp = close_group(gens, ctx, cap=9)
    except CapExceeded:
        return
    if len(grp) > 8:
        return
    subs = enumerate_subgroups(grp)
    assert {h.elements for h in subs} == brute_subgroup_sets(grp)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------


def test_conjugate_swap_exchanges_triangles():
    lower = close_group([Mat2(1, 0, 1, 1, Z3)], Z3)
    swap = Mat2(0, 1, 1, 0, Z3)
    upper = conjugate(lower, swap)
    assert upper == close_group([Mat2(1, 1, 0, 1, Z3)], Z3)


def test_conjugate_rejects_singular():
    g = close_group([Mat2(1, 1, 0, 1, Z9)], Z9)
    with pytest.raises(NonInvertibleConjugator):
        conjugate(g, Mat2(3, 0, 0, 1, Z9))


def test_triangularizing_conjugator_upper_cases():
    sigma = close_group([Mat2(1, 1, 0, 1, Z3)], Z3)
    assert find_triangularizing_conjugator(sigma) == (Mat2.identity(Z3), "upper")
    diag = close_group([Mat2(2, 0, 0, 1, Z3), Mat2(1, 0, 0, 2, Z3)], Z3)
    assert find_triangularizing_conjugator(diag) == (Mat2.identity(Z3), "upper")


def test_triangularizing_conjugator_lower_case():
    lower = close_group([Mat2(1, 0, 1, 1, Z3), Mat2(2, 0, 0, 1, Z3)], Z3)
    t, kind = find_triangularizing_conjugator(lower)
    assert kind == "lower" and t == Mat2.identity(Z3)


def test_triangularizing_conjugator_finds_hidden_conjugate():
    base = close_group([Mat2(1, 1, 0, 1, Z9), Mat2(2, 0, 0, 1, Z9)], Z9)
    u = Mat2(1, 0, 1, 1, Z9)
    hidden = conjugate(base, u)
    assert not all(g.is_upper() for g in hidden) and not all(g.is_lower() for g in hidden)
    t, kind = find_triangularizing_conjugator(hidden)
    conj = conjugate(hidden, t)
    assert kind == "upper" and all(g.is_upper() for g in conj)


def test_triangularizing_conjugator_none_for_gl2_f3():
    g = full_gl2(Z3)
    assert len(g) == 48
    assert find_triangularizing_conjugator(g) is None


def test_triangularizing_conjugator_exhaustive_mod3():
    # verdict must agree with a literal scan over all 48 possible conjugators
    groups = enumerate_subgroups(full_gl2(Z3))
    all_t = list(full_gl2(Z3).elements)
    for grp in groups:
        got = find_triangularizing_conjugator(grp)
        brute = any(
            all(g.is_upper() for g in conjugate(grp, t)) or all(g.is_lower() for g in conjugate(grp, t))
            for t in all_t
        )
        assert (got is not None) == brute
        if got is not None:
            t, kind = got
            conj = conjugate(grp, t)
            assert all(g.is_upper() for g in conj) if kind == "upper" else all(g.is_lower() for g in conj)
