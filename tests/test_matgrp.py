"""Tests for matrix groups over Z/p^nZ.

Closure orders, subgroup counts, and triangularizability verdicts are
checked against literal enumeration over the full ambient group where
that is feasible.
"""

import functools
import hashlib
import itertools
import signal
from array import array
from operator import attrgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from cohomlab import matgrp
from cohomlab.cohom import cohomology_engine
from cohomlab.errors import BudgetExceeded, CapExceeded, NonInvertibleConjugator, NonInvertibleGenerator, NotAUnit
from cohomlab.experiments import full_diagonal_group
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
from cohomlab.zmod import ModulusContext, _is_prime

Z2 = ModulusContext(2, 1)
Z3 = ModulusContext(3, 1)
Z4 = ModulusContext(2, 2)
Z8 = ModulusContext(2, 3)
Z9 = ModulusContext(3, 2)


def full_gl2(ctx):
    N = ctx.modulus
    elems = [
        Mat2(a, b, c, d, ctx)
        for a, b, c, d in itertools.product(range(N), repeat=4)
        if (a * d - b * c) % ctx.p != 0
    ]
    return MatGroup(tuple(elems), ctx)


@functools.cache
def gl2_elements(ctx):
    return full_gl2(ctx).elements


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


def pairwise_union_subgroups(group):
    """Element tuples of all subgroups, sorted by (order, elements), found by
    closing pairwise unions of the subgroups found so far, starting from the
    cyclic ones, until nothing new appears. Complete because every subgroup
    is generated by finitely many cyclic pieces."""
    found = {h.elements: h for h in cyclic_subgroups(group)}
    changed = True
    while changed:
        changed = False
        current = sorted(found.values(), key=lambda h: (len(h), h.elements))
        for h1, h2 in itertools.combinations(current, 2):
            if set(h1.elements) <= set(h2.elements) or set(h2.elements) <= set(h1.elements):
                continue
            joined = close_group(h1.generating_set + h2.generating_set, group.ctx, cap=len(group) + 1)
            if joined.elements not in found:
                found[joined.elements] = joined
                changed = True
    return sorted(found, key=lambda elements: (len(elements), elements))


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


def test_singular_matrices_have_no_order():
    # The powers of a singular matrix never reach I, so the determinant is
    # tested before the first power. An alarm turns a regression into a
    # failure rather than a hang.
    def hang(signum, frame):
        raise TimeoutError("walked the powers of a singular matrix")

    old = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        for m in (Mat2(1, 0, 0, 0, Z3), Mat2(1, 0, 0, 0, Z9), Mat2(3, 1, 0, 3, Z9), Mat2(0, 0, 0, 0, Z9)):
            with pytest.raises(NotAUnit):
                m.order()
        # {e, I} with e = diag(1, 0) is closed, and e^k = e for every k
        monoid = MatGroup((Mat2(1, 0, 0, 0, Z9), Mat2.identity(Z9)), Z9)
        with pytest.raises(ValueError, match="singular"):
            monoid._power_walk
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


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
    assert m.apply((2, 3)) == (5, 3)
    # entries are reduced mod p^n
    assert m.apply((8, 8)) == (7, 8)
    assert Mat2(8, 8, 8, 8, Z9).apply((-1, 10)) == (0, 0)


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
    # the span grows by whole cosets; the cap is still exact
    family = make_example_group(5)
    for gens, order in (
        ([Mat2(1, 1, 0, 1, Z9), Mat2(1, 0, 1, 1, Z9), Mat2(2, 0, 0, 1, Z9)], 3888),
        ([family.delta1, family.delta2, family.delta3], 50),
    ):
        ctx = gens[0].ctx
        assert len(close_group(gens, ctx, cap=order)) == order
        with pytest.raises(CapExceeded):
            close_group(gens, ctx, cap=order - 1)


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


def _named_groups():
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


def test_elements_equal_hash_and_sort_like_constructed_matrices():
    for name, grp in _named_groups():
        elements, gens = grp.elements, grp.generating_set
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
    # the walk stops as soon as the span outgrows the elements, and an empty
    # set lacks the identity that every span holds
    for codes in ((matgrp._code((1, 1, 0, 1), 9),), ()):
        with pytest.raises(ValueError, match="not closed"):
            MatGroup.from_codes(codes, Z9).generating_set


# ---------------------------------------------------------------------------
# element codes
# ---------------------------------------------------------------------------


def tuple_grow_span(candidates, N, cap):
    """The closure walk on plain (a, b, c, d) tuples, one element at a time,
    each product formed by four multiplications mod N: an independent
    reference for the coset walk on codes and row tables in
    matgrp._grow_span. Returns the numbers of the kept candidates, the
    elements by number in the order found, and products[h * k + i], the
    number of element h times kept generator i."""
    ident = (1, 0, 0, 1)
    found = [ident]
    number = {ident: 0}
    gens = []
    products = array("I")

    def step(h, first):
        x, y, z, w = found[h]
        for i in range(first, k):
            a, b, c, d = gens[i]
            m = ((x * a + y * c) % N, (x * b + y * d) % N, (z * a + w * c) % N, (z * b + w * d) % N)
            j = number.get(m)
            if j is None:
                if len(found) >= cap:
                    raise CapExceeded(f"group closure exceeded cap of {cap} elements")
                j = number[m] = len(found)
                found.append(m)
                products.extend(blank)
                fresh.append(j)
            products[h * k + i] = j

    for g in candidates:
        if g in number:
            continue
        gens.append(g)
        k = len(gens)
        blank = array("I", bytes(4 * k))
        wider = blank * len(found)
        for i in range(k - 1):
            wider[i::k] = products[i :: k - 1]
        products = wider
        fresh = []
        for h in range(len(found)):
            step(h, k - 1)
        while fresh:
            step(fresh.pop(), 0)
    return [number[g] for g in gens], found, products


@st.composite
def generator_lists(draw):
    """A prime p, an exponent n and up to four invertible (a, b, c, d)
    tuples mod p^n."""
    p, n = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 1), (5, 2), (7, 2)]))
    N = p**n
    entries = st.tuples(*[st.integers(0, N - 1)] * 4).filter(lambda x: (x[0] * x[3] - x[1] * x[2]) % p)
    return p, n, draw(st.lists(entries, max_size=4))


def test_code_walk_matches_tuple_walk(monkeypatch):
    # the walk on codes finds the elements in its own order, so the two walks
    # are compared on the sorted elements, the kept generators and the
    # products of every element with every kept generator (_Right on the
    # sorted codes) renumbered by sorted position
    built, sides = [], set()
    row_tables = matgrp._row_tables
    monkeypatch.setattr(matgrp, "_row_tables", lambda *args: built.append(args) or row_tables(*args))

    @settings(max_examples=60, deadline=None)
    @given(generator_lists())
    # order 49 below N^2 = 2401: every product is formed from the entries
    @example((7, 2, [(1, 1, 0, 1)]))
    # GL2(Z/4), order 96 above N^2 = 16: the generators' row tables are built
    @example((2, 2, [(1, 1, 0, 1), (1, 0, 1, 1), (3, 0, 0, 1)]))
    def check(drawn):
        p, n, gens = drawn
        N = p**n
        codes = [matgrp._code(x, N) for x in gens]
        try:
            chosen, found, products = tuple_grow_span(gens, N, 600)
        except CapExceeded:
            with pytest.raises(CapExceeded):
                matgrp._grow_span(codes, N, 600)
            return
        built.clear()
        kept, walked = matgrp._grow_span(codes, N, 600)
        if kept:
            sides.add("tables" if built else "direct")
        assert [matgrp._entries(g, N) for g in kept] == [found[h] for h in chosen]
        assert len(walked) == len(set(walked)) == len(found)
        grp = matgrp._build(kept, tuple(sorted(walked)), ModulusContext(p, n))
        order = sorted(range(len(found)), key=found.__getitem__)
        position = {h: i for i, h in enumerate(order)}
        assert [matgrp._entries(code, N) for code in grp.codes] == [found[h] for h in order]
        k = len(chosen)
        columns = [matgrp._Right(g, N)(list(grp.codes)) for g in kept]
        by_code = {code: i for i, code in enumerate(grp.codes)}
        assert [by_code[column[j]] for j in range(len(order)) for column in columns] == [
            position[products[h * k + i]] for h in order for i in range(k)
        ]

    check()
    assert sides == {"tables", "direct"}


def test_walk_at_a_large_modulus_builds_no_row_table(monkeypatch):
    built = []
    row_tables = matgrp._row_tables
    monkeypatch.setattr(matgrp, "_row_tables", lambda *args: built.append(args) or row_tables(*args))
    # at N = 9 the walk on GL2(Z/9) outgrows N^2 = 81 direct products per
    # generator, and builds tables of 81 entries
    assert len(_gl2_z9()) == 3888
    assert built and all(len(table) == 81 for args in built for table in row_tables(*args))
    built.clear()
    # at N = 2^32 a table would have 2^64 entries; a group of order 8 and
    # the cocycle walk over it multiply from the entries alone
    ctx = ModulusContext(2, 32)
    N = ctx.modulus
    signed = close_group([Mat2(0, 1, 1, 0, ctx), Mat2.diagonal(N - 1, 1, ctx)], ctx)
    spread = conjugate(signed, Mat2(1, N // 3, 5 + N // 2, 1 + (N // 3) * (5 + N // 2), ctx))
    for grp in (signed, spread):
        assert len(grp) == 8 and len(grp.generating_set) == 2
        assert len(cohomology_engine(grp).coeff.packed) == 8
    assert built == []


def test_close_walk_stops_at_half_of_a_known_group():
    # a span of more than half of a group H that holds the generators is H
    # (Lagrange), so the walk returns None there; a proper subgroup of H has
    # at most half its order and is walked to the end
    upper, lower, scale = Mat2(1, 1, 0, 1, Z3), Mat2(1, 0, 1, 1, Z3), Mat2.diagonal(2, 1, Z3)
    sl2 = close_group([upper, lower], Z3)
    gl2 = close_group([upper, lower, scale], Z3)
    trivial = close_group([], Z3)
    assert (len(trivial), len(sl2), len(gl2)) == (1, 24, 48)
    walk = matgrp._close_walk
    assert walk([upper, lower, scale], Z3, 100, [gl2]) is None
    assert walk([scale, upper, lower], Z3, 100, [trivial, sl2, gl2]) is None
    assert walk([upper, lower], Z3, 100, [gl2, sl2]) is None
    kept, found = walk([upper, lower], Z3, 100, [gl2])
    assert (kept, sorted(found)) == ([matgrp._code(matgrp._key(g), 3) for g in (upper, lower)], list(sl2.codes))
    assert walk([], Z3, 100, [gl2, trivial]) is None
    assert walk([Mat2.identity(Z3)], Z3, 100, [trivial]) is None
    assert walk([], Z3, 100, [sl2]) == ([], [trivial.codes[0]])
    # a generator outside every group given: a plain walk
    kept, found = walk([scale], Z3, 100, [trivial, sl2])
    assert len(found) == 2


@pytest.mark.parametrize("N", [2, 9, 25, 65521**2, 2**32])
def test_codes_sort_as_entry_tuples(N):
    # at N = 2^32 the codes pass 2^64 (2^128 at the top), so Python ints are needed
    edges = [0, 1, 2, N // 2, N - 2, N - 1]
    tuples = sorted({tuple(e % N for e in x) for x in itertools.product(edges, repeat=4)})
    codes = [matgrp._code(x, N) for x in tuples]
    assert codes == sorted(codes) and len(set(codes)) == len(codes)
    assert [matgrp._entries(code, N) for code in codes] == tuples
    assert matgrp._code((1, 0, 0, 1), N) == N**3 + 1


def test_groups_built_either_way_compare_and_hash_equal():
    for name, grp in _named_groups():
        again = MatGroup(grp.elements, grp.ctx)
        assert again == grp and hash(again) == hash(grp), name
        assert again.codes == grp.codes and again.elements == grp.elements, name
        assert MatGroup.from_codes(reversed(grp.codes), grp.ctx) == grp, name
    assert close_group([Mat2(1, 1, 0, 1, Z9)], Z9) != close_group([Mat2(1, 3, 0, 1, Z9)], Z9)
    assert close_group([], Z3) != close_group([], Z9)
    # entries past the modulus would alias another element's code
    with pytest.raises(ValueError, match="modulus mismatch"):
        MatGroup((Mat2(1, 0, 0, 10, ModulusContext(3, 3)),), Z9)


def test_elements_are_built_on_first_read():
    grp = close_group([Mat2(1, 1, 0, 1, Z9), Mat2(2, 0, 0, 1, Z9)], Z9)
    assert "elements" not in vars(grp)
    assert Mat2(1, 2, 0, 1, Z9) in grp and Mat2(1, 0, 1, 1, Z9) not in grp
    assert Mat2(1, 0, 0, 10, ModulusContext(3, 3)) not in grp
    # a matrix over another modulus is never an element, even with the
    # entries of one
    assert Mat2(1, 0, 0, 1, Z3) not in grp and Mat2(1, 2, 0, 1, Z3) not in grp
    assert len(cyclic_subgroups(grp)) > 1 and grp._class_representatives
    assert "elements" not in vars(grp)
    assert [(g.a, g.b, g.c, g.d) for g in grp.elements] == [matgrp._entries(code, 9) for code in grp.codes]
    assert [grp.position(g) for g in grp.elements] == list(range(len(grp)))
    for outside in (Mat2(1, 0, 1, 1, Z9), Mat2(1, 0, 0, 10, ModulusContext(3, 3)), Mat2(1, 0, 0, 1, Z3)):
        with pytest.raises(KeyError):
            grp.position(outside)
    # nor is anything that is not a Mat2
    for outside in ("x", None, 0, (1, 0, 0, 1), [[1, 0], [0, 1]], grp.codes[0], grp):
        assert outside not in grp
        with pytest.raises(KeyError):
            grp.position(outside)


def test_mat2_is_slotted():
    m = Mat2(1, 2, 3, 4, Z9)
    assert not hasattr(m, "__dict__")
    with pytest.raises(AttributeError):
        m.a = 0
    assert m == Mat2(10, 11, 12, 13, Z9) and hash(m) == hash(Mat2(10, 11, 12, 13, Z9))
    assert Mat2(1, 2, 3, 4, Z9) < Mat2(1, 2, 4, 0, Z9) and Mat2(0, 8, 8, 8, Z9) < m


def test_mat2_equality_and_hash_see_the_modulus():
    mod3, mod9 = Mat2.identity(Z3), Mat2.identity(Z9)
    assert mod3 != mod9 and not mod3 == mod9 and hash(mod3) != hash(mod9)
    assert len({mod3, mod9}) == 2 and {mod3: 3, mod9: 9}[mod3] == 3
    # the order stays on the entries alone
    assert not mod3 < mod9 and not mod9 < mod3 and Mat2(0, 1, 1, 0, Z9) < mod3
    assert mod3 <= mod9 and mod3 >= mod9


def _digest(groups):
    """sha256 over each group's element entries and generating set, in order."""
    entries = attrgetter("a", "b", "c", "d")
    h = hashlib.sha256()
    for grp in groups:
        row = [list(map(entries, grp.elements)), list(map(entries, grp.generating_set))]
        h.update(repr(row).encode())
    return h.hexdigest()


SYLOW3_GL2_Z9 = [Mat2(1, 1, 0, 1, Z9), Mat2(1, 0, 3, 1, Z9), Mat2.diagonal(4, 1, Z9), Mat2.diagonal(1, 4, Z9)]


@pytest.mark.parametrize(
    "make, count, digest",
    [
        (lambda: full_gl2(Z4), 234, "8d422f762e1b7f319e6d82c76dde850f4d25cfc92f51a73b4154917856d67542"),
        (lambda: close_group(SYLOW3_GL2_Z9, Z9), 342, "5d92207fb574118e465c20449e331fab271a7c1fd0c26993138a5f692d5b2820"),
    ],
    ids=["gl2-z4", "sylow3-gl2-z9"],
)
def test_subgroups_elements_generators_and_tables_pinned(make, count, digest):
    subs = enumerate_subgroups(make())
    assert len(subs) == count
    assert _digest(subs) == digest


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
    assert reduce_mod(ex.group, 2) is ex.group


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


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_enumerate_subgroups_matches_brute_on_small_groups(data):
    # random small subgroups mod 3, 4 and 9, order <= 8, checked against subsets
    ctx = data.draw(st.sampled_from([Z3, Z4, Z9]))
    gens = data.draw(st.lists(st.sampled_from(gl2_elements(ctx)), min_size=1, max_size=2))
    try:
        grp = close_group(gens, ctx, cap=9)
    except CapExceeded:
        return
    if len(grp) > 8:
        return
    subs = enumerate_subgroups(grp)
    assert {h.elements for h in subs} == brute_subgroup_sets(grp)


@pytest.mark.parametrize(
    "group, count",
    [(full_gl2(Z3), 55), (full_diagonal_group(Z8), 67), (full_diagonal_group(Z9), 30)],
    ids=["gl2-f3", "diagonal-mod-8", "diagonal-mod-9"],
)
def test_enumerate_subgroups_matches_pairwise_union(group, count):
    subs = enumerate_subgroups(group)
    assert [h.elements for h in subs] == pairwise_union_subgroups(group)
    assert len(subs) == count


def test_enumerate_subgroups_sylow_three_of_gl2_z9():
    gens = [Mat2(1, 1, 0, 1, Z9), Mat2(1, 0, 3, 1, Z9), Mat2.diagonal(4, 1, Z9), Mat2.diagonal(1, 4, Z9)]
    sylow = close_group(gens, Z9)
    assert len(sylow) == 243
    subs = enumerate_subgroups(sylow)
    assert len(subs) == 342
    assert subs[0].elements == (Mat2.identity(Z9),) and subs[-1] == sylow


def test_enumerate_subgroups_rejects_non_solvable_group():
    with pytest.raises(ValueError, match="solvable"):
        enumerate_subgroups(full_gl2(ModulusContext(5, 1)))


def test_derived_series_rejects_non_solvable_groups_before_the_walk(monkeypatch):
    # the derived series of GL2(F_5) stops at SL2(F_5), that of SL2(F_7) at
    # once; the cyclic extension walk, whose closures go through
    # close_group, never starts
    Z5, Z7 = ModulusContext(5, 1), ModulusContext(7, 1)
    gl2_f5 = full_gl2(Z5)
    sl2_f7 = close_group([Mat2(1, 1, 0, 1, Z7), Mat2(1, 0, 1, 1, Z7)], Z7)
    assert len(sl2_f7) == 336

    def no_walk(*args, **kwargs):
        raise AssertionError("the extension walk started")

    monkeypatch.setattr(matgrp, "close_group", no_walk)
    for group in (gl2_f5, sl2_f7):
        assert not matgrp._is_solvable(group)
        with pytest.raises(ValueError, match="subgroup enumeration needs a solvable group"):
            enumerate_subgroups(group)
    # solvable groups pass: GL2(F_3), GL2(Z/4), GL2(Z/9) and the Borel of GL2(F_5)
    for group in (full_gl2(Z3), full_gl2(Z4), full_gl2(Z9), MatGroup(tuple(g for g in gl2_f5 if g.c == 0), Z5)):
        assert matgrp._is_solvable(group)


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


def is_upper_group(grp):
    return all(g.is_upper() for g in grp)


def test_triangularizing_conjugator_upper_cases():
    sigma = close_group([Mat2(1, 1, 0, 1, Z3)], Z3)
    assert find_triangularizing_conjugator(sigma) == Mat2.identity(Z3)
    diag = close_group([Mat2(2, 0, 0, 1, Z3), Mat2(1, 0, 0, 2, Z3)], Z3)
    assert find_triangularizing_conjugator(diag) == Mat2.identity(Z3)


def test_triangularizing_conjugator_lower_case():
    # the first fixed line is that of (0, 1), so the swap makes it upper
    lower = close_group([Mat2(1, 0, 1, 1, Z3), Mat2(2, 0, 0, 1, Z3)], Z3)
    t = find_triangularizing_conjugator(lower)
    assert t == Mat2(0, 1, 1, 0, Z3) and is_upper_group(conjugate(lower, t))


def hidden_upper_group(ctx):
    """A conjugate of an upper-triangular group that is neither upper nor lower."""
    base = close_group([Mat2(1, 1, 0, 1, ctx), Mat2(2, 0, 0, 1, ctx)], ctx)
    hidden = conjugate(base, Mat2(1, 0, 1, 1, ctx))
    assert not is_upper_group(hidden) and not all(g.is_lower() for g in hidden)
    return hidden


def test_triangularizing_conjugator_finds_hidden_conjugate():
    hidden = hidden_upper_group(Z9)
    assert is_upper_group(conjugate(hidden, find_triangularizing_conjugator(hidden)))


def test_triangularizing_conjugator_at_z27():
    # the 36 lines of (Z/27)^2 lie within the line budget
    hidden = hidden_upper_group(ModulusContext(3, 3))
    assert is_upper_group(conjugate(hidden, find_triangularizing_conjugator(hidden)))


def test_stable_lines_budget():
    # F_p^2 has p + 1 free lines: the largest prime within the budget is
    # scanned, and the smallest beyond it is refused before its scan starts
    within = next(p for p in range(matgrp.LINE_BUDGET - 1, 1, -1) if _is_prime(p))
    beyond = next(p for p in itertools.count(matgrp.LINE_BUDGET) if _is_prime(p))
    assert len(matgrp.stable_lines(close_group([], ModulusContext(within, 1)), 1)) == within + 1
    with pytest.raises(BudgetExceeded, match=f"the {beyond + 1} free lines"):
        matgrp.stable_lines(close_group([], ModulusContext(beyond, 1)), 1)


def test_stable_lines_budget_counts_every_level(monkeypatch):
    # (Z/9)^2 has 3 * 4 = 12 free lines and F_3^2 has 4
    trivial = close_group([], Z9)
    monkeypatch.setattr(matgrp, "LINE_BUDGET", 12)
    assert len(matgrp.stable_lines(trivial, 2)) == 12
    monkeypatch.setattr(matgrp, "LINE_BUDGET", 11)
    with pytest.raises(BudgetExceeded, match="the 12 free lines"):
        matgrp.stable_lines(trivial, 2)
    assert matgrp.stable_lines(trivial, 1) == [(1, 0), (1, 1), (1, 2), (0, 1)]
    for k in (0, 3):
        with pytest.raises(ValueError):
            matgrp.stable_lines(trivial, k)


def test_stable_lines_lifted_scan_matches_the_full_scan():
    # the level-by-level scan against a scan of every free line of each
    # level, on all subgroups of GL2(Z/4) and of the Sylow 3-subgroup of GL2(Z/9)
    def full_scan(group, k):
        N = group.ctx.p**k
        reps = matgrp._projective_line_reps(group.ctx.p, N)
        return [w for w in reps if all(matgrp._fixes_line(g, w, N) for g in group.generating_set)]

    gl2_z4 = close_group([Mat2(1, 1, 0, 1, Z4), Mat2(1, 0, 1, 1, Z4), Mat2(3, 0, 0, 1, Z4)], Z4)
    sylow3 = close_group(
        [Mat2(1, 1, 0, 1, Z9), Mat2(1, 0, 3, 1, Z9), Mat2.diagonal(4, 1, Z9), Mat2.diagonal(1, 4, Z9)], Z9
    )
    counts = []
    for ambient in (gl2_z4, sylow3):
        subgroups = enumerate_subgroups(ambient)
        counts.append(len(subgroups))
        for grp in subgroups:
            for k in (1, 2):
                assert matgrp.stable_lines(grp, k) == full_scan(grp, k), (grp.to_spec_dict(), k)
    assert counts == [234, 342]


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
        assert got is None or is_upper_group(conjugate(grp, got))


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------


def test_mul_rejects_mixed_moduli():
    with pytest.raises(ValueError, match="mixed moduli"):
        Mat2(1, 1, 0, 1, Z3).mul(Mat2(1, 1, 0, 1, Z9))


def test_close_group_rejects_a_generator_of_another_modulus():
    with pytest.raises(ValueError, match="generator modulus mismatch"):
        close_group([Mat2(1, 1, 0, 1, Z9), Mat2(1, 1, 0, 1, Z3)], Z9)


def test_triple_of_rejects_a_non_member():
    ex = make_example_group(3)
    with pytest.raises(KeyError):
        ex.triple_of(Mat2(1, 1, 0, 1, ex.group.ctx))


def test_smallest_nonsquare_rejects_a_non_prime():
    # 9 is not prime: no m below it has m^4 = -1 mod 9
    with pytest.raises(ValueError, match="is p prime"):
        smallest_nonsquare(9)


@pytest.mark.parametrize("level", [0, 3])
def test_reduce_mod_rejects_a_level_out_of_range(level):
    with pytest.raises(ValueError, match="out of range 1..2"):
        reduce_mod(make_example_group(3).group, level)
