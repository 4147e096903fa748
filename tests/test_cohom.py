"""Tests for the cohomology core.

The anti-regression oracle is the brute-force one in cohomlab.experiments:
it enumerates value tables literally, every assignment of generator values
propagated through the group, with the cocycle relation then checked over
all pairs, and it forms the action from the matrix entries itself, never
through ModuleAction. Expected cardinalities below were frozen from those
runs.
"""

import copy
import functools
import itertools
import pickle
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from cohomlab.cohom import (
    Cocycle,
    CohomologyReport,
    ModuleAction,
    action_image,
    coboundary_of,
    coboundary_space,
    cocycle_space,
    cohomology_engine,
    h1,
    h1_loc,
    h1_loc_via_restrictions,
    h1loc_witnesses,
    inflation,
    is_coboundary,
    is_cocycle,
    is_locally_trivial,
    locally_trivial_subspace,
    normalize_locally_trivial_cocycle,
    pointwise_stabilizer,
    restriction,
)
from cohomlab.cohom import _slot_width, _tables
from cohomlab.errors import (
    CapExceeded,
    HypothesisViolated,
    NotASubgroup,
    StabilizerMismatch,
)
from cohomlab.experiments import (
    _products,
    _relation_holds,
    brute_coboundary_tables,
    brute_cocycle_tables,
    brute_locally_trivial_tables,
    brute_quotient_invariants,
    full_diagonal_group,
    sample_level2_groups,
    verify_oracle_equivalence,
)
from cohomlab.matgrp import (
    Mat2,
    MatGroup,
    close_group,
    conjugate,
    cyclic_subgroups,
    enumerate_subgroups,
    make_example_group,
    maximal_cyclic_subgroups,
    special_subgroups,
)
from cohomlab import cohom, matgrp, zmod
from cohomlab.zmod import ModulusContext, Submodule, quotient_invariants

Z2 = ModulusContext(2, 1)
Z3 = ModulusContext(3, 1)
Z9 = ModulusContext(3, 2)
Z25 = ModulusContext(5, 2)


def submodule_card(sub):
    return sub.cardinality()


def example_cocycle(ex):
    """The explicit nontrivial locally trivial cocycle on the p=odd family:
    value (0, (-1)^a * p * c) at the element with parameters (a, b, c)."""
    grp = ex.group
    p = grp.ctx.p
    n = grp.ctx.modulus
    rev = {g: t for t, g in ex.triples.items()}
    vals = []
    for g in grp.elements:
        t = rev[g]
        vals.append((0, ((-1) ** t.a * p * t.c) % n))
    return Cocycle(grp, ModuleAction.standard(grp.ctx), tuple(vals))


SIGMA3 = close_group([Mat2(1, 1, 0, 1, Z3)], Z3)
TRIVIAL9 = MatGroup((Mat2.identity(Z9),), Z9)


# ---------------------------------------------------------------------------
# spaces on frozen examples
# ---------------------------------------------------------------------------


def test_trivial_group_spaces():
    engine = cohomology_engine(TRIVIAL9)
    assert cocycle_space(engine).is_zero()
    assert coboundary_space(TRIVIAL9).is_zero()
    assert h1(engine) == []
    assert locally_trivial_subspace(engine).is_zero()
    assert h1_loc_via_restrictions(engine) == []


def test_sigma_mod3_cardinalities():
    engine = cohomology_engine(SIGMA3)
    z1 = cocycle_space(engine)
    b1 = coboundary_space(SIGMA3)
    loc = locally_trivial_subspace(engine)
    assert z1.cardinality() == 9
    assert b1.cardinality() == 3
    assert loc.cardinality() == 3
    assert h1(engine) == [3]
    assert b1.le(loc) and loc.le(z1)
    assert loc == b1


def test_sigma_mod3_matches_brute():
    action = ModuleAction.standard(Z3)
    tables = brute_cocycle_tables(SIGMA3, action)
    assert len(tables) == 9
    assert brute_coboundary_tables(SIGMA3, action) <= tables
    assert len(brute_coboundary_tables(SIGMA3, action)) == 3
    got = {tuple(v[i * 2 : i * 2 + 2] for i in range(len(SIGMA3))) for v in cocycle_space(cohomology_engine(SIGMA3)).vectors()}
    assert got == tables


def test_gl2f2_all_subgroups_match_brute():
    swap = Mat2(0, 1, 1, 0, Z2)
    sig = Mat2(1, 1, 0, 1, Z2)
    g = close_group([swap, sig], Z2)
    action = ModuleAction.standard(Z2)
    for sub in enumerate_subgroups(g):
        tables = brute_cocycle_tables(sub, action)
        cobs = brute_coboundary_tables(sub, action)
        loc_tables = brute_locally_trivial_tables(sub, action, tables)
        engine = cohomology_engine(sub)
        assert cocycle_space(engine).cardinality() == len(tables)
        assert coboundary_space(sub).cardinality() == len(cobs)
        assert locally_trivial_subspace(engine).cardinality() == len(loc_tables)


def draw_small_group(data):
    """A random group of order <= 20 with at most two generators, or None."""
    ctx = data.draw(st.sampled_from([Z3, Z9, ModulusContext(2, 2), ModulusContext(5, 1)]))
    n = ctx.modulus
    mats = []
    for _ in range(2):
        m = Mat2(*(data.draw(st.integers(0, n - 1)) for _ in range(4)), ctx)
        if m.is_invertible():
            mats.append(m)
    try:
        grp = close_group(mats, ctx, cap=21)
    except CapExceeded:
        return None
    if len(grp) > 20 or len(grp.generating_set) > 2:
        return None
    return grp


def assert_small_group_matches_brute(grp):
    ctx = grp.ctx
    action = ModuleAction.standard(ctx)
    tables = brute_cocycle_tables(grp, action)
    cobs = brute_coboundary_tables(grp, action)
    loc_tables = brute_locally_trivial_tables(grp, action, tables)
    engine = cohomology_engine(grp, action)
    z1 = cocycle_space(engine)
    b1 = coboundary_space(grp, action)
    loc = locally_trivial_subspace(engine)
    assert z1.cardinality() == len(tables)
    assert b1.cardinality() == len(cobs)
    assert loc.cardinality() == len(loc_tables)
    assert b1.le(loc) and loc.le(z1)
    rep = h1_loc(engine)
    assert list(rep.h1_invariants) == brute_quotient_invariants(tables, cobs, ctx)
    assert list(rep.h1loc_invariants) == brute_quotient_invariants(loc_tables, cobs, ctx)
    assert h1_loc_via_restrictions(engine) == list(rep.h1loc_invariants)
    assert h1(engine) == list(rep.h1_invariants)
    # representative independence: locally trivial + coboundary stays locally trivial
    if loc.generators and b1.generators:
        zc = Cocycle.from_flat(grp, action, loc.generators[0])
        bc = Cocycle.from_flat(grp, action, b1.generators[0])
        assert is_locally_trivial(zc.add(bc))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_small_groups_match_brute(data):
    grp = draw_small_group(data)
    if grp is not None:
        assert_small_group_matches_brute(grp)


# ---------------------------------------------------------------------------
# the early stop of the walk once the constraints pin Z^1 to B^1
# ---------------------------------------------------------------------------


def stop_early_everywhere(mp):
    """Check after 1, 2, 4, ... nodes up to |G|, so the stop fires on small groups."""
    mp.setattr(cohom, "_FIRST_CHECK", 1)
    mp.setattr(cohom, "_CHECK_SHARE", 1)


def never_stop_early(mp):
    mp.setattr(cohom, "_FIRST_CHECK", 1 << 40)


def record_stops(mp):
    """Wrap _propagate; the returned list gets (|G|, nodes walked) per engine."""
    walks, propagate = [], cohom._propagate

    def recorded(group, action, b1):
        coeff, z1 = propagate(group, action, b1)
        walks.append((len(group), coeff.done))
        return coeff, z1

    mp.setattr(cohom, "_propagate", recorded)
    return walks


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_early_stop_random_small_groups_match_brute(data):
    grp = draw_small_group(data)
    if grp is not None:
        with pytest.MonkeyPatch.context() as mp:
            stop_early_everywhere(mp)
            assert_small_group_matches_brute(grp)


def test_early_stop_oracle_agrees(monkeypatch):
    stop_early_everywhere(monkeypatch)
    walks = record_stops(monkeypatch)
    verdict = verify_oracle_equivalence()
    assert verdict.passed, [c for c in verdict.checks if not c.ok]
    assert any(done < order for order, done in walks)


def test_oracle_catches_a_wrong_module(monkeypatch):
    # the contragredient (g^-1)^T is an action too, so the engine stays
    # consistent under it; only an oracle that forms g.v from the entries
    # itself can tell that the engine computes the wrong module
    def contragredient(self, entries):
        a, b, c, d = entries
        N = self.ctx.modulus
        u = zmod.unit_inverse((a * d - b * c) % N, self.ctx)
        return ((d * u % N, -c * u % N), (-b * u % N, a * u % N))

    monkeypatch.setattr(ModuleAction, "_act_entries", contragredient)
    verdict = verify_oracle_equivalence()
    assert not verdict.passed
    failed = {c.description for c in verdict.checks if not c.ok}
    assert "cocycle tables agree on every group" in failed


def large_h1_zero_groups():
    gens = [Mat2(1, 1, 0, 1, Z9), Mat2(1, 0, 1, 1, Z9), Mat2(2, 0, 0, 1, Z9)]
    order5000 = [Mat2(6, 20, 15, 16, Z25), Mat2(0, 19, 13, 0, Z25), Mat2(16, 5, 20, 21, Z25)]
    return close_group(gens, Z9), close_group(order5000, Z25)


def test_early_stop_matches_the_full_walk(monkeypatch):
    # GL2(Z/9), the order-5000 group and the candidates of the main-theorem search at p = 3
    example = make_example_group(3).group
    groups = [*large_h1_zero_groups(), example]
    groups += [g for g in sample_level2_groups(3, 0, 80) if g != example]
    assert len(groups) == 82
    engines = [cohomology_engine(g) for g in groups]
    stopped = [eng.coeff.done < len(g) for g, eng in zip(groups, engines)]
    assert stopped[:2] == [True, True] and sum(stopped) > 2
    never_stop_early(monkeypatch)
    for g, eng in zip(groups, engines):
        full = cohomology_engine(g)
        assert full.coeff.done == len(g)
        assert (eng.z1, eng.b1, eng.rows) == (full.z1, full.b1, full.rows)


def test_early_stop_spaces_and_lazy_completion(monkeypatch):
    gl2 = large_h1_zero_groups()[0]
    eng = cohomology_engine(gl2)
    assert eng.z1 == eng.b1 and eng.coeff.done < len(gl2)
    # the restriction path answers from z1 == b1 and leaves the walk unfinished
    assert h1_loc_via_restrictions(eng) == [] and eng.coeff.done < len(gl2)
    b1 = coboundary_space(gl2)
    # the value tables read coeff, which finishes the walk
    assert cocycle_space(eng) == locally_trivial_subspace(eng) == b1 and b1.cardinality() == 81
    assert len(eng.coeff.packed) == eng.coeff.done == len(gl2)
    never_stop_early(monkeypatch)
    assert eng.coeff.packed == cohomology_engine(gl2).coeff.packed


def test_walk_multiplies_only_the_nodes_it_expands(monkeypatch):
    # each expanded node is multiplied by every generator, once, and no other
    # code is: GL2(Z/9) stops after 128 of its 3888 nodes, the order-5000
    # group after 16, and reading coeff.packed finishes the walk
    counted, call = [], matgrp._Right.__call__
    monkeypatch.setattr(matgrp._Right, "__call__", lambda self, block: counted.append(len(block)) or call(self, block))
    for grp, stop in zip(large_h1_zero_groups(), (128, 16)):
        k = len(grp.generating_set)
        counted.clear()
        eng = cohomology_engine(grp)
        assert eng.z1 == eng.b1 and eng.coeff.done == stop and sum(counted) == stop * k
        assert len(eng.coeff.packed) == eng.coeff.done == len(grp) and sum(counted) == len(grp) * k


def test_z1_eliminations_per_engine(monkeypatch):
    # every checkpoint of the walk is one left-kernel elimination of the
    # constraint columns, and the last, after the whole walk, gives Z^1:
    # GL2(Z/9) checks at 16, 32, 64 and 128 nodes and stops there, the
    # order-5000 group stops at its first check, and the p = 11 and 13
    # family groups (orders 242 and 338, H^1 != 0) check once and twice
    # before the walk runs to the end. While an engine is built, the other
    # caller of cohom._left_kernel is _locally_trivial, after the walk and
    # only when Z^1 != B^1: one elimination of the r rows of g - I per
    # class representative.
    calls, left_kernel = [], cohom._left_kernel
    monkeypatch.setattr(cohom, "_left_kernel", lambda *args: calls.append(len(args[0])) or left_kernel(*args))
    groups = [*large_h1_zero_groups(), make_example_group(11).group, make_example_group(13).group]
    for grp, eliminations, done in zip(groups, (4, 1, 2, 3), (128, 16, 242, 338)):
        calls.clear()
        eng = cohomology_engine(grp)
        assert eng.coeff.done == done
        assert (eng.z1 == eng.b1) == (done < len(grp))
        # one elimination of the rk constraint columns each
        assert calls[:eliminations] == [eng.z1.ambient_rank] * eliminations
        local = [] if eng.z1 == eng.b1 else [eng.action.rank] * len(grp._class_representatives)
        assert calls[eliminations:] == local


def literal_restriction_quotient(grp, action):
    """L/B^1 by definition: cocycle tables whose restriction to every <g> is a coboundary."""
    cyclics = set()
    for g in grp.elements:
        powers = [g]
        while powers[-1] != grp.identity:
            powers.append(powers[-1] * g)
        cyclics.add(MatGroup(tuple(powers), grp.ctx))
    kept = {
        t
        for t in brute_cocycle_tables(grp, action)
        if all(is_coboundary(restriction(Cocycle(grp, action, t), c)) is not None for c in cyclics)
    }
    return brute_quotient_invariants(kept, brute_coboundary_tables(grp, action), action.ctx)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_restriction_path_matches_literal_oracle(data):
    grp = draw_small_group(data)
    if grp is None:
        return
    action = ModuleAction.standard(grp.ctx)
    assert h1_loc_via_restrictions(cohomology_engine(grp, action)) == literal_restriction_quotient(grp, action)


def test_restriction_path_matches_literal_oracle_on_a_line():
    # diag(1, 2) acts trivially on the first line and diag(4, 1) fixes 3 there, so H^1 is nonzero
    diag = close_group([Mat2.diagonal(4, 1, Z9), Mat2.diagonal(1, 2, Z9)], Z9)
    line = ModuleAction.line_of(Z9, 0)
    engine = cohomology_engine(diag, line)
    assert h1(engine) != []
    assert h1_loc_via_restrictions(engine) == literal_restriction_quotient(diag, line) == []


def test_shared_engine_gives_the_same_answers():
    grp = make_example_group(3).group
    engine = cohomology_engine(grp)
    assert h1_loc(engine) == h1_loc(cohomology_engine(grp))
    assert h1_loc_via_restrictions(engine) == h1_loc_via_restrictions(cohomology_engine(grp)) == [3]


@functools.cache
def small_census() -> tuple:
    """Every subgroup of GL2(Z/4) and of the Sylow 3-subgroup of GL2(Z/9)."""
    Z4 = ModulusContext(2, 2)
    gl2_z4 = close_group([Mat2(1, 1, 0, 1, Z4), Mat2(0, 1, 1, 0, Z4), Mat2(3, 0, 0, 1, Z4)], Z4)
    sylow = close_group(
        [Mat2(1, 1, 0, 1, Z9), Mat2(1, 0, 3, 1, Z9), Mat2.diagonal(4, 1, Z9), Mat2.diagonal(1, 4, Z9)], Z9
    )
    subgroups = tuple(enumerate_subgroups(gl2_z4) + enumerate_subgroups(sylow))
    assert len(subgroups) == 234 + 342
    return subgroups


def test_engine_b1_tables_are_the_coboundary_space():
    # h1_loc reduces its witnesses modulo the table form of the engine's B^1,
    # spanned from the generator values (s - I)e_j; coboundary_space spans
    # the tables of every g - I directly. Both are canonical Howell spans.
    for g in small_census():
        eng = cohomology_engine(g)
        assert _tables(eng, eng.b1) == coboundary_space(g)


def test_census_quotient_invariants_match_the_smith_route():
    # h1_loc reads every invariant through quotient_invariants on M^k; the
    # Smith route of quotient_decomposition must give the same factors
    nonzero = 0
    for g in small_census():
        eng = cohomology_engine(g)
        zero = Submodule.zero(eng.z1.ambient_rank, eng.action.ctx)
        nonzero += eng.loc != eng.b1
        for s, t in ((eng.z1, zero), (eng.b1, zero), (eng.z1, eng.b1), (eng.loc, eng.b1)):
            assert quotient_invariants(s, t) == zmod.quotient_decomposition(s, t)[0], g.to_spec_dict()
    assert nonzero == 57 + 109


def counting(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that appends 1 to the returned list per call."""
    calls, inner = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_witnesses_are_built_only_on_request(monkeypatch):
    grp = make_example_group(3).group
    checks = counting(monkeypatch, cohom, "is_locally_trivial")
    decompositions = counting(monkeypatch, cohom, "quotient_decomposition")
    eng = cohomology_engine(grp)
    assert h1_loc(eng).h1loc_invariants == (3,)
    assert (len(checks), len(decompositions)) == (0, 0)
    assert len(h1loc_witnesses(eng)) == 1 and (len(checks), len(decompositions)) == (1, 1)
    # a zero L/B^1 has no witnesses to build
    assert h1loc_witnesses(cohomology_engine(SIGMA3)) == () and (len(checks), len(decompositions)) == (1, 1)


def test_report_holds_only_what_its_witnesses_need():
    grp = make_example_group(3).group
    eng = cohomology_engine(grp)
    rep = h1_loc(eng)
    # cutting out L read the coefficient matrices, which drops the walk's state
    assert len(eng.coeff.packed) == eng.coeff.done == len(grp)
    assert not any(hasattr(eng.coeff, name) for name in ("_coeff", "_order", "_times"))
    # a report is its four invariant lists and nothing else
    assert CohomologyReport._fields == ("z1_invariants", "b1_invariants", "h1_invariants", "h1loc_invariants")
    assert rep.to_json_dict() == {"z1": [3, 3, 9], "b1": [3, 9], "h1": [3], "h1loc": [3]}
    assert len(h1loc_witnesses(eng)) == 1


def test_records_keep_their_value_semantics():
    ctx = ModulusContext(3, 2)
    assert ctx == ModulusContext(3, 2) and hash(ctx) == hash(ModulusContext(3, 2))
    assert ctx.modulus == 9 and repr(ctx) == "ModulusContext(p=3, n=2)"
    grp = close_group([Mat2.diagonal(2, 1, Z3)], Z3)
    action = ModuleAction.standard(Z3)
    cocycle = Cocycle(grp, action, ((0, 0), (4, -1)))
    assert cocycle.values == ((0, 0), (1, 2)) and cocycle == Cocycle(grp, action, ((3, 0), (1, 2)))
    for record in (ctx, Mat2(1, 2, 0, 4, Z9), action, cocycle):
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    report = h1_loc(cohomology_engine(grp))
    for record, name in [
        (ctx, "p"),
        (action, "rank"),
        (cocycle, "values"),
        (Submodule.zero(2, Z3), "generators"),
        (report, "h1_invariants"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_reports_compare_and_serialize_without_value_tables(monkeypatch):
    # == and to_json_dict read the four invariant lists alone: no value
    # table and no Smith reduction, even where L/B^1 is nonzero
    grp = make_example_group(3).group
    conj = conjugate(grp, Mat2(0, 1, 1, 0, Z9))
    assert conj != grp

    def refuse(*args):
        raise AssertionError("a report read value tables")

    monkeypatch.setattr(cohom, "quotient_decomposition", refuse)
    monkeypatch.setattr(cohom, "_tables", refuse)
    rep, conj_rep = h1_loc(cohomology_engine(grp)), h1_loc(cohomology_engine(conj))
    assert rep == conj_rep and rep.h1loc_invariants == (3,)
    assert rep.to_json_dict() == conj_rep.to_json_dict() == {"z1": [3, 3, 9], "b1": [3, 9], "h1": [3], "h1loc": [3]}


def test_witnesses_check_the_table_invariants(monkeypatch):
    decompose = zmod.quotient_decomposition
    monkeypatch.setattr(cohom, "quotient_decomposition", lambda s, t: ([9], decompose(s, t)[1]))
    eng = cohomology_engine(make_example_group(3).group)
    assert h1_loc(eng).h1loc_invariants == (3,)
    with pytest.raises(AssertionError, match=r"invariants \[9\], generator coordinates \[3\]"):
        h1loc_witnesses(eng)


@pytest.mark.parametrize(
    "module, match",
    [(ModulusContext(5, 1), "different primes"), (ModulusContext(3, 3), "level exceeds")],
)
def test_action_must_fit_the_group(module, match):
    # the group lives over Z/9: a module over another prime, or at a finer
    # level than the group's, is refused where the action meets the group
    grp = make_example_group(3).group
    action = ModuleAction.standard(module)
    with pytest.raises(ValueError, match=match):
        cohomology_engine(grp, action)
    with pytest.raises(ValueError, match=match):
        h1_loc(cohomology_engine(grp, action))
    with pytest.raises(ValueError, match=match):
        is_cocycle(Cocycle(grp, action, ((0, 0),) * len(grp)))
    # the brute-force oracles refuse it too
    with pytest.raises(ValueError, match=match):
        brute_cocycle_tables(grp, action)
    with pytest.raises(ValueError, match=match):
        brute_coboundary_tables(grp, action)


def test_from_flat_needs_rank_times_order_values():
    grp = make_example_group(3).group
    action = ModuleAction.standard(Z9)
    flat = tuple(i % 9 for i in range(2 * len(grp)))
    z = Cocycle.from_flat(grp, action, flat)
    assert z.flatten() == flat and z.value_of(grp.elements[1]) == (2, 3)
    for bad in (flat + (0, 0, 0), flat[:-1], flat + (0, 0), ()):
        with pytest.raises(ValueError, match="flat values"):
            Cocycle.from_flat(grp, action, bad)


def test_restriction_path_eliminates_twice_per_conjugacy_class(monkeypatch):
    calls = []
    howell = zmod._howell

    def counted(*args, **kwargs):
        calls.append(1)
        return howell(*args, **kwargs)

    monkeypatch.setattr(zmod, "_howell", counted)
    sylow = close_group(
        [Mat2(1, 1, 0, 1, Z9), Mat2(1, 0, 3, 1, Z9), Mat2.diagonal(4, 1, Z9), Mat2.diagonal(1, 4, Z9)], Z9
    )
    for grp, want in ((make_example_group(5).group, 11), (sylow, 51)):
        engine = cohomology_engine(grp)
        assert engine.z1 != engine.b1
        maximal = maximal_cyclic_subgroups(grp)
        assert len(maximal) < len(cyclic_subgroups(grp))
        reps = grp._class_representatives
        assert len(reps) < len(maximal)
        calls.clear()
        h1_loc_via_restrictions(engine)
        # two per class representative, then the cut-out (two) and the quotient (one)
        assert len(calls) == 2 * len(reps) + 3 == want
    # H^1(GL2(Z/9)) = 0, so Z^1 = B^1 = L and no elimination is needed
    gl2 = large_h1_zero_groups()[0]
    engine = cohomology_engine(gl2)
    calls.clear()
    assert h1_loc_via_restrictions(engine) == [] and not calls


def test_engine_forms_no_matrix_products(monkeypatch):
    def spaces(grp):
        eng = cohomology_engine(grp)
        zero = Submodule.zero(eng.z1.ambient_rank, Z9)
        return quotient_invariants(eng.z1, zero), quotient_invariants(eng.z1, eng.b1)

    gens = [Mat2(1, 1, 0, 1, Z9), Mat2(1, 0, 1, 1, Z9), Mat2(2, 0, 0, 1, Z9)]
    gl2 = close_group(gens, Z9)
    borel = close_group([gens[0], gens[2], Mat2(1, 0, 0, 2, Z9)], Z9)
    conj = conjugate(borel, Mat2(1, 2, 4, 1, Z9))
    want = [spaces(gl2), spaces(borel)]

    def no_products(self, other):
        raise AssertionError("Mat2.mul called")

    monkeypatch.setattr(Mat2, "mul", no_products)
    with pytest.raises(AssertionError, match="Mat2.mul called"):
        gens[0] * gens[1]
    got = [spaces(gl2), spaces(conj)]
    assert got == want
    assert want[0] == ([9, 9], [])


def tuple_row_propagate(group, action):
    """Reference propagation: the depth-first walk on tuple rows that the
    packed breadth-first walk replaced. Returns coeff[h] as r x rk tuples
    and the set of distinct constraint rows."""
    gens = group.generating_set
    k = len(gens)
    r = action.rank
    N = action.ctx.modulus
    elements = group.elements
    start = group.position(group.identity)
    coeff = [None] * len(elements)
    coeff[start] = ((0,) * (r * k),) * r
    frontier = [start]
    rows = set()
    while frontier:
        h = frontier.pop()
        base = coeff[h]
        act = action.act_rows(elements[h])
        for i in range(k):
            cand = []
            for row, arow in zip(base, act):
                row = list(row)
                for j, a in enumerate(arow, i * r):
                    row[j] = (row[j] + a) % N
                cand.append(tuple(row))
            g = group.position(elements[h] * gens[i])
            have = coeff[g]
            if have is None:
                coeff[g] = tuple(cand)
                frontier.append(g)
            else:
                for x, y in zip(cand, have):
                    if x != y:
                        rows.add(tuple((a - b) % N for a, b in zip(x, y)))
    assert None not in coeff
    return coeff, rows


def assert_engine_matches_reference(group, action):
    """Z1, the annihilator rows and the value tables of Z1's generators agree
    with the tuple-row reference; coeff itself depends on the walk's tree."""
    eng = cohomology_engine(group, action)
    coeff, rows = tuple_row_propagate(group, action)
    dim = action.rank * len(group.generating_set)
    z1 = zmod.kernel(list(rows), dim, action.ctx)
    assert eng.z1 == z1
    assert eng.rows == zmod.annihilator(z1).generators
    assert len(eng.coeff.packed) == len(group)
    matrices = eng.coeff.at(range(len(group)))
    assert all(len(m) == action.rank and all(len(row) == dim for row in m) for m in matrices)
    assert_tables_match_reference(group, action, eng, coeff)


def per_entry_tables(group, action, coeff, sub):
    """Reference: the value tables of sub with every entry a separate sum,
    coeff a list of r x rk tuple matrices in canonical element order."""
    N = action.ctx.modulus
    crows = [crow for m in coeff for crow in m]
    tables = [[sum(map(mul, crow, z)) % N for crow in crows] for z in sub.generators]
    return Submodule.span(tables, action.rank * len(group), action.ctx)


def assert_tables_match_reference(group, action, eng, coeff):
    """The packed tables of Z1, B1 and L equal the per-entry reference read
    from coeff, whose matrices may come from another walk: the value of a
    cocycle at an element does not depend on the walk."""
    for sub in (eng.z1, eng.b1, eng.loc):
        assert _tables(eng, sub) == per_entry_tables(group, action, coeff, sub)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_packed_propagation_matches_tuple_rows(data):
    grp = draw_small_group(data)
    if grp is None:
        return
    ctx = grp.ctx
    assert_engine_matches_reference(grp, ModuleAction.standard(ctx))
    for m in range(1, ctx.n):
        assert_engine_matches_reference(grp, ModuleAction(ModulusContext(ctx.p, m), 2))
    diag = special_subgroups(grp)[0]
    for coord in (0, 1):
        assert_engine_matches_reference(diag, ModuleAction.line_of(ctx, coord))


def test_packed_propagation_matches_tuple_rows_on_fixed_groups():
    gl2_f3 = close_group([Mat2(1, 1, 0, 1, Z3), Mat2(0, 1, 2, 0, Z3), Mat2(2, 0, 0, 1, Z3)], Z3)
    borel9 = close_group([Mat2(1, 1, 0, 1, Z9), Mat2(2, 0, 0, 1, Z9), Mat2(1, 0, 3, 1, Z9)], Z9)
    diag25 = close_group([Mat2.diagonal(2, 1, Z25), Mat2.diagonal(1, 6, Z25)], Z25)
    family = make_example_group(5).group
    for grp in (gl2_f3, borel9, family):
        assert_engine_matches_reference(grp, ModuleAction.standard(grp.ctx))
    for grp in (borel9, family):
        assert_engine_matches_reference(grp, ModuleAction(ModulusContext(grp.ctx.p, 1), 2))
    for coord in (0, 1):
        assert_engine_matches_reference(diag25, ModuleAction.line_of(Z25, coord))
        assert_engine_matches_reference(diag25, ModuleAction.line_of(ModulusContext(5, 1), coord))


@pytest.mark.parametrize(
    "p, n, width",
    [(61, 1, 8), (2, 6, 16), (2, 13, 16), (2, 14, 32), (2, 29, 32), (2, 30, 64), (65521, 2, 64), (2, 32, 64)],
)
def test_packed_propagation_on_both_sides_of_each_slot_width(p, n, width):
    ctx = ModulusContext(p, n)
    assert _slot_width(ctx.modulus) == width
    N = ctx.modulus
    # the signed permutation matrices, order 8, conjugated by a determinant-1
    # matrix to spread the entries over Z/N
    signed = close_group([Mat2(0, 1, 1, 0, ctx), Mat2.diagonal(N - 1, 1, ctx)], ctx)
    assert len(signed) == 8
    a, b = N // 3, 5 + N // 2
    spread = conjugate(signed, Mat2(1, a, b, 1 + a * b, ctx))
    for grp in (signed, spread):
        assert_engine_matches_reference(grp, ModuleAction.standard(ctx))
    assert h1(cohomology_engine(signed)) == ([] if p % 2 else h1(cohomology_engine(spread)))
    assert_engine_matches_reference(special_subgroups(signed)[0], ModuleAction.line_of(ctx, 1))


@pytest.mark.parametrize(
    "p, n, size", [(3, 1, 1), (3, 2, 2), (2, 13, 4), (2, 30, 8), (3, 20, 16), (65521, 2, 16), (7, 6, 16), (2, 32, 16)]
)
def test_packed_tables_at_each_layout_slot_width(p, n, size):
    ctx = ModulusContext(p, n)
    N = ctx.modulus
    signed = close_group([Mat2(0, 1, 1, 0, ctx), Mat2.diagonal(N - 1, 1, ctx)], ctx)
    a, b = N // 3, 5 + N // 2
    spread = conjugate(signed, Mat2(1, a, b, 1 + a * b, ctx))
    trivial = MatGroup((Mat2.identity(ctx),), ctx)
    for grp in (signed, spread, trivial):
        assert zmod._layout(N, 2 * len(grp))[1] == size
        eng = cohomology_engine(grp)
        matrices = eng.coeff.at(range(len(grp)))
        assert_tables_match_reference(grp, eng.action, eng, matrices)
        # tables are defined on all of M^k: a submodule with entries spread
        # over Z/N sums terms near N^2, past 64 bits in 128-bit slots
        rk = eng.z1.ambient_rank
        dense = Submodule.span([[1, *range(N - 1, N - rk, -1)][:rk]], rk, ctx)
        assert _tables(eng, dense) == per_entry_tables(grp, eng.action, matrices, dense)
        assert _tables(eng, eng.b1) == coboundary_space(grp)
    # the signed permutation group has Z^1 = (Z/N)^2, with one more Z/2 at p = 2
    for grp in (signed, spread):
        z1 = quotient_invariants(cocycle_space(cohomology_engine(grp)), Submodule.zero(2 * len(grp), ctx))
        assert z1 == ([2, N, N] if p == 2 else [N, N])


# ---------------------------------------------------------------------------
# the explicit counterexample cocycle
# ---------------------------------------------------------------------------


def test_example_cocycle_is_nontrivial_locally_trivial():
    ex = make_example_group(3)
    zc = example_cocycle(ex)
    assert is_cocycle(zc)
    assert is_locally_trivial(zc)
    assert is_coboundary(zc) is None
    # scaling by p kills it: the class has order exactly p
    assert zc.scale(3).is_zero()


def test_example_cocycle_in_computed_spaces():
    ex = make_example_group(3)
    zc = example_cocycle(ex)
    flat = zc.flatten()
    engine = cohomology_engine(ex.group)
    assert cocycle_space(engine).contains(flat)
    assert locally_trivial_subspace(engine).contains(flat)
    assert not coboundary_space(ex.group).contains(flat)


def test_is_cocycle_matches_all_pairs_relation():
    # is_cocycle checks generator pairs only; _relation_holds checks
    # every pair. They must agree on cocycles and on tables with one value
    # moved: the example cocycle at p = 3, and the cocycle space generators
    # of the least subgroup of each order of GL2(F_3), the trivial one too.
    gl2 = close_group([Mat2(1, 1, 0, 1, Z3), Mat2(2, 0, 0, 1, Z3), Mat2(0, 2, 1, 0, Z3)], Z3)
    firsts = {}
    for sub in enumerate_subgroups(gl2):
        firsts.setdefault(len(sub), sub)
    assert sorted(firsts) == [1, 2, 3, 4, 6, 8, 12, 16, 24, 48]
    cocycles = [example_cocycle(make_example_group(3))]
    action = ModuleAction.standard(Z3)
    for sub in firsts.values():
        flats = cocycle_space(cohomology_engine(sub, action)).generators or [(0, 0) * len(sub)]
        cocycles += [Cocycle.from_flat(sub, action, flat) for flat in flats]
    rejected = 0
    for z in cocycles:
        products = _products(z.group)
        assert is_cocycle(z) and _relation_holds(z.group, z.action, z.values, products)
        for i in (0, len(z.values) // 2, len(z.values) - 1):
            values = list(z.values)
            values[i] = (values[i][0] + 1, values[i][1])
            moved = Cocycle(z.group, z.action, tuple(values))
            literal = _relation_holds(z.group, z.action, moved.values, products)
            assert is_cocycle(moved) == literal
            rejected += not literal
    assert rejected >= 2 * len(cocycles)


def minus_identity(action, g):
    """Rows of g - I on the module, read from act_rows."""
    N = action.ctx.modulus
    return [[(e - (i == j)) % N for j, e in enumerate(row)] for i, row in enumerate(action.act_rows(g))]


def elementwise_is_locally_trivial(z):
    """Reference: every value Z_g tested on its own for membership in the
    image of g - I."""
    action = z.action
    return all(
        zmod.solve_linear(minus_identity(action, g), action.rank, v, action.ctx) is not None
        for g, v in zip(z.group.elements, z.values)
    )


def witness_check_cases():
    """(label, cocycle) pairs: the cocycle space generators of every subgroup
    of GL2(F_3), of the family at p = 3 and 5 with its witnesses and the
    explicit example cocycle, and of the diagonal group mod 9 on a line."""
    gl2 = close_group([Mat2(1, 1, 0, 1, Z3), Mat2(2, 0, 0, 1, Z3), Mat2(0, 2, 1, 0, Z3)], Z3)
    groups = [(f"gl2-f3-{i}", sub, ModuleAction.standard(Z3)) for i, sub in enumerate(enumerate_subgroups(gl2))]
    groups.append(("diag-z9-line", full_diagonal_group(Z9), ModuleAction.line_of(Z9, 1)))
    cases = []
    for p in (3, 5):
        ex = make_example_group(p)
        groups.append((f"family-p{p}", ex.group, ModuleAction.standard(ex.group.ctx)))
        cases.append((f"family-p{p}-example", example_cocycle(ex)))
        cases += [(f"family-p{p}-witness", w) for w in h1loc_witnesses(cohomology_engine(ex.group))]
    for label, grp, action in groups:
        cases += [(label, Cocycle.from_flat(grp, action, flat)) for flat in cocycle_space(cohomology_engine(grp, action)).generators]
    return cases


def full_system_is_coboundary(z):
    """Reference: one solve of (g - I)v = Z_g stacked over every element."""
    action = z.action
    rows = [row for g in z.group.elements for row in minus_identity(action, g)]
    return zmod.solve_linear(rows, action.rank, z.flatten(), action.ctx)


def is_coboundary_of(z, v):
    """Whether Z_g = g.v - v at every element, read through act_rows."""
    N = z.action.ctx.modulus
    return all(
        value == tuple(sum(map(mul, row, v)) % N for row in minus_identity(z.action, g))
        for g, value in zip(z.group.elements, z.values)
    )


def test_coboundary_check_matches_the_full_system():
    # the cocycle space generators of witness_check_cases, and the
    # coboundary space generators of the same groups and actions
    cases = witness_check_cases()
    spaces = dict.fromkeys((z.group, z.action) for _, z in cases)
    for grp, action in spaces:
        flats = coboundary_space(grp, action).generators
        cases += [("coboundary", Cocycle.from_flat(grp, action, flat)) for flat in flats]
    cases.append(("trivial", Cocycle.zero(TRIVIAL9)))
    outcomes = {}
    for label, z in cases:
        v = is_coboundary(z)
        assert (v is None) == (full_system_is_coboundary(z) is None), label
        assert v is None or is_coboundary_of(z, v), label
        outcomes.setdefault(v is None, label)
    assert set(outcomes) == {True, False}


def test_coboundary_check_reads_every_element():
    # A table equal to a coboundary on the generating set but moved at one
    # other element is not a cocycle: the generator solve succeeds, and only
    # the check at every element turns it down.
    gl2 = close_group([Mat2(1, 1, 0, 1, Z3), Mat2(2, 0, 0, 1, Z3), Mat2(0, 2, 1, 0, Z3)], Z3)
    moved_cases = 0
    for grp in (gl2, make_example_group(3).group, make_example_group(5).group):
        action = ModuleAction.standard(grp.ctx)
        N = grp.ctx.modulus
        cb = coboundary_of(grp, (1, 2), action)
        assert is_coboundary_of(cb, is_coboundary(cb))
        gens = {grp.position(s) for s in grp.generating_set}
        for i in [i for i in range(len(grp)) if i not in gens][::7]:
            values = list(cb.values)
            values[i] = ((values[i][0] + 1) % N, values[i][1])
            moved = Cocycle(grp, action, tuple(values))
            assert is_coboundary(moved) is None and full_system_is_coboundary(moved) is None
            moved_cases += 1
    assert moved_cases > 10
    # the trivial group has no generators: its one value must be zero
    assert is_coboundary(Cocycle(TRIVIAL9, ModuleAction.standard(Z9), ((1, 0),))) is None
    assert is_coboundary(Cocycle.zero(TRIVIAL9)) == (0, 0)


def test_locally_trivial_matches_the_elementwise_test():
    outcomes = {}
    for label, z in witness_check_cases():
        want = elementwise_is_locally_trivial(z)
        assert is_locally_trivial(z) == want, label
        outcomes.setdefault(want, label)
    assert set(outcomes) == {True, False}
    assert outcomes[False].startswith("gl2-f3")


@pytest.mark.parametrize("p", [3, 5])
def test_locally_trivial_solves_once_per_maximal_cyclic_subgroup(monkeypatch, p):
    ex = make_example_group(p)
    calls = []
    solve = cohom.solve_linear
    monkeypatch.setattr(cohom, "solve_linear", lambda *args: calls.append(args) or solve(*args))
    assert is_locally_trivial(example_cocycle(ex))
    # one solve per maximal cyclic subgroup, and no element tested alone
    assert len(calls) == 2 * p
    assert len(maximal_cyclic_subgroups(ex.group)) == 2 * p


def test_locally_trivial_falls_back_on_a_moved_value(monkeypatch):
    # Moving one value of a locally trivial cocycle breaks the cocycle
    # relation, so the solve of a maximal cyclic subgroup through that
    # element no longer proves it, and the element gets its own test. A
    # value moved within Im(h - I) passes it, one moved out of it fails.
    # Every solve past the one per maximal cyclic subgroup is such a test.
    solved = []
    solve = cohom.solve_linear

    def recorded(*args):
        solved.append(solve(*args))
        return solved[-1]

    monkeypatch.setattr(cohom, "solve_linear", recorded)
    results = set()
    for p in (3, 5):
        z = example_cocycle(make_example_group(p))
        N = z.action.ctx.modulus
        maximal = len(maximal_cyclic_subgroups(z.group))
        for i, h in enumerate(z.group.elements):
            minus = minus_identity(z.action, h)
            steps = [col for col in zip(*minus) if any(col)]
            steps += [e for e in ((1, 0), (0, 1)) if solve(minus, 2, e, z.action.ctx) is None]
            for step in steps:
                values = list(z.values)
                values[i] = tuple((a + b) % N for a, b in zip(values[i], step))
                moved = Cocycle(z.group, z.action, tuple(values))
                want = elementwise_is_locally_trivial(moved)
                solved.clear()
                assert is_locally_trivial(moved) == want, (p, h, step)
                results.update(x is not None for x in solved[maximal:])
    assert results == {True, False}


@pytest.mark.parametrize("p", [3, 5])
def test_example_family_h1loc_nonempty(p):
    ex = make_example_group(p)
    engine = cohomology_engine(ex.group)
    rep = h1_loc(engine)
    assert rep.h1loc_invariants != ()
    assert list(rep.h1loc_invariants) == h1_loc_via_restrictions(engine)
    for w in h1loc_witnesses(engine):
        assert is_cocycle(w)
        assert is_locally_trivial(w)
        assert is_coboundary(w) is None
    prod = 1
    for d in rep.h1_invariants:
        prod *= d
    assert prod * coboundary_space(ex.group).cardinality() == cocycle_space(engine).cardinality()


def test_restriction_of_example_cocycle():
    ex = make_example_group(3)
    zc = example_cocycle(ex)
    d3 = close_group([ex.delta3], ex.group.ctx)
    res = restriction(zc, d3)
    assert res.group is d3
    for c in range(3):
        g = ex.element(0, 0, c)
        assert res.value_of(g) == (0, (3 * c) % 9)
    with pytest.raises(NotASubgroup):
        restriction(zc, close_group([Mat2(1, 1, 0, 1, Z9)], Z9))
    # the same matrices over Z/3 are not elements of a group over Z/9
    d3_mod3 = close_group([ex.delta3.reduce_to(1)], Z3)
    assert {(g.a, g.b, g.c, g.d) for g in d3_mod3} <= {(g.a, g.b, g.c, g.d) for g in d3}
    with pytest.raises(NotASubgroup):
        restriction(zc, d3_mod3)
    with pytest.raises(KeyError):
        zc.value_of(Mat2.identity(Z3))


def test_restriction_of_coboundary_is_coboundary():
    ex = make_example_group(3)
    cb = coboundary_of(ex.group, (4, 7))
    d, _, _ = special_subgroups(ex.group)
    res = restriction(cb, d)
    v = is_coboundary(res)
    assert v is not None


# ---------------------------------------------------------------------------
# h1_loc verdicts
# ---------------------------------------------------------------------------


def test_cyclic_groups_have_trivial_h1loc():
    ex = make_example_group(3)
    for cyc in cyclic_subgroups(ex.group)[:8]:
        engine = cohomology_engine(cyc)
        assert h1_loc(engine).h1loc_invariants == ()
        assert h1_loc_via_restrictions(engine) == []


def test_full_diagonal_mod9_trivial_h1loc():
    units = [1, 2, 4, 5, 7, 8]
    elems = tuple(Mat2.diagonal(u, v, Z9) for u in units for v in units)
    diag = MatGroup(elems, Z9)
    assert len(diag) == 36
    engine = cohomology_engine(diag)
    assert h1_loc(engine).h1loc_invariants == ()
    assert h1_loc_via_restrictions(engine) == []


def test_h1_gl2_f3_trivial():
    g = close_group([Mat2(1, 1, 0, 1, Z3), Mat2(2, 0, 0, 1, Z3), Mat2(0, 2, 1, 0, Z3)], Z3, cap=60)
    assert len(g) == 48
    assert h1(cohomology_engine(g)) == []


def test_h1loc_conjugation_invariant():
    ex = make_example_group(3)
    t = Mat2(1, 2, 1, 0, Z9)
    assert t.is_invertible()
    conj = conjugate(ex.group, t)
    assert list(h1_loc(cohomology_engine(conj)).h1loc_invariants) == list(h1_loc(cohomology_engine(ex.group)).h1loc_invariants)


def all_invariants(grp):
    """The report of h1_loc and the restriction path of a group, from one engine."""
    engine = cohomology_engine(grp)
    return h1_loc(engine), h1_loc_via_restrictions(engine)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_invariants_ignore_generator_order_and_conjugation(data):
    ctx = data.draw(st.sampled_from([Z3, Z9, ModulusContext(2, 2), ModulusContext(5, 1)]))
    n = ctx.modulus

    def invertible():
        m = Mat2(*(data.draw(st.integers(0, n - 1)) for _ in range(4)), ctx)
        return m if m.is_invertible() else Mat2.identity(ctx)

    mats = [invertible() for _ in range(data.draw(st.integers(1, 3)))]
    try:
        grp = close_group(mats, ctx, cap=60)
    except CapExceeded:
        return
    want = all_invariants(grp)
    assert all_invariants(close_group(mats[::-1], ctx, cap=60)) == want
    assert all_invariants(conjugate(grp, invertible())) == want


def test_conjugation_identity_on_the_census():
    # H and tHt^-1 have the same invariants, for one fixed t of each ambient
    # group. The conjugate has another generating set and another walk, so
    # this also tests the early stop.
    Z4 = ModulusContext(2, 2)
    by_level = {Z4: Mat2(1, 1, 1, 2, Z4), Z9: Mat2(0, 1, 1, 0, Z9)}
    moved = 0
    for grp in small_census():
        conj = conjugate(grp, by_level[grp.ctx])
        moved += conj != grp
        assert all_invariants(conj) == all_invariants(grp), grp.to_spec_dict()
    assert moved == 510


def test_sah_lemma_on_the_census():
    # Sah's lemma: a central z with z - I invertible on M kills H^1. A scalar
    # lambda*I is central, and lambda*I - I is invertible on (Z/p^n)^2
    # exactly when lambda - 1 is a unit mod p.
    gl2_f3 = close_group([Mat2(1, 1, 0, 1, Z3), Mat2(2, 0, 0, 1, Z3), Mat2(0, 2, 1, 0, Z3)], Z3)
    ambients = [full_diagonal_group(Z9), full_diagonal_group(ModulusContext(5, 2)), gl2_f3]
    counts = []
    for ambient in ambients:
        p, instances = ambient.ctx.p, 0
        for grp in enumerate_subgroups(ambient):
            if any(g.b == g.c == 0 and g.a == g.d and (g.a - 1) % p for g in grp):
                instances += 1
                assert h1(cohomology_engine(grp)) == [], grp.to_spec_dict()
        counts.append(instances)
    assert counts == [12, 64, 30]


def embeds(small, large) -> bool:
    """Whether a finite abelian p-group with the invariant factors small
    embeds in one with the invariant factors large: sorted from the largest,
    each factor of small divides the factor of large at its place."""
    small, large = sorted(small, reverse=True), sorted(large, reverse=True)
    return len(small) <= len(large) and all(b % a == 0 for a, b in zip(small, large))


def test_restriction_identity_on_the_census():
    # Restriction to a Sylow p-subgroup P of G is injective on H^1, since
    # corestriction after it is multiplication by the index, a unit on the
    # p-group H^1 (Brown, Cohomology of Groups, III.10). A locally trivial
    # cocycle restricts to one, so L/B^1(G) maps injectively into L/B^1(P).
    Z4 = ModulusContext(2, 2)
    gl2_z4 = close_group([Mat2(1, 1, 0, 1, Z4), Mat2(0, 1, 1, 0, Z4), Mat2(3, 0, 0, 1, Z4)], Z4)
    gl2_f3 = close_group([Mat2(1, 1, 0, 1, Z3), Mat2(2, 0, 0, 1, Z3), Mat2(0, 2, 1, 0, Z3)], Z3)
    counts = []
    for ambient in (gl2_z4, gl2_f3, full_diagonal_group(Z9)):
        p, subs = ambient.ctx.p, enumerate_subgroups(ambient)
        reports = [h1_loc(cohomology_engine(grp)) for grp in subs]
        checked = h1_nonzero = loc_nonzero = h1_moved = 0
        for grp, rep in zip(subs, reports):
            sylow_order = p ** next(k for k in itertools.count() if len(grp) // p**k % p)
            if sylow_order == len(grp):
                continue
            inside = set(grp.codes)
            sylow = next(i for i, h in enumerate(subs) if len(h) == sylow_order and inside.issuperset(h.codes))
            low = reports[sylow]
            assert embeds(rep.h1_invariants, low.h1_invariants), grp.to_spec_dict()
            assert embeds(rep.h1loc_invariants, low.h1loc_invariants), grp.to_spec_dict()
            checked += 1
            h1_nonzero += rep.h1_invariants != ()
            loc_nonzero += rep.h1loc_invariants != ()
            h1_moved += rep.h1_invariants != low.h1_invariants
        counts.append((checked, h1_nonzero, loc_nonzero, h1_moved))
    assert counts == [(50, 10, 7, 27), (50, 4, 0, 14), (24, 4, 0, 10)]


def test_two_h1loc_paths_agree_on_samples():
    groups = [
        SIGMA3,
        close_group([Mat2(1, 1, 0, 1, Z9)], Z9),
        close_group([Mat2(1, 1, 0, 1, Z3), Mat2(2, 0, 0, 1, Z3)], Z3),
        close_group([Mat2(1, 0, 1, 1, Z9), Mat2(1, 0, 0, 2, Z9)], Z9),
        make_example_group(3).group,
    ]
    for grp in groups:
        engine = cohomology_engine(grp)
        assert list(h1_loc(engine).h1loc_invariants) == h1_loc_via_restrictions(engine)


# ---------------------------------------------------------------------------
# line actions, stabilizers, inflation
# ---------------------------------------------------------------------------


def test_line_action_requires_diagonal():
    act = ModuleAction.line_of(Z9, 0)
    with pytest.raises(ValueError):
        act.act_rows(Mat2(1, 1, 0, 1, Z9))
    assert act.act_rows(Mat2.diagonal(4, 7, Z9)) == ((4,),)
    assert ModuleAction.line_of(Z9, 1).act_rows(Mat2.diagonal(4, 7, Z9)) == ((7,),)


def test_product_law_on_diagonal_group():
    units = [1, 2, 4, 5, 7, 8]
    elems = tuple(Mat2.diagonal(u, v, Z9) for u in units for v in units)
    diag = MatGroup(elems, Z9)
    full = h1_loc(cohomology_engine(diag)).h1loc_invariants
    line0 = h1_loc(cohomology_engine(diag, ModuleAction.line_of(Z9, 0))).h1loc_invariants
    line1 = h1_loc(cohomology_engine(diag, ModuleAction.line_of(Z9, 1))).h1loc_invariants
    prod = 1
    for d in itertools.chain(line0, line1):
        prod *= d
    full_card = 1
    for d in full:
        full_card *= d
    assert full_card == prod


def test_pointwise_stabilizer_and_action_image():
    ex = make_example_group(3)
    coarse = ModuleAction.standard(Z3)
    stab = pointwise_stabilizer(ex.group, coarse)
    assert len(stab) == 9  # elements congruent to the identity mod 3
    q, qact, proj = action_image(ex.group, coarse)
    assert len(q) == 2
    assert qact == ModuleAction.standard(Z3)
    assert all(proj[g] in q for g in ex.group.elements)


def test_inflation_identity_reindex():
    grp = SIGMA3
    action = ModuleAction.standard(Z3)
    zc = Cocycle.from_flat(grp, action, cocycle_space(cohomology_engine(grp)).generators[0])
    infl = inflation(zc, grp)
    assert infl.values == zc.values


def test_inflation_through_reduction():
    ex = make_example_group(3)
    coarse = ModuleAction.standard(Z3)
    q, qact, proj = action_image(ex.group, coarse)
    y = Cocycle.zero(q, qact)
    z = inflation(y, ex.group, coarse)
    assert z.is_zero()
    ygens = cocycle_space(cohomology_engine(q, qact)).generators
    if ygens:
        y2 = Cocycle.from_flat(q, qact, ygens[0])
        z2 = inflation(y2, ex.group, coarse)
        assert is_cocycle(z2)


def test_inflation_stabilizer_mismatch():
    # a cocycle off the faithful quotient of the action: on the full group,
    # on the quotient of another action, or on the quotient with another action
    ex = make_example_group(3)
    coarse = ModuleAction.standard(Z3)
    q, qact, proj = action_image(ex.group, coarse)
    assert inflation(Cocycle.zero(q, qact), ex.group, coarse).is_zero()
    for y, action in (
        (Cocycle.zero(ex.group, coarse), coarse),
        (Cocycle.zero(q, qact), None),
        (Cocycle.zero(q, ModuleAction.line_of(Z3, 1)), coarse),
    ):
        with pytest.raises(StabilizerMismatch, match="faithful quotient"):
            inflation(y, ex.group, action)


def test_inflation_h1loc_equality_lemma():
    # the kernel-of-action quotient carries the same h1_loc invariants
    ex = make_example_group(3)
    coarse = ModuleAction.standard(Z3)
    q, qact, _ = action_image(ex.group, coarse)
    assert list(h1_loc(cohomology_engine(ex.group, coarse)).h1loc_invariants) == list(h1_loc(cohomology_engine(q, qact)).h1loc_invariants)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------


def borel25():
    rho = Mat2.diagonal(1, 7, Z25)  # order 4, stays order 4 mod 5
    tau_u = Mat2(1, 5, 0, 1, Z25)
    tau_l = Mat2(1, 0, 5, 1, Z25)
    return close_group([rho, tau_u, tau_l], Z25, cap=3000), rho


def test_normalize_zero_cocycle():
    grp, rho = borel25()
    z = Cocycle.zero(grp)
    out = normalize_locally_trivial_cocycle(z, rho)
    assert out.is_zero()


def test_normalize_coboundary_vanishes_on_upper_part():
    grp, rho = borel25()
    parts = special_subgroups(grp)
    cb = coboundary_of(grp, (3, 11))
    out = normalize_locally_trivial_cocycle(cb, rho)
    d, su, sl = parts
    upper = close_group(list(d.elements) + list(su.elements), grp.ctx, cap=len(grp) + 1)
    assert not any(any(out.value_of(g)) for g in upper)
    # still cohomologous to the input
    assert is_coboundary(out.sub(cb)) is not None


def test_normalize_rejects_small_order_rho():
    ex = make_example_group(3)
    z = Cocycle.zero(ex.group)
    with pytest.raises(HypothesisViolated):
        normalize_locally_trivial_cocycle(z, ex.delta1)


def test_normalize_rejects_non_locally_trivial():
    grp = SIGMA3
    gens = cocycle_space(cohomology_engine(grp)).generators
    noncob = None
    b1 = coboundary_space(grp)
    for g in gens:
        if not b1.contains(g):
            noncob = g
            break
    assert noncob is not None
    zc = Cocycle.from_flat(grp, ModuleAction.standard(Z3), noncob)
    rho = Mat2.identity(Z3)
    with pytest.raises(HypothesisViolated):
        normalize_locally_trivial_cocycle(zc, rho)


def test_report_serialization_shape():
    ex = make_example_group(3)
    engine = cohomology_engine(ex.group)
    d = h1_loc(engine).to_json_dict()
    assert set(d) == {"z1", "b1", "h1", "h1loc"}
    assert d["h1loc"] and all(isinstance(x, int) for x in d["h1loc"])
    assert all(len(v) == 2 for w in h1loc_witnesses(engine) for v in w.values)


@pytest.mark.parametrize("rank, coord, message", [(3, 0, "rank must be 1 or 2"), (1, 2, "coord must be 0 or 1")])
def test_module_action_rejects_bad_rank_and_coord(rank, coord, message):
    with pytest.raises(ValueError, match=message):
        ModuleAction(Z9, rank, coord)


@pytest.mark.parametrize(
    "values, message",
    [(((0, 0), (0, 0)), "one value per group element"), (((0,),), "value rank does not match")],
)
def test_cocycle_rejects_bad_values(values, message):
    with pytest.raises(ValueError, match=message):
        Cocycle(TRIVIAL9, ModuleAction.standard(Z9), values)


def test_cocycle_sum_needs_one_group_and_action():
    # two groups of order 2 mod 3: zipping their value tuples would mix them
    left = close_group([Mat2.diagonal(1, 2, Z3)], Z3)
    right = close_group([Mat2.diagonal(2, 1, Z3)], Z3)
    std = ModuleAction.standard(Z3)
    z = Cocycle(left, std, ((0, 0), (0, 1)))
    with pytest.raises(ValueError, match="different groups or actions"):
        z.add(Cocycle(right, std, ((0, 0), (1, 0))))
    with pytest.raises(ValueError, match="different groups or actions"):
        z.sub(Cocycle(right, std, ((0, 0), (1, 0))))
    line = ModuleAction.line_of(Z3, 1)
    with pytest.raises(ValueError, match="different groups or actions"):
        Cocycle(left, line, ((0,), (1,))).add(Cocycle(left, ModuleAction.line_of(Z3, 0), ((0,), (0,))))
    assert z.add(z) == Cocycle(left, std, ((0, 0), (0, 2)))
    assert z.sub(z).is_zero()
