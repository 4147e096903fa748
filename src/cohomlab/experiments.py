"""Named experiments: reproductions and budgeted falsification searches.

Every experiment returns a verdict object with itemized checks and, where a
search is involved, counterexample certificates (serialized generator sets)
for any violation found. Sampling is seeded, candidate counts are fixed by
the budget parameters, and wall-clock limits only ever abort with an error,
never silently truncate, so verdict content is reproducible.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import time
from collections import Counter
from typing import NamedTuple, Optional

from .cohom import (
    Cocycle,
    ModuleAction,
    _action_for,
    action_image,
    coboundary_space,
    cocycle_space,
    cohomology_engine,
    h1,
    h1_loc,
    h1_loc_via_restrictions,
    is_coboundary,
    is_cocycle,
    is_locally_trivial,
    locally_trivial_subspace,
)
from .errors import BudgetExceeded
from .galoisdict import evaluate_main_theorem_conditions
from .matgrp import (
    DEFAULT_CAP,
    Mat2,
    MatGroup,
    _entries,
    close_group,
    conjugate,
    cyclic_subgroups,
    distinct_closures,
    enumerate_subgroups,
    find_triangularizing_conjugator,
    make_example_group,
    reduce_mod,
    smallest_nonsquare,
    special_subgroups,
)
from .zmod import ModulusContext, unit_inverse

DEFAULT_BUDGET_MS = 600000


def _jsonable(value):
    """Reduce check values to plain JSON types for serialization."""
    if isinstance(value, Mat2):
        return [[value.a, value.b], [value.c, value.d]]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class Check(NamedTuple):
    description: str
    expected: object
    actual: object
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "description": self.description,
            "expected": self.expected,
            "actual": self.actual,
            "ok": self.ok,
        }


class ExperimentVerdict(NamedTuple):
    name: str
    parameters: dict
    checks: list
    counterexamples: list
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks) and not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
            "counterexamples": self.counterexamples,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_csv_rows(self) -> list:
        rows = [["experiment", "check", "expected", "actual", "ok"]]
        for c in self.checks:
            rows.append(
                [self.name, c.description, json.dumps(c.expected), json.dumps(c.actual), str(c.ok).lower()]
            )
        return rows


class _Run:
    """Collects checks and counterexamples with a wall-clock guard."""

    def __init__(self, name: str, parameters: dict, budget_ms: int):
        self.name = name
        self.parameters = dict(parameters)
        self.budget_ms = budget_ms
        self.checks = []
        self.counterexamples = []
        self.t0 = time.monotonic()

    def tick(self):
        if (time.monotonic() - self.t0) * 1000 > self.budget_ms:
            raise BudgetExceeded(
                f"experiment {self.name} exceeded its wall-clock budget of {self.budget_ms} ms"
            )

    def check(self, description: str, expected, actual):
        self.checks.append(Check(description, _jsonable(expected), _jsonable(actual), expected == actual))

    def counterexample(self, group: MatGroup, reason: str):
        # the greedy generators of the sorted elements, the same for every
        # route that built the group
        cert = MatGroup.from_codes(group.codes, group.ctx).to_spec_dict()
        cert["reason"] = reason
        self.counterexamples.append(cert)

    def verdict(self) -> ExperimentVerdict:
        elapsed = int((time.monotonic() - self.t0) * 1000)
        return ExperimentVerdict(self.name, self.parameters, self.checks, self.counterexamples, elapsed)


def _tick_at(tick, where) -> None:
    """Call tick; when it finds the budget spent, say where the work stopped.

    where is called only then, and names the item about to be started.
    """
    try:
        tick()
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"{exc}; stopped at {where()}") from None


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def _oracle_rows(action: ModuleAction, g: Mat2) -> tuple:
    """The action of g on the module, as rows, formed from the entries of g:
    the plane reduced to the module's level, or the diagonal entry of the
    coordinate line. This repeats the rule of ModuleAction on purpose: the
    oracle is the reference the engine is compared against, so it reads the
    module from the matrices, never through the engine's action code."""
    N = action.ctx.modulus
    if action.rank == 2:
        return ((g.a % N, g.b % N), (g.c % N, g.d % N))
    if g.b % N or g.c % N:
        raise ValueError("line actions are defined for diagonal matrices only")
    return (((g.a, g.d)[action.coord] % N,),)


def _moved(rows, v, n) -> tuple:
    """g.v, from the rows of the action of g."""
    return tuple(sum(a * x for a, x in zip(row, v)) % n for row in rows)


def _products(group: MatGroup) -> list:
    """The position of g*h, by the positions of g and h: the oracle's own
    multiplication table, formed once per group from the matrices."""
    idx = {g: i for i, g in enumerate(group.elements)}
    return [[idx[g * h] for h in group.elements] for g in group.elements]


def _relation_holds(group, action, table, products):
    """Whether the table satisfies Z_gh = Z_g + g.Z_h on all |G|^2 pairs,
    with products the multiplication table of _products."""
    n = action.ctx.modulus
    for g, zg, times in zip(group.elements, table, products):
        rows = _oracle_rows(action, g)
        for zh, gh in zip(table, times):
            if table[gh] != tuple((a + b) % n for a, b in zip(zg, _moved(rows, zh, n))):
                return False
    return True


def brute_cocycle_tables(group: MatGroup, action: Optional[ModuleAction] = None) -> set:
    """Every cocycle value table, found without the linear-algebra path.

    Every assignment of values at the generators is propagated over the
    group from Z_1 = 0 by Z_sh = Z_s + s.Z_h, and a table is kept only if
    the relation holds on all |G|^2 pairs (_relation_holds). That finds
    every cocycle: Z_1 = Z_1 + Z_1 forces Z_1 = 0, so a cocycle is the table
    propagated from its own generator values. A generating set that misses
    part of the group yields no table at all, so a comparison against this
    set fails rather than passes.
    """
    action = _action_for(group, action)
    n = action.ctx.modulus
    r = action.rank
    module = list(itertools.product(range(n), repeat=r))
    gens = group.generating_set
    if len(module) ** len(gens) > 300000:
        raise BudgetExceeded("brute-force cocycle enumeration out of range")
    products = _products(group)
    gen_rows = [products[group.position(s)] for s in gens]
    acts = [_oracle_rows(action, s) for s in gens]
    start = group.position(group.identity)
    out = set()
    for assign in itertools.product(module, repeat=len(gens)):
        table = [None] * len(group)
        table[start] = (0,) * r
        frontier = [start]
        ok = True
        while frontier and ok:
            h = frontier.pop()
            zh = table[h]
            for zs, rows, times in zip(assign, acts, gen_rows):
                g = times[h]
                val = tuple((a + b) % n for a, b in zip(zs, _moved(rows, zh, n)))
                if table[g] is None:
                    table[g] = val
                    frontier.append(g)
                elif table[g] != val:
                    ok = False
                    break
        if ok and None not in table and _relation_holds(group, action, table, products):
            out.add(tuple(table))
    return out


def _moved_minus(rows, v, n) -> tuple:
    """g.v - v, from the rows of the action of g."""
    return tuple((w - x) % n for w, x in zip(_moved(rows, v, n), v))


def brute_coboundary_tables(group: MatGroup, action: Optional[ModuleAction] = None) -> set:
    action = _action_for(group, action)
    n = action.ctx.modulus
    acts = [_oracle_rows(action, g) for g in group.elements]
    return {
        tuple(_moved_minus(rows, v, n) for rows in acts)
        for v in itertools.product(range(n), repeat=action.rank)
    }


def brute_locally_trivial_tables(group, action, z1_tables) -> set:
    action = _action_for(group, action)
    n = action.ctx.modulus
    module = list(itertools.product(range(n), repeat=action.rank))
    images = [{_moved_minus(_oracle_rows(action, g), v, n) for v in module} for g in group.elements]
    return {t for t in z1_tables if all(t[i] in images[i] for i in range(len(group)))}


def brute_quotient_invariants(s_set: set, t_set: set, ctx: ModulusContext) -> list:
    """Invariant factors of the quotient of two sets of flattened tables.

    |p^j S + T| / |T| is |p^j S| / |p^j S & T|, since both are subgroups
    and |A + B| = |A| |B| / |A & B|.
    """
    p, n = ctx.p, ctx.n
    modulus = ctx.modulus

    def flat(table):
        return tuple(itertools.chain.from_iterable(table))

    s_flat = {flat(t) for t in s_set}
    t_flat = {flat(t) for t in t_set}
    sizes = []
    cur = s_flat
    for _ in range(n + 1):
        sizes.append(len(cur) // len(cur & t_flat))
        cur = {tuple((p * a) % modulus for a in x) for x in cur}
    logs = []
    for q in sizes:
        e = 0
        while q > 1:
            q //= p
            e += 1
        logs.append(e)
    invs = []
    for j in range(1, n + 1):
        upper = logs[j - 1] - logs[j]
        lower = logs[j] - logs[j + 1] if j + 1 <= n else 0
        invs.extend([p**j] * (upper - lower))
    return sorted(invs)


# ---------------------------------------------------------------------------
# candidate group sampling
# ---------------------------------------------------------------------------


def _group_fingerprint(group: MatGroup) -> tuple:
    """Conjugation-invariant signature used to spread search effort."""
    N = group.ctx.modulus
    counts = {}
    for code, order in zip(group.codes, group._power_walk.orders):
        a, b, c, d = _entries(code, N)
        key = ((a + d) % N, (a * d - b * c) % N, order)
        counts[key] = counts.get(key, 0) + 1
    return (len(group), tuple(sorted(counts.items())))


@functools.cache
def _units(ctx: ModulusContext) -> tuple:
    """The units of Z/p^n in increasing order."""
    return tuple(u for u in range(1, ctx.modulus) if u % ctx.p)


def _random_matrix(rng: random.Random, ctx: ModulusContext) -> Mat2:
    n = ctx.modulus
    p = ctx.p
    units = _units(ctx)
    kind = rng.randrange(6)
    if kind == 0:
        return Mat2.diagonal(rng.choice(units), rng.choice(units), ctx)
    if kind == 1:
        return Mat2(1, rng.randrange(n), 0, 1, ctx)
    if kind == 2:
        return Mat2(1, 0, rng.randrange(n), 1, ctx)
    if kind == 3:
        # identity plus p times anything stays invertible
        return Mat2(
            1 + p * rng.randrange(n // p),
            p * rng.randrange(n // p),
            p * rng.randrange(n // p),
            1 + p * rng.randrange(n // p),
            ctx,
        )
    if kind == 4:
        return Mat2(0, rng.choice(units), rng.choice(units), 0, ctx)
    while True:
        m = Mat2(rng.randrange(n), rng.randrange(n), rng.randrange(n), rng.randrange(n), ctx)
        if m.is_invertible():
            return m


def _curated_level2_generators(ctx: ModulusContext) -> list:
    p = ctx.p
    n = ctx.modulus
    units = _units(ctx)
    m = smallest_nonsquare(p)
    sets = [
        [],
        [Mat2.diagonal(1, n - 1, ctx)],
        [Mat2.diagonal(n - 1, n - 1, ctx)],
        [Mat2(1, 1, 0, 1, ctx)],
        [Mat2(1, 0, 1, 1, ctx)],
        [Mat2(1, p, 0, 1, ctx)],
        [Mat2(1, 0, p, 1, ctx)],
        [Mat2.diagonal(1, 1 + p, ctx)],
        [Mat2.diagonal(1 + p, 1 + p, ctx)],
        [Mat2.diagonal(u, 1, ctx) for u in units[:2]],
        [Mat2.diagonal(1, n - 1, ctx), Mat2.diagonal(1 + p, 1 + p, ctx), Mat2(1, m * p, p, 1, ctx)],
        [Mat2(1, 1, 0, 1, ctx), Mat2.diagonal(1, n - 1, ctx)],
        [Mat2(1, 0, 1, 1, ctx), Mat2.diagonal(n - 1, 1, ctx)],
        [Mat2(1, p, 0, 1, ctx), Mat2(1, 0, p, 1, ctx)],
        [Mat2(1, p, 0, 1, ctx), Mat2(1, 0, p, 1, ctx), Mat2.diagonal(1, n - 1, ctx)],
        [Mat2(1, 1, 0, 1, ctx), Mat2(1, 0, p, 1, ctx)],
        [Mat2(0, 1, n - 1, 0, ctx), Mat2(1, 1, 0, 1, ctx)],
        [Mat2.diagonal(1, 1 + p, ctx), Mat2(1, 1, 0, 1, ctx), Mat2(1, 0, p, 1, ctx)],
    ]
    for lam in units:
        if Mat2.diagonal(1, lam, ctx).order() >= 3:
            sets.append([Mat2.diagonal(1, lam, ctx), Mat2(1, 1, 0, 1, ctx), Mat2(1, 0, p, 1, ctx)])
            sets.append([Mat2.diagonal(1, lam, ctx), Mat2(1, p, 0, 1, ctx), Mat2(1, 0, p, 1, ctx)])
    return sets


def sample_level2_groups(
    p: int,
    seed: int,
    count: int,
    tick=None,
) -> list:
    """Deterministic candidate subgroups of GL2(Z/p^2): curated then random.

    The first count of the distinct closures of the generator sets
    (matgrp.distinct_closures), at most four per conjugation-invariant
    fingerprint, so the budget spreads over genuinely different groups.
    tick is called before each generator set is closed; when it finds the
    budget spent, the error names the generator set reached.
    """
    if count <= 0:
        return []
    ctx = ModulusContext(p, 2)
    rng = random.Random(seed)
    gen_sets = list(_curated_level2_generators(ctx))
    while len(gen_sets) < count * 4:
        gen_sets.append([_random_matrix(rng, ctx) for _ in range(rng.randrange(1, 4))])

    def ticked():
        for index, gens in enumerate(gen_sets):
            if tick is not None:
                _tick_at(tick, lambda: f"generator set {index} of the sampling")
            yield gens

    fingerprints = Counter()
    out = []
    for grp in distinct_closures(ticked(), ctx):
        fp = _group_fingerprint(grp)
        fingerprints[fp] += 1
        if fingerprints[fp] <= 4:
            out.append(grp)
            if len(out) == count:
                break
    return out


# ---------------------------------------------------------------------------
# experiment: the explicit counterexample family
# ---------------------------------------------------------------------------


def run_example6(
    p: int,
    m: Optional[int] = None,
    budget_ms: int = DEFAULT_BUDGET_MS,
) -> ExperimentVerdict:
    """Reproduce the order-2p^2 family and its nontrivial locally trivial class."""
    # ModulusContext bounds p before its trial division, so a huge p fails at once
    ModulusContext(p, 2)
    if p == 2:
        raise ValueError(f"the family needs an odd prime, got {p}")
    if p > 13:
        raise BudgetExceeded(f"family reproduction is budgeted for p <= 13, got {p}")
    ex = make_example_group(p, m)
    run = _Run("example6", {"p": p, "m": ex.nonsquare}, budget_ms)
    grp = ex.group
    ctx = grp.ctx
    n = ctx.modulus

    run.check("group order equals 2*p^2", 2 * p * p, len(grp))

    # The law is a group law on triples, a semidirect product that the unit
    # triples generate, so the pairs (t, s) with s a unit triple suffice.
    # With phi the labeling, phi(s) = phi((0,0,0) * s) = phi(0,0,0) phi(s)
    # forces phi(0,0,0) = I; and if phi(t) phi(u) = phi(t * u) for every t,
    # then phi(t) phi(u * s) = phi(t * u) phi(s) = phi(t * u * s), so the law
    # follows by induction on u as a word in the unit triples.
    bad_rel = 0
    for t1 in ex.triples:
        run.tick()
        for a, b, c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            want = ex.element(t1.a + a, t1.b + b, (-1) ** a * t1.c + c)
            if ex.triples[t1] * ex.element(a, b, c) != want:
                bad_rel += 1
    run.check("three-parameter product law holds for all pairs", 0, bad_rel)

    rev = {g: t for t, g in ex.triples.items()}
    vals = tuple((0, ((-1) ** rev[g].a * p * rev[g].c) % n) for g in grp.elements)
    zc = Cocycle(grp, ModuleAction.standard(ctx), vals)
    run.check("displayed map satisfies the cocycle relation", True, is_cocycle(zc))

    bad_local = 0
    for t, g in ex.triples.items():
        run.tick()
        a, b, c = t
        if a == 1:
            inv = unit_inverse((p * b + 2) % n, ctx)
            v = (0, p * c * inv % n)
        elif c % p == 0:
            v = (0, 0)
        else:
            den = (c * c * ex.nonsquare - b * b) % n
            inv = unit_inverse(den, ctx)
            v = (c * c * ex.nonsquare * inv % n, -b * c * inv % n)
        moved = g.apply(v)
        got = ((moved[0] - v[0]) % n, (moved[1] - v[1]) % n)
        if got != zc.value_of(g):
            bad_local += 1
    run.check("closed-form local solution verified at every element", 0, bad_local)
    run.check("cocycle passes the elementwise local test", True, is_locally_trivial(zc))

    run.check("cocycle is not a coboundary", None, is_coboundary(zc))

    def single_element_solutions(g):
        target = zc.value_of(g)
        sols = set()
        for v in itertools.product(range(n), repeat=2):
            moved = g.apply(v)
            if ((moved[0] - v[0]) % n, (moved[1] - v[1]) % n) == target:
                sols.add(v)
        return sols

    # the two single-element systems force incompatible solutions mod p
    sols_scale = single_element_solutions(ex.element(0, 1, 0))
    sols_rot = single_element_solutions(ex.element(0, 0, 1))
    run.check(
        "solutions at the scaling element are all congruent to (0,0) mod p",
        True,
        bool(sols_scale) and all(v[0] % p == 0 and v[1] % p == 0 for v in sols_scale),
    )
    run.check(
        "solutions at the rotation element are all congruent to (1,0) mod p",
        True,
        bool(sols_rot) and all(v[0] % p == 1 and v[1] % p == 0 for v in sols_rot),
    )
    run.check(
        "the two solution sets are disjoint, so no global vector exists",
        0,
        len(sols_scale & sols_rot),
    )

    engine = cohomology_engine(grp)
    rep = h1_loc(engine)
    run.check("locally trivial classes are nontrivial", True, rep.h1loc_invariants != ())
    run.check(
        "both definitions of the locally trivial quotient agree",
        list(rep.h1loc_invariants),
        h1_loc_via_restrictions(engine),
    )
    run.check(
        "class of the displayed cocycle has order p",
        True,
        zc.scale(p).is_zero() and locally_trivial_subspace(engine).contains(zc.flatten()),
    )

    cond = evaluate_main_theorem_conditions(grp)
    run.check("level-1 image fixes a point of exact order p", True, cond.has_fixed_point_of_exact_order_p)
    run.check("determinant image mod p has order 2", 2, cond.det_image_order_mod_p)
    run.check("zeta condition fails", False, cond.zeta_condition_holds)
    run.check("determinant kernel mod p is trivial", True, cond.det_kernel_trivial_mod_p)
    run.check("exactly two stable cyclic submodules of order p", 2, len(cond.stable_cyclic_order_p))
    run.check("no stable cyclic submodule of order p^2", 0, len(cond.stable_cyclic_order_p2))
    run.check("no disjoint stable pair of orders p^2 and p", False, cond.isogeny_condition_p3)
    return run.verdict()


# ---------------------------------------------------------------------------
# experiment: diagonal subgroups have trivial locally trivial quotients
# ---------------------------------------------------------------------------


def full_diagonal_group(ctx: ModulusContext) -> MatGroup:
    p = ctx.p
    n = ctx.modulus
    gens = []
    for u in range(2, n):
        if u % p:
            gens.append(Mat2.diagonal(u, 1, ctx))
            gens.append(Mat2.diagonal(1, u, ctx))
    return close_group(gens, ctx, cap=max(DEFAULT_CAP, n * n))


def verify_diagonal_triviality(p: int, n: int = 2, budget_ms: int = DEFAULT_BUDGET_MS) -> ExperimentVerdict:
    """Every diagonal subgroup has only coboundaries among locally trivial cocycles.

    Also checks the two structural laws behind that fact: the class group of
    the plane splits as the product over the two coordinate lines, and each
    line factor is unchanged when the kernel of the line action is divided
    out.
    """
    # ModulusContext bounds n and p before it forms p^n
    ctx = ModulusContext(p, n)
    if ctx.modulus > 25:
        raise ValueError(f"diagonal sweep is restricted to moduli <= 25, got {p}^{n}")
    full = full_diagonal_group(ctx)
    subs = enumerate_subgroups(full)
    run = _Run("diagonal", {"p": p, "n": n, "subgroups": len(subs)}, budget_ms)

    std = ModuleAction.standard(ctx)
    lines = (ModuleAction.line_of(ctx, 0), ModuleAction.line_of(ctx, 1))
    bad_loc = 0
    bad_restr = 0
    bad_product = 0
    bad_inflation = 0
    for sub in subs:
        run.tick()
        engine = cohomology_engine(sub)
        rep = h1_loc(engine)
        if rep.h1loc_invariants != ():
            bad_loc += 1
            run.counterexample(sub, "diagonal subgroup with nontrivial locally trivial quotient")
        if list(rep.h1loc_invariants) != h1_loc_via_restrictions(engine):
            bad_restr += 1
            run.counterexample(sub, "the two locally trivial quotient definitions disagree")
        line_reps = [h1_loc(cohomology_engine(sub, line)) for line in lines]
        plane_h1 = math.prod(rep.h1_invariants)
        lines_h1 = math.prod(line_reps[0].h1_invariants) * math.prod(line_reps[1].h1_invariants)
        plane_loc = math.prod(rep.h1loc_invariants)
        lines_loc = math.prod(line_reps[0].h1loc_invariants) * math.prod(line_reps[1].h1loc_invariants)
        if plane_h1 != lines_h1 or plane_loc != lines_loc:
            bad_product += 1
            run.counterexample(sub, "class count does not split over the coordinate lines")
        for line, line_rep in zip(lines, line_reps):
            quotient, image_act, _ = action_image(sub, line)
            if h1_loc(cohomology_engine(quotient, image_act)).h1loc_invariants != line_rep.h1loc_invariants:
                bad_inflation += 1
                run.counterexample(sub, "line quotient changed after dividing out the acting kernel")

    run.check("subgroups of the full diagonal group were enumerated", True, len(subs) >= 2)
    run.check("every diagonal subgroup has trivial locally trivial quotient", 0, bad_loc)
    run.check("both locally trivial quotient definitions agree everywhere", 0, bad_restr)
    run.check("class counts split as the product over the coordinate lines", 0, bad_product)
    run.check("line class groups are unchanged by dividing out the acting kernel", 0, bad_inflation)
    return run.verdict()


# ---------------------------------------------------------------------------
# experiment: level-1 shape of groups with nontrivial classes
# ---------------------------------------------------------------------------


def full_matrix_group_mod_p(p: int) -> MatGroup:
    ctx = ModulusContext(p, 1)
    elems = []
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p:
            elems.append(Mat2(a, b, c, d, ctx))
    return close_group(elems, ctx, cap=len(elems) + 1)


def _shape_targets(p: int) -> set:
    """The groups generated by a unipotent and a diagonal part.

    The admissible diagonal part is the identity or has distinct diagonal
    entries mod p; targets are taken with and without the unipotent.
    """
    ctx = ModulusContext(p, 1)
    sigma = Mat2(1, 1, 0, 1, ctx)
    rhos = [Mat2.identity(ctx)]
    for a in range(1, p):
        for b in range(1, p):
            if a != b:
                rhos.append(Mat2.diagonal(a, b, ctx))
    gen_sets = itertools.chain.from_iterable(([rho], [rho, sigma]) for rho in rhos)
    return set(distinct_closures(gen_sets, ctx))


def _matches_shape(group: MatGroup, full: MatGroup, targets: set) -> bool:
    return any(conjugate(group, t) in targets for t in full.elements)


def verify_shape_lemma(p: int, budget_ms: int = DEFAULT_BUDGET_MS) -> ExperimentVerdict:
    """Groups with nontrivial classes are conjugate to a diagonal-unipotent shape.

    Exhaustive over all subgroups for p <= 3. GL2(F_5) is not solvable, so
    enumerate_subgroups cannot list its subgroups; at p = 5 the candidates
    are its cyclic subgroups, all of them.
    """
    if p not in (2, 3, 5):
        raise ValueError(f"shape check runs at p in {{2, 3, 5}}, got {p}")
    full = full_matrix_group_mod_p(p)
    exhaustive = p <= 3
    candidates = enumerate_subgroups(full) if exhaustive else cyclic_subgroups(full)
    run = _Run("shape-lemma", {"p": p, "candidates": len(candidates), "exhaustive": exhaustive}, budget_ms)
    targets = _shape_targets(p)
    nontrivial = 0
    violations = 0
    for grp in candidates:
        run.tick()
        if h1(cohomology_engine(grp)) == []:
            continue
        nontrivial += 1
        if not _matches_shape(grp, full, targets):
            violations += 1
            run.counterexample(grp, "nontrivial classes but no conjugate of the admissible shape")
    run.parameters["nontrivial"] = nontrivial
    if p == 3:
        run.check("some mod-3 subgroup has nontrivial classes", True, nontrivial > 0)
    run.check("every group with nontrivial classes matches an admissible shape", 0, violations)
    return run.verdict()


# ---------------------------------------------------------------------------
# experiment: structural consequences at the prime 3, level 2
# ---------------------------------------------------------------------------


def _qualifying_diagonals(group: MatGroup) -> list:
    """Diagonal elements with upper-left entry 1 and order at least 3."""
    orders = group._power_walk.orders
    return [g for g, order in zip(group.elements, orders) if g.b == 0 and g.c == 0 and g.a == 1 and order >= 3]


def _is_cyclic(group: MatGroup) -> bool:
    return len(group) in group._power_walk.orders


def _structured_level2_candidates(ctx: ModulusContext) -> list:
    p = ctx.p
    units = _units(ctx)
    diags = [Mat2.diagonal(a, b, ctx) for a in units for b in units]
    uppers = [Mat2(1, 1, 0, 1, ctx), Mat2(1, p, 0, 1, ctx)]
    lowers = [Mat2(1, 0, 1, 1, ctx), Mat2(1, 0, p, 1, ctx)]
    sets = []
    for d in diags:
        for u in uppers:
            sets.append([d, u])
            for l in lowers:
                sets.append([d, u, l])
        for l in lowers:
            sets.append([d, l])
    return sets


def verify_structure_props(
    p: int,
    seed: int = 0,
    budget_ms: int = DEFAULT_BUDGET_MS,
) -> ExperimentVerdict:
    """Check structural consequences for level-2 groups at the prime 3.

    A qualifying group contains a diagonal element of order >= 3 with
    upper-left entry 1. For qualifying groups that are generated by their
    diagonal and one-sided unipotent parts, have non-cyclic level-1 image,
    and carry nontrivial classes, the locally trivial quotient must vanish.
    Qualifying groups with a nontrivial locally trivial quotient must be
    conjugate to a triangular group. A pivotal product identity between the
    two unipotent parts is checked against its closed form, and the
    explicit order-2p^2 family is recorded as escaping the hypotheses
    through its order-2 diagonal part.
    """
    if p != 3:
        raise ValueError(f"structure checks are calibrated for p = 3, got {p}")
    ctx = ModulusContext(p, 2)
    n = ctx.modulus
    run = _Run("structure-props", {"p": p, "seed": seed}, budget_ms)

    # pivotal identity: the bracket of the two unipotent parts is diagonal
    j = 1
    tau_u = Mat2(1, 1, 0, 1, ctx)
    tau_l = Mat2(1, 0, p**j, 1, ctx)
    inv = unit_inverse(p**j + 1, ctx)
    word = tau_u * tau_l * tau_u.pow(-inv) * tau_l.pow(-(p**j + 1))
    closed = Mat2.diagonal(1 + p**j, (1 - p**j * inv) % n, ctx)
    run.check("unipotent bracket word equals its diagonal closed form", closed, word)

    candidates = list(distinct_closures(_structured_level2_candidates(ctx), ctx))
    seen = set(candidates)
    sampled = sample_level2_groups(p, seed, 40, tick=run.tick)
    candidates += [grp for grp in sampled if grp not in seen]

    local_vanishing_instances = 0
    local_vanishing_violations = 0
    triangular_instances = 0
    triangular_violations = 0
    word_instances = 0
    word_violations = 0
    for grp in candidates:
        run.tick()
        if tau_u in grp and tau_l in grp:
            word_instances += 1
            if word not in grp or closed not in grp:
                word_violations += 1
                run.counterexample(grp, "bracket word escaped a group containing both unipotent parts")
        rhos = _qualifying_diagonals(grp)
        if not rhos:
            continue
        rep = h1_loc(cohomology_engine(grp))
        if rep.h1_invariants == ():
            continue
        diag_part, upper_part, lower_part = special_subgroups(grp)
        part_elems = set(diag_part.elements) | set(upper_part.elements) | set(lower_part.elements)
        regenerated = close_group(sorted(part_elems), ctx)
        level1 = reduce_mod(grp, 1)
        if regenerated == grp and not _is_cyclic(level1):
            local_vanishing_instances += 1
            if rep.h1loc_invariants != ():
                local_vanishing_violations += 1
                run.counterexample(grp, "hypotheses met but the locally trivial quotient is nonzero")
        if rep.h1loc_invariants != ():
            triangular_instances += 1
            if find_triangularizing_conjugator(grp) is None:
                triangular_violations += 1
                run.counterexample(grp, "nontrivial locally trivial quotient but not triangularizable")

    ex = make_example_group(p)
    ex_rep = h1_loc(cohomology_engine(ex.group))
    run.check(
        "the order-2p^2 family escapes the hypotheses through its order-2 diagonal part",
        True,
        ex_rep.h1loc_invariants != () and _qualifying_diagonals(ex.group) == [],
    )

    run.parameters["candidates"] = len(candidates)
    run.parameters["local_vanishing_instances"] = local_vanishing_instances
    run.parameters["triangular_instances"] = triangular_instances
    run.parameters["word_instances"] = word_instances
    run.check("groups meeting the local-vanishing hypotheses exist", True, local_vanishing_instances > 0)
    run.check("local-vanishing hypotheses always force a trivial quotient", 0, local_vanishing_violations)
    run.check("nontrivial quotients with a qualifying diagonal are triangularizable", 0, triangular_violations)
    run.check("groups containing both unipotent parts contain the bracket word", 0, word_violations)
    return run.verdict()


# ---------------------------------------------------------------------------
# experiment: budgeted falsification of the main implication
# ---------------------------------------------------------------------------


def falsify_main_theorem(
    p: int,
    seed: int = 0,
    samples: int = 80,
    budget_ms: int = DEFAULT_BUDGET_MS,
) -> ExperimentVerdict:
    """Search level-2 groups for a violation of the main implication.

    For every candidate with a nontrivial locally trivial quotient, either
    the determinant image mod p must have order < 3, or the group must fix
    a point of exact order p, have trivial determinant kernel mod p, and
    admit a disjoint stable pair of cyclic submodules of orders p^2 and p.
    Any violation is emitted as a counterexample certificate.
    """
    if p not in (3, 5):
        raise ValueError(f"falsification search runs at p in {{3, 5}}, got {p}")
    run = _Run("main-theorem", {"p": p, "seed": seed, "samples": samples}, budget_ms)
    candidates = [make_example_group(p).group]
    for grp in sample_level2_groups(p, seed, samples, tick=run.tick):
        if grp != candidates[0]:
            candidates.append(grp)

    nontrivial = 0
    violations = 0
    for index, grp in enumerate(candidates):
        _tick_at(
            run.tick,
            lambda: f"candidate {index} of {len(candidates)}: {json.dumps(grp.to_spec_dict())}",
        )
        if h1_loc(cohomology_engine(grp)).h1loc_invariants == ():
            continue
        nontrivial += 1
        cond = evaluate_main_theorem_conditions(grp)
        consistent = (not cond.zeta_condition_holds) or (
            cond.has_fixed_point_of_exact_order_p
            and cond.det_kernel_trivial_mod_p
            and cond.isogeny_condition_p3
        )
        if not consistent:
            violations += 1
            run.counterexample(grp, "nontrivial locally trivial quotient violating the main implication")

    run.parameters["candidates"] = len(candidates)
    run.parameters["nontrivial"] = nontrivial
    run.check("a group with nontrivial locally trivial quotient was examined", True, nontrivial >= 1)
    run.check("no candidate violates the main implication", 0, violations)
    return run.verdict()


# ---------------------------------------------------------------------------
# experiment: linear-algebra path agrees with brute-force enumeration
# ---------------------------------------------------------------------------


def _compare_paths(run: _Run, grp: MatGroup, counters: dict) -> None:
    ctx = grp.ctx
    action = ModuleAction.standard(ctx)
    z_brute = brute_cocycle_tables(grp)
    b_brute = brute_coboundary_tables(grp)
    l_brute = brute_locally_trivial_tables(grp, action, z_brute)

    def flatten_all(tables):
        return {tuple(itertools.chain.from_iterable(t)) for t in tables}

    engine = cohomology_engine(grp)
    z_lin = set(cocycle_space(engine).vectors())
    b_lin = set(coboundary_space(grp).vectors())
    l_lin = set(locally_trivial_subspace(engine).vectors())
    if flatten_all(z_brute) != z_lin:
        counters["z"] += 1
        run.counterexample(grp, "cocycle tables differ between the two paths")
    if flatten_all(b_brute) != b_lin:
        counters["b"] += 1
        run.counterexample(grp, "coboundary tables differ between the two paths")
    if flatten_all(l_brute) != l_lin:
        counters["l"] += 1
        run.counterexample(grp, "locally trivial tables differ between the two paths")
    if not (b_brute <= l_brute <= z_brute):
        counters["incl"] += 1
        run.counterexample(grp, "brute-force containments fail")
    rep = h1_loc(engine)
    if list(rep.h1_invariants) != brute_quotient_invariants(z_brute, b_brute, ctx):
        counters["h1"] += 1
        run.counterexample(grp, "class group invariants differ between the two paths")
    if list(rep.h1loc_invariants) != brute_quotient_invariants(l_brute, b_brute, ctx):
        counters["h1loc"] += 1
        run.counterexample(grp, "locally trivial quotient invariants differ between the two paths")
    counters["groups"] += 1


def _curated_mod4_groups() -> list:
    ctx = ModulusContext(2, 2)
    gen_sets = [
        [],
        [Mat2.diagonal(3, 3, ctx)],
        [Mat2.diagonal(1, 3, ctx)],
        [Mat2.diagonal(3, 1, ctx)],
        [Mat2(1, 1, 0, 1, ctx)],
        [Mat2(1, 2, 0, 1, ctx)],
        [Mat2(1, 0, 1, 1, ctx)],
        [Mat2(1, 0, 2, 1, ctx)],
        [Mat2(0, 1, 1, 0, ctx)],
        [Mat2(0, 1, 3, 0, ctx)],
        [Mat2.diagonal(1, 3, ctx), Mat2(1, 2, 0, 1, ctx)],
        [Mat2.diagonal(3, 1, ctx), Mat2(1, 1, 0, 1, ctx)],
        [Mat2(1, 1, 0, 1, ctx), Mat2(1, 2, 2, 3, ctx)],
        [Mat2.diagonal(1, 3, ctx), Mat2.diagonal(3, 1, ctx)],
    ]
    return list(distinct_closures(gen_sets, ctx))


def verify_oracle_equivalence(budget_ms: int = DEFAULT_BUDGET_MS) -> ExperimentVerdict:
    """Compare the linear-algebra path against literal brute-force enumeration.

    Scope: all subgroups mod 2, subgroups of order <= 12 mod 3, and a curated
    family of subgroups mod 4.
    """
    run = _Run("oracle", {}, budget_ms)
    counters = {"z": 0, "b": 0, "l": 0, "incl": 0, "h1": 0, "h1loc": 0, "groups": 0}

    families = {
        "mod2_groups": enumerate_subgroups(full_matrix_group_mod_p(2)),
        "mod3_groups": [g for g in enumerate_subgroups(full_matrix_group_mod_p(3)) if len(g) <= 12],
        "mod4_groups": _curated_mod4_groups(),
    }
    for key, subs in families.items():
        for grp in subs:
            run.tick()
            _compare_paths(run, grp, counters)
        run.parameters[key] = len(subs)

    run.check("all subgroups mod 2 were covered", True, run.parameters["mod2_groups"] >= 6)
    run.check("small subgroups mod 3 were covered", True, run.parameters["mod3_groups"] >= 10)
    run.check("at least ten subgroups mod 4 were covered", True, run.parameters["mod4_groups"] >= 10)
    run.check("cocycle tables agree on every group", 0, counters["z"])
    run.check("coboundary tables agree on every group", 0, counters["b"])
    run.check("locally trivial tables agree on every group", 0, counters["l"])
    run.check("brute-force containments hold on every group", 0, counters["incl"])
    run.check("class group invariants agree on every group", 0, counters["h1"])
    run.check("locally trivial quotient invariants agree on every group", 0, counters["h1loc"])
    return run.verdict()

