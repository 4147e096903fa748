"""First cohomology of matrix groups acting on finite modules over Z/p^nZ.

A cocycle is fixed by its values on a generating set of k elements, so the
engine works in generator coordinates M^k. Propagating the cocycle relation
from the identity writes the value at every g as a matrix coeff[g] applied
to the generator values, and every revisit of an element gives constraint
rows. Z1 is the kernel of those rows; the locally trivial subspace L and
the intersection of the restriction kernels are kernels of the same rows
stacked with more; B1 is spanned by the generator values (s - I)e_j of the
coboundaries. Quotients reduce to the invariant-factor machinery in zmod.

Value tables, one module element per group element in canonical order, are
built only for the public cocycle_space, coboundary_space and
locally_trivial_subspace, and for the witnesses of a nonzero L/B1.

L collects the cocycles whose value at every single element g already lies
in the image of g - I; for the cyclic subgroup generated by g that
membership is exactly coboundary-ness, which makes it the
kernel-of-all-restrictions condition computed elementwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from typing import Optional

from .errors import HypothesisViolated, NotASubgroup, StabilizerMismatch
from .matgrp import Mat2, MatGroup, close_group, cyclic_subgroups, special_subgroups
from .zmod import (
    ModulusContext,
    ResidueMatrix,
    ResidueVector,
    Submodule,
    annihilator,
    image_contains,
    kernel,
    quotient_decomposition,
    quotient_invariants,
    solve_linear,
    unit_inverse,
)


@dataclass(frozen=True)
class ModuleAction:
    """How a matrix group acts on a finite module.

    rank 2: the standard action of the matrices on (Z/p^m)^2, entries
    reduced from level n to level m <= n. rank 1: the action on one of the
    two coordinate lines, defined for diagonal matrices only; the matrix
    acts by its corresponding diagonal entry.
    """

    ctx: ModulusContext
    rank: int
    coord: int = 0

    def __post_init__(self):
        if self.rank not in (1, 2):
            raise ValueError("rank must be 1 or 2")
        if self.coord not in (0, 1):
            raise ValueError("coord must be 0 or 1")

    @classmethod
    def standard(cls, ctx: ModulusContext) -> "ModuleAction":
        return cls(ctx, 2)

    @classmethod
    def line_of(cls, ctx: ModulusContext, coord: int) -> "ModuleAction":
        return cls(ctx, 1, coord)

    def _check_group(self, g: Mat2):
        if g.ctx.p != self.ctx.p:
            raise ValueError("module and group live over different primes")
        if self.ctx.n > g.ctx.n:
            raise ValueError("module level exceeds the group's level")

    def act_rows(self, g: Mat2) -> tuple:
        """Matrix of the action of g, as rows over the module's modulus."""
        self._check_group(g)
        N = self.ctx.modulus
        if self.rank == 2:
            return ((g.a % N, g.b % N), (g.c % N, g.d % N))
        if g.b % N or g.c % N:
            raise ValueError("line actions are defined for diagonal matrices only")
        u = (g.a if self.coord == 0 else g.d) % N
        return ((u,),)

    def act_minus_identity(self, g: Mat2) -> ResidueMatrix:
        rows = self.act_rows(g)
        return ResidueMatrix.from_rows(
            [[(e - (1 if i == j else 0)) % self.ctx.modulus for j, e in enumerate(row)] for i, row in enumerate(rows)],
            self.ctx,
        )

    def apply(self, g: Mat2, vec) -> ResidueVector:
        rows = self.act_rows(g)
        N = self.ctx.modulus
        return ResidueVector(
            tuple(sum(a * x for a, x in zip(row, vec)) % N for row in rows), self.ctx
        )


def _action_for(group: MatGroup, action: Optional[ModuleAction]) -> ModuleAction:
    return action if action is not None else ModuleAction.standard(group.ctx)


@dataclass(frozen=True)
class Cocycle:
    """A 1-cocycle: a module value per group element, in canonical order."""

    group: MatGroup
    action: ModuleAction
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.group):
            raise ValueError("need one value per group element")
        N = self.action.ctx.modulus
        object.__setattr__(
            self, "values", tuple(tuple(e % N for e in v) for v in self.values)
        )
        for v in self.values:
            if len(v) != self.action.rank:
                raise ValueError("value rank does not match the module rank")

    @classmethod
    def zero(cls, group: MatGroup, action: Optional[ModuleAction] = None) -> "Cocycle":
        action = _action_for(group, action)
        return cls(group, action, tuple((0,) * action.rank for _ in group.elements))

    @classmethod
    def from_flat(cls, group: MatGroup, action: ModuleAction, flat) -> "Cocycle":
        r = action.rank
        vals = tuple(tuple(flat[i * r : (i + 1) * r]) for i in range(len(group)))
        return cls(group, action, vals)

    def value_of(self, g: Mat2) -> ResidueVector:
        return ResidueVector(self.values[self.group._index[g]], self.action.ctx)

    def flatten(self) -> ResidueVector:
        return ResidueVector(tuple(itertools.chain.from_iterable(self.values)), self.action.ctx)

    def add(self, other: "Cocycle") -> "Cocycle":
        N = self.action.ctx.modulus
        vals = tuple(
            tuple((a + b) % N for a, b in zip(v, w)) for v, w in zip(self.values, other.values)
        )
        return Cocycle(self.group, self.action, vals)

    def sub(self, other: "Cocycle") -> "Cocycle":
        N = self.action.ctx.modulus
        vals = tuple(
            tuple((a - b) % N for a, b in zip(v, w)) for v, w in zip(self.values, other.values)
        )
        return Cocycle(self.group, self.action, vals)

    def scale(self, k: int) -> "Cocycle":
        N = self.action.ctx.modulus
        return Cocycle(self.group, self.action, tuple(tuple(k * e % N for e in v) for v in self.values))

    def is_zero(self) -> bool:
        return all(all(e == 0 for e in v) for v in self.values)


@dataclass(frozen=True)
class CohomologyReport:
    """Invariant factors of the four spaces plus explicit witnesses."""

    z1_invariants: tuple
    b1_invariants: tuple
    h1_invariants: tuple
    h1loc_invariants: tuple
    h1loc_witnesses: tuple

    def to_json_dict(self) -> dict:
        return {
            "z1": list(self.z1_invariants),
            "b1": list(self.b1_invariants),
            "h1": list(self.h1_invariants),
            "h1loc": list(self.h1loc_invariants),
            "witnesses": [[list(v) for v in w.values] for w in self.h1loc_witnesses],
        }


# ---------------------------------------------------------------------------
# the linear spaces, in generator coordinates
# ---------------------------------------------------------------------------


def _propagate(group: MatGroup, action: ModuleAction):
    """Coefficient matrices coeff[g] and the constraint rows of the cocycle space.

    A cocycle is determined by its values on the generating set S, stacked
    into one vector x in M^k. Starting from value 0 at the identity, the
    relation at (s, h) gives the value at s*h as x_s + s.Z_h, so the value at
    every g is coeff[g] x for an r x rk matrix coeff[g]; each revisit of an
    already-valued element yields constraint rows on x. Every pair (s, h)
    with s in S is visited, and those relations imply the full two-variable
    relation by induction on word length, so Z^1 is the kernel of the rows.
    """
    gens = group.generating_set
    r = action.rank
    dim = r * len(gens)
    N = action.ctx.modulus
    acts = [action.act_rows(s) for s in gens]
    coeff = {group.identity: ((0,) * dim,) * r}
    frontier = [group.identity]
    rows = set()
    while frontier:
        h = frontier.pop()
        cols = list(zip(*coeff[h]))
        for si, (s, act) in enumerate(zip(gens, acts)):
            cand = []
            for i, arow in enumerate(act):
                row = [sum(map(mul, arow, col)) % N for col in cols]
                row[si * r + i] = (row[si * r + i] + 1) % N
                cand.append(tuple(row))
            g = s * h
            have = coeff.get(g)
            if have is None:
                coeff[g] = tuple(cand)
                frontier.append(g)
            else:
                for x, y in zip(cand, have):
                    if x != y:
                        rows.add(tuple((a - b) % N for a, b in zip(x, y)))
    if len(coeff) != len(group):
        raise AssertionError("generator propagation failed to reach the whole group")
    return coeff, rows


def _cut_out(rows, dim: int, ctx: ModulusContext) -> Submodule:
    """The vectors of M^k killed by every row: the kernel of the stacked rows."""
    return kernel(ResidueMatrix(len(rows), dim, tuple(itertools.chain.from_iterable(rows)), ctx))


def _row(terms, dim: int, N: int) -> tuple:
    """The sum of a . coeff[g] over the (a, coeff[g]) terms, a row on M^k."""
    acc = [0] * dim
    for a, m in terms:
        for ai, mrow in zip(a, m):
            if ai:
                acc = [x + ai * y for x, y in zip(acc, mrow)]
    return tuple(x % N for x in acc)


def _coboundary_span(elements, action: ModuleAction) -> Submodule:
    """Span of the tables g -> g.e_j - e_j over the listed elements."""
    r = action.rank
    N = action.ctx.modulus
    tables = []
    for j in range(r):
        basis = tuple(1 if i == j else 0 for i in range(r))
        flat = []
        for g in elements:
            moved = action.apply(g, basis)
            flat.extend((moved.entries[i] - basis[i]) % N for i in range(r))
        tables.append(flat)
    return Submodule.span(tables, r * len(elements), action.ctx)


def _engine(group: MatGroup, action: ModuleAction):
    """(coeff, constraint rows, Z^1, B^1), the spaces in generator coordinates.

    B^1 is spanned by the coboundaries of the basis vectors e_j, whose
    values at the generators s are (s - I) e_j.
    """
    coeff, rows = _propagate(group, action)
    dim = action.rank * len(group.generating_set)
    return coeff, rows, _cut_out(rows, dim, action.ctx), _coboundary_span(group.generating_set, action)


def _locally_trivial(group: MatGroup, action: ModuleAction, coeff, rows) -> Submodule:
    """L in generator coordinates: Z^1 cut by a . coeff[g] for a in Ann(Im(g - I))."""
    r = action.rank
    dim = r * len(group.generating_set)
    N = action.ctx.modulus
    local = set()
    for g in group.elements:
        diff = action.act_minus_identity(g)
        cols = [[diff.entries[i * r + j] for i in range(r)] for j in range(r)]
        for a in annihilator(Submodule.span(cols, r, action.ctx)).generators:
            row = _row([(a.entries, coeff[g])], dim, N)
            if any(row):
                local.add(row)
    return _cut_out(rows | local, dim, action.ctx)


def _tables(group: MatGroup, action: ModuleAction, coeff, sub: Submodule) -> Submodule:
    """A submodule of M^k carried to value tables, a submodule of M^|G|."""
    N = action.ctx.modulus
    tables = [
        [sum(map(mul, crow, z.entries)) % N for g in group.elements for crow in coeff[g]]
        for z in sub.generators
    ]
    return Submodule.span(tables, action.rank * len(group), action.ctx)


def cocycle_space(group: MatGroup, action: Optional[ModuleAction] = None) -> Submodule:
    """Z^1(G, M) as a submodule of M^|G| in canonical element order."""
    action = _action_for(group, action)
    coeff, _, z1, _ = _engine(group, action)
    return _tables(group, action, coeff, z1)


def coboundary_space(group: MatGroup, action: Optional[ModuleAction] = None) -> Submodule:
    """B^1(G, M): tables of g -> g.v - v as v runs over the module."""
    return _coboundary_span(group.elements, _action_for(group, action))


def coboundary_of(group: MatGroup, v, action: Optional[ModuleAction] = None) -> Cocycle:
    """The coboundary cocycle g -> g.v - v."""
    action = _action_for(group, action)
    N = action.ctx.modulus
    vals = []
    for g in group.elements:
        moved = action.apply(g, tuple(v))
        vals.append(tuple((moved.entries[i] - v[i]) % N for i in range(action.rank)))
    return Cocycle(group, action, tuple(vals))


def locally_trivial_subspace(group: MatGroup, action: Optional[ModuleAction] = None) -> Submodule:
    """L = { Z in Z^1 : Z_g in Im(g - I) for every g }; B^1 <= L <= Z^1."""
    action = _action_for(group, action)
    coeff, rows, _, _ = _engine(group, action)
    return _tables(group, action, coeff, _locally_trivial(group, action, coeff, rows))


def h1(group: MatGroup, action: Optional[ModuleAction] = None) -> list:
    """Invariant factors of Z^1 / B^1."""
    _, _, z1, b1 = _engine(group, _action_for(group, action))
    return quotient_invariants(z1, b1)


def h1_loc(group: MatGroup, action: Optional[ModuleAction] = None) -> CohomologyReport:
    """Invariant factors of L / B^1 with explicit witness cocycles.

    The witnesses come from value tables: the quotient of the table form of
    L by coboundary_space, each generator reduced modulo B^1.
    """
    action = _action_for(group, action)
    coeff, rows, z1, b1 = _engine(group, action)
    zero = Submodule.zero(z1.ambient_rank, action.ctx)
    z1_inv = tuple(quotient_invariants(z1, zero))
    b1_inv = tuple(quotient_invariants(b1, zero))
    h1_inv = tuple(quotient_invariants(z1, b1))
    # B^1 <= L <= Z^1 collapses when H^1 vanishes, no need to compute L
    loc = _locally_trivial(group, action, coeff, rows) if h1_inv else None
    if loc is None or not quotient_invariants(loc, b1):
        return CohomologyReport(z1_inv, b1_inv, h1_inv, (), ())
    b1_full = coboundary_space(group, action)
    loc_inv, raw_wits = quotient_decomposition(_tables(group, action, coeff, loc), b1_full)
    witnesses = []
    for w in raw_wits:
        reduced = b1_full.coset_reduce(w.entries)
        zc = Cocycle.from_flat(group, action, reduced.entries)
        if not is_locally_trivial(zc):
            raise AssertionError("witness lost local triviality under reduction")
        if is_coboundary(zc) is not None:
            raise AssertionError("witness reduced to a coboundary")
        witnesses.append(zc)
    return CohomologyReport(z1_inv, b1_inv, h1_inv, tuple(loc_inv), tuple(witnesses))


def h1_loc_via_restrictions(group: MatGroup, action: Optional[ModuleAction] = None) -> list:
    """H^1_loc computed literally as the intersection of restriction kernels.

    For each cyclic subgroup C, a cocycle restricts to a table on C; the
    class dies in H^1(C) iff that table lies in B^1(C), i.e. iff every
    annihilator vector of B^1(C) kills it. Those rows are cut out of the
    cocycle space and the result is reduced modulo B^1(G). Independent of
    the elementwise membership path.
    """
    action = _action_for(group, action)
    coeff, rows, _, b1 = _engine(group, action)
    r = action.rank
    dim = b1.ambient_rank
    N = action.ctx.modulus
    restricted = set()
    for cyc in cyclic_subgroups(group):
        for a in annihilator(coboundary_space(cyc, action)).generators:
            row = _row(
                ((a.entries[i * r : (i + 1) * r], coeff[h]) for i, h in enumerate(cyc.elements)), dim, N
            )
            if any(row):
                restricted.add(row)
    return quotient_invariants(_cut_out(rows | restricted, dim, action.ctx), b1)


# ---------------------------------------------------------------------------
# pointwise tests and maps
# ---------------------------------------------------------------------------


def is_cocycle(z: Cocycle, exhaustive: bool = False) -> bool:
    """Check the relation Z_{gh} = Z_g + g.Z_h.

    The default checks all pairs (s, h) with s a generator, which implies
    the full relation; exhaustive=True checks every pair literally.
    """
    group, action = z.group, z.action
    N = action.ctx.modulus
    firsts = group.elements if exhaustive else group.generating_set
    for s in firsts:
        rows = action.act_rows(s)
        zs = z.values[group._index[s]]
        for h in group.elements:
            zh = z.values[group._index[h]]
            want = tuple(
                (zs[i] + sum(rows[i][t] * zh[t] for t in range(action.rank))) % N
                for i in range(action.rank)
            )
            if z.values[group._index[s * h]] != want:
                return False
    return True


def is_coboundary(z: Cocycle) -> Optional[ResidueVector]:
    """A vector v with Z_g = g.v - v for all g, or None."""
    action = z.action
    r = action.rank
    rows = []
    rhs = []
    for g in z.group.elements:
        diff = action.act_minus_identity(g)
        for i in range(r):
            rows.append([diff.entries[i * r + j] for j in range(r)])
        rhs.extend(z.values[z.group._index[g]])
    m = ResidueMatrix.from_rows(rows, action.ctx, cols=r)
    return solve_linear(m, ResidueVector(tuple(rhs), action.ctx))


def is_locally_trivial(z: Cocycle) -> bool:
    """Whether each single value Z_g lies in the image of g - I."""
    action = z.action
    for g in z.group.elements:
        diff = action.act_minus_identity(g)
        if not image_contains(diff, z.value_of(g)):
            return False
    return True


def restriction(z: Cocycle, subgroup: MatGroup) -> Cocycle:
    """Values of z re-indexed to a subgroup's canonical order."""
    for h in subgroup.elements:
        if h not in z.group:
            raise NotASubgroup("restriction target contains elements outside the group")
    vals = tuple(z.values[z.group._index[h]] for h in subgroup.elements)
    return Cocycle(subgroup, z.action, vals)


def pointwise_stabilizer(group: MatGroup, action: Optional[ModuleAction] = None) -> MatGroup:
    """Elements acting as the identity on the module."""
    action = _action_for(group, action)
    r = action.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))
    elems = tuple(g for g in group.elements if action.act_rows(g) == ident)
    return MatGroup(elems, group.ctx)


def action_image(group: MatGroup, action: Optional[ModuleAction] = None):
    """The faithful quotient through which the action factors.

    Returns (image group, its action on the same module, projection dict).
    For the standard rank-2 action this is entrywise reduction to the
    module's level; for a line action it is the group of diag(u, 1) with u
    the acting diagonal entry.
    """
    action = _action_for(group, action)
    ctx_m = action.ctx
    proj = {}
    if action.rank == 2:
        for g in group.elements:
            proj[g] = g.reduce_to(ctx_m.n)
        image_action = ModuleAction.standard(ctx_m)
    else:
        for g in group.elements:
            u = action.act_rows(g)[0][0]
            proj[g] = Mat2(u, 0, 0, 1, ctx_m)
        image_action = ModuleAction.line_of(ctx_m, 0)
    q = MatGroup(tuple(set(proj.values())), ctx_m)
    return q, image_action, proj


def inflation(
    y: Cocycle,
    group: MatGroup,
    stabilizer: MatGroup,
    action: Optional[ModuleAction] = None,
) -> Cocycle:
    """Pull a cocycle on the faithful quotient back to the full group.

    The value at g is the value of y at the image of g; requires the given
    stabilizer to be exactly the kernel of the action.
    """
    action = _action_for(group, action)
    actual = pointwise_stabilizer(group, action)
    if stabilizer != actual:
        raise StabilizerMismatch(
            f"given stabilizer has order {len(stabilizer)}, the pointwise stabilizer has order {len(actual)}"
        )
    q, image_action, proj = action_image(group, action)
    if y.group != q or y.action != image_action:
        raise StabilizerMismatch("cocycle is not defined on the faithful quotient of this action")
    vals = tuple(y.values[q._index[proj[g]]] for g in group.elements)
    return Cocycle(group, action, vals)


# ---------------------------------------------------------------------------
# normal form for locally trivial cocycles
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str):
    if not cond:
        raise HypothesisViolated(message)


def normalize_locally_trivial_cocycle(z: Cocycle, rho: Mat2, parts) -> Cocycle:
    """Shift a locally trivial cocycle to the triangular normal form.

    Under the hypotheses (rho diagonal in the group, first entry 1, order
    at least 3; group generated by its diagonal and strictly-unipotent
    parts), subtracting the coboundary that kills the diagonal restriction
    leaves a cohomologous cocycle vanishing on the subgroup generated by
    the diagonal and upper parts, whose value on the normalized lower
    generator [[1,0],[p^j,1]] is (0, p^j * beta). Every step is verified
    and a failed step reports which hypothesis it contradicts.
    """
    group, action = z.group, z.action
    _require(action.rank == 2 and action.ctx == group.ctx, "normal form needs the full rank-2 module")
    _require(is_cocycle(z), "value table violates the cocycle relation")
    _require(is_locally_trivial(z), "cocycle is not locally trivial")
    _require(rho in group, "diagonal element does not belong to the group")
    _require(rho.is_diagonal(), "distinguished element is not diagonal")
    _require(rho.a == 1, "first diagonal entry is not 1")
    _require(rho.order() >= 3, f"diagonal element has order {rho.order()} < 3")
    diag, s_upper, s_lower = parts
    d0, u0, l0 = special_subgroups(group)
    _require(
        (diag, s_upper, s_lower) == (d0, u0, l0),
        "parts are not the group's diagonal and strictly-unipotent subgroups",
    )
    regen = close_group(
        [g for g in itertools.chain(diag, s_upper, s_lower)], group.ctx, cap=len(group) + 1
    )
    _require(regen == group, "group is not generated by its diagonal and unipotent parts")

    q_wit = is_coboundary(restriction(z, diag))
    _require(q_wit is not None, "restriction to the diagonal part is not a coboundary")
    shifted = z.sub(coboundary_of(group, q_wit.entries, action))

    h_lower = close_group([rho] + list(s_lower.elements), group.ctx, cap=len(group) + 1)
    h_upper = close_group([rho] + list(s_upper.elements), group.ctx, cap=len(group) + 1)
    p_wit = is_coboundary(restriction(shifted, h_lower))
    _require(p_wit is not None, "restriction to the lower-triangular part is not a coboundary")
    _require(
        is_coboundary(restriction(shifted, h_upper)) is not None,
        "restriction to the upper-triangular part is not a coboundary",
    )

    upper_part = close_group(
        [g for g in itertools.chain(diag, s_upper)], group.ctx, cap=len(group) + 1
    )
    for g in upper_part:
        _require(
            shifted.value_of(g).is_zero(),
            "normalized cocycle fails to vanish on the diagonal-upper subgroup",
        )

    if len(s_lower) > 1:
        ctx = group.ctx
        gen = min(
            (g for g in s_lower if g.order() == len(s_lower)),
            key=lambda g: ctx.valuation(g.c),
        )
        j = ctx.valuation(gen.c)
        unit = gen.c // (ctx.p**j)
        tau = gen.pow(unit_inverse(unit % ctx.p ** (ctx.n - j), ModulusContext(ctx.p, ctx.n - j)))
        if tau.c != ctx.p**j:
            raise AssertionError("lower generator normalization failed")
        val = shifted.value_of(tau)
        beta = p_wit.entries[0]
        expect = (0, ctx.p**j * beta % ctx.modulus)
        _require(
            tuple(val) == expect,
            "value at the lower generator is not (0, p^j * beta)",
        )
    else:
        _require(shifted.is_zero(), "cocycle should vanish when the lower part is trivial")
    return shifted
