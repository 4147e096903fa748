"""First cohomology of matrix groups acting on finite modules over Z/p^nZ.

A cocycle is fixed by its values on a generating set of k elements, so the
engine works in generator coordinates M^k. Propagating the cocycle relation
in right-multiplication form, Z_{hs} = Z_h + h.Z_s, from the identity
writes the value at every g as a matrix coeff[g] applied to the generator
values, and every revisit of an element gives constraint rows. The
relations at (h, s) with s a generator imply the full relation, so Z1 is
the kernel of those rows; B1 is spanned by the generator values
(s - I)e_j of the coboundaries. The walk is breadth first on element
codes: it multiplies the nodes it has reached but not expanded by each
generator in one batch (matgrp._Right), so it forms only the products it
expands. It holds each coeff[g] as one int of fixed-width slots, SIMD
within a register (Lamport, "Multiple byte processing with full-word
instructions", CACM 1975): an edge adds one shifted int and reduces every
entry mod p^n at once with a carry mask. The columns of the constraint
rows go to the Z1 elimination as arrays of machine words.
B1 comes first, from the generators alone, and the walk stops early once
the kernel K_t of the constraints of its first t nodes lies in B1, K_t <=
B1: every cocycle meets every constraint, so B1 <= Z1 <= K_t, and K_t <=
B1 forces B1 = Z1 = K_t. The coefficients then finish the walk on first
read. cohomology_engine builds all this, and the locally trivial
subspace L below, once per group and action, the one place the two are
given: h1, h1_loc, h1loc_witnesses, h1_loc_via_restrictions,
cocycle_space and locally_trivial_subspace each take its Engine alone.
h1, h1_loc and h1_loc_via_restrictions read every invariant factor off a
quotient of submodules of M^k, from the orders of Howell spans
(zmod.quotient_invariants).

The locally trivial subspace is computed in two independent ways, each a
kernel of more rows on M^k stacked onto the annihilator of Z1. Both visit
one maximal cyclic subgroup per conjugacy class of G, which loses nothing
by three exact facts:

- if Z_g = (g - I)v, then Z_{g^u} = (g^u - I)v for every u;
- the restriction of a coboundary to a subgroup is a coboundary;
- with w = t^-1 Z_t, the cocycle relation gives
  Z_{tct^-1} = t (Z_c - (c - I) w), so Z restricted to C is a coboundary
  iff it is on tCt^-1, and Z_g lies in Im(g - I) iff Z_{tgt^-1} lies in
  Im(tgt^-1 - I).

Every element lies in some maximal cyclic subgroup, and every maximal
cyclic subgroup is conjugate to a representative
(MatGroup._class_representatives), so

- L (h1_loc) collects the cocycles whose value at every single element g
  lies in the image of g - I, one annihilator of Im(g - I) per
  representative, at its least generator g;
- the restriction path (h1_loc_via_restrictions) takes, per representative
  C, the kernel of the matrix with a block [coeff[h] | h - I] for each
  h in C: the pairs (x, v) whose restricted table is the coboundary of -v
  on all of C. The annihilator of its projection onto x gives the rows.
  Its size is r|C| x (kr + r), linear in |C|, and each C costs two
  eliminations.

For a cyclic group, a value in the image of g - I at its generator g is
exactly coboundary-ness on <g>, so the two agree; the cross-check is that
they are computed independently.

Value tables, one module element per group element in canonical order, are
built only for the public cocycle_space and locally_trivial_subspace, and
for the witnesses of a nonzero L/B1, as combinations of the packed columns
of coeff (_tables); coboundary_space spans its tables from every element,
apart from the engine. Only _tables, L and the restriction path read
coeff, which stays packed until then. The report of h1_loc holds the four
invariant lists alone; h1loc_witnesses builds the witnesses on request:
the Smith reduction of the table form of L/B1 (zmod.quotient_decomposition),
whose invariants must equal those found in M^k, and the self-checks. A
witness is checked by solves of generator size and walks through the
maximal cyclic subgroups <g>, which cover G: is_coboundary solves on the
generating set and compares Z with the coboundary, which coboundary_of
forms by w <- g.w; is_locally_trivial solves Z_g = (g - I)v once per <g>
and runs w <- g.w + Z_g through (g^u - I)v, which Z_{g^u} equals for a
cocycle by the first fact. Values left unproven, only in a non-cocycle,
are tested alone.
"""

from __future__ import annotations

import functools
import itertools
from operator import lshift, mul
from typing import NamedTuple, Optional

from .errors import HypothesisViolated, NotASubgroup, StabilizerMismatch
from .matgrp import Mat2, MatGroup, _code, _entries, _key, _Right, close_group, special_subgroups
from .zmod import (
    ModulusContext,
    Submodule,
    _layout,
    _left_kernel,
    _pack,
    _read_only,
    _slots,
    _words,
    annihilator,
    kernel,
    quotient_decomposition,
    quotient_invariants,
    solve_linear,
    unit_inverse,
)


class ModuleAction:
    """How a matrix group acts on a finite module.

    rank 2: the standard action of the matrices on (Z/p^m)^2, entries
    reduced from level n to level m <= n. rank 1: the action on one of the
    two coordinate lines, defined for diagonal matrices only; the matrix
    acts by its corresponding diagonal entry.
    """

    __slots__ = ("ctx", "rank", "coord")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, ctx: ModulusContext, rank: int, coord: int = 0) -> None:
        if rank not in (1, 2):
            raise ValueError("rank must be 1 or 2")
        if coord not in (0, 1):
            raise ValueError("coord must be 0 or 1")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "coord", coord)

    def __eq__(self, other) -> bool:
        if other.__class__ is not ModuleAction:
            return NotImplemented
        return (self.ctx, self.rank, self.coord) == (other.ctx, other.rank, other.coord)

    def __hash__(self) -> int:
        return hash((self.ctx, self.rank, self.coord))

    def __repr__(self) -> str:
        return f"ModuleAction(ctx={self.ctx!r}, rank={self.rank!r}, coord={self.coord!r})"

    def __reduce__(self):
        return ModuleAction, (self.ctx, self.rank, self.coord)

    @classmethod
    def standard(cls, ctx: ModulusContext) -> "ModuleAction":
        return cls(ctx, 2)

    @classmethod
    def line_of(cls, ctx: ModulusContext, coord: int) -> "ModuleAction":
        return cls(ctx, 1, coord)

    def _check_group(self, group: MatGroup):
        """Raise ValueError unless the group lives over the module's prime at
        a level at least the module's. This runs once, where an action meets
        a group (_action_for, Cocycle); act_rows trusts its argument."""
        if group.ctx.p != self.ctx.p:
            raise ValueError("module and group live over different primes")
        if self.ctx.n > group.ctx.n:
            raise ValueError("module level exceeds the group's level")

    def act_rows(self, g: Mat2) -> tuple:
        """Matrix of the action of g, as rows over the module's modulus."""
        return self._act_entries(_key(g))

    def _act_entries(self, entries: tuple) -> tuple:
        """act_rows of the matrix with entries (a, b, c, d)."""
        a, b, c, d = entries
        N = self.ctx.modulus
        if self.rank == 2:
            return ((a % N, b % N), (c % N, d % N))
        if b % N or c % N:
            raise ValueError("line actions are defined for diagonal matrices only")
        return (((a if self.coord == 0 else d) % N,),)


def _action_for(group: MatGroup, action: Optional[ModuleAction]) -> ModuleAction:
    """The given action, checked against the group, or the standard action."""
    if action is None:
        return ModuleAction.standard(group.ctx)
    action._check_group(group)
    return action


class Cocycle:
    """A 1-cocycle: a module value per group element, in canonical order."""

    __slots__ = ("group", "action", "values")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, group: MatGroup, action: ModuleAction, values: tuple) -> None:
        if len(values) != len(group):
            raise ValueError("need one value per group element")
        action._check_group(group)
        N = action.ctx.modulus
        values = tuple(tuple(e % N for e in v) for v in values)
        if any(len(v) != action.rank for v in values):
            raise ValueError("value rank does not match the module rank")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "values", values)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Cocycle:
            return NotImplemented
        return (self.group, self.action, self.values) == (other.group, other.action, other.values)

    def __hash__(self) -> int:
        return hash((self.group, self.action, self.values))

    def __repr__(self) -> str:
        return f"Cocycle(group={self.group!r}, action={self.action!r}, values={self.values!r})"

    def __reduce__(self):
        return Cocycle, (self.group, self.action, self.values)

    @classmethod
    def zero(cls, group: MatGroup, action: Optional[ModuleAction] = None) -> "Cocycle":
        action = _action_for(group, action)
        return cls(group, action, ((0,) * action.rank,) * len(group))

    @classmethod
    def from_flat(cls, group: MatGroup, action: ModuleAction, flat) -> "Cocycle":
        r = action.rank
        if len(flat) != r * len(group):
            raise ValueError(f"need {r * len(group)} flat values, rank times the group order, got {len(flat)}")
        vals = tuple(tuple(flat[i * r : (i + 1) * r]) for i in range(len(group)))
        return cls(group, action, vals)

    def value_of(self, g: Mat2) -> tuple:
        return self.values[self.group.position(g)]

    def flatten(self) -> tuple:
        return tuple(itertools.chain.from_iterable(self.values))

    def add(self, other: "Cocycle") -> "Cocycle":
        if (other.group, other.action) != (self.group, self.action):
            raise ValueError("the cocycles are on different groups or actions")
        N = self.action.ctx.modulus
        vals = tuple(
            tuple((a + b) % N for a, b in zip(v, w)) for v, w in zip(self.values, other.values)
        )
        return Cocycle(self.group, self.action, vals)

    def sub(self, other: "Cocycle") -> "Cocycle":
        return self.add(other.scale(-1))

    def scale(self, k: int) -> "Cocycle":
        N = self.action.ctx.modulus
        return Cocycle(self.group, self.action, tuple(tuple(k * e % N for e in v) for v in self.values))

    def is_zero(self) -> bool:
        return all(all(e == 0 for e in v) for v in self.values)


class CohomologyReport(NamedTuple):
    """Invariant factors of Z^1, B^1, H^1 and L/B^1; h1loc_witnesses
    builds the cocycles behind the last on request."""

    z1_invariants: tuple
    b1_invariants: tuple
    h1_invariants: tuple
    h1loc_invariants: tuple

    def to_json_dict(self) -> dict:
        return {
            "z1": list(self.z1_invariants),
            "b1": list(self.b1_invariants),
            "h1": list(self.h1_invariants),
            "h1loc": list(self.h1loc_invariants),
        }


# ---------------------------------------------------------------------------
# the linear spaces, in generator coordinates
# ---------------------------------------------------------------------------


def _slot_width(N: int) -> int:
    """The narrowest slot that holds N.bit_length() + 2 <= 34 bits: 8, 16, 32 or 64."""
    return next(width for width in (8, 16, 32, 64) if width >= N.bit_length() + 2)


# _propagate checks for Z^1 = B^1 after _FIRST_CHECK nodes of the walk and
# after each doubling of that count while it is at most |G| / _CHECK_SHARE.
_FIRST_CHECK = 16
_CHECK_SHARE = 8


def _propagate(group: MatGroup, action: ModuleAction, b1: Submodule):
    """Coefficient matrices coeff[h] and Z^1, from the constraints of the walk.

    A cocycle is determined by its values on the generating set S, stacked
    into one vector x in M^k. Starting from value 0 at the identity, the
    relation in right-multiplication form, Z_{hs} = Z_h + h.Z_s, gives the
    value at h*s_i as coeff[h] x with act(h) added into block i, so the
    value at every element is coeff[h] x for an r x rk matrix coeff[h].
    The walk goes breadth first from the identity and forms the products
    h*s_i of its frontier itself, on codes (_Coefficients.walk), so a walk
    that stops early multiplies only the nodes it expanded. Each revisit
    of an already-valued element g yields the constraint
    coeff[h] x + act(h) x_i = coeff[g] x, one row per row of the
    difference. Every pair (h, s) with s in S is visited, and those
    relations imply the full relation Z_{hg} = Z_h + h.Z_g by induction on
    the length of g as a word in S:
    Z_{h(gs)} = Z_{hg} + hg.Z_s = Z_h + h.(Z_g + g.Z_s) = Z_h + h.Z_{gs}.
    So Z^1 is the kernel of the rows.

    Each check takes the kernel K of the rows so far as the left kernel of
    their rk columns, as kernel() would find it from the transpose, and
    the walk stops once K <= B^1, which forces Z^1 = B^1 = K (module
    docstring): every generator of K lies in B^1. The checks come at the
    node counts of _FIRST_CHECK, so they cost a small share of a walk that
    never stops; the last one follows the whole walk, and its K is Z^1.

    Returns (coeff, z1): coeff as packed _Coefficients, z1 as a submodule
    of M^k.
    """
    coeff = _Coefficients(group, action)
    rk, ctx = coeff.rk, action.ctx
    row_mask = (1 << 8 * coeff.size * rk) - 1
    row_shifts = [8 * coeff.size * rk * a for a in range(coeff.r)]
    differences, done = set(), _FIRST_CHECK
    while True:
        last = _CHECK_SHARE * done > len(group)
        coeff.walk(len(group) if last else done, differences)
        # the rk columns of the distinct nonzero constraint rows, as arrays
        # of words: each difference is cut into its r rows of rk slots
        rows = {(d >> shift) & row_mask for d in differences for shift in row_shifts}
        rows.discard(0)
        words = _words(list(rows), rk, coeff.size)
        raw = _left_kernel([words[j::rk] for j in range(rk)], len(rows), ctx)
        if last:
            return coeff, Submodule.span(raw, rk, ctx)
        if all(map(b1.contains, raw)):
            return coeff, b1
        done *= 2


class _Coefficients:
    """The matrices coeff[h] of the walk by element code, each one packed
    int of r x rk slots, cut into r row tuples only when read. A walk that
    _propagate stopped early is finished on the first read of packed.

    Each matrix is packed into one int, entry (a, j) in slot a * rk + j of
    a width-bit slot (_slot_width), so an edge costs one add of act(h),
    packed the same way, shifted to block i. Every slot then holds less
    than 2N, and one carry mask reduces all of them at once: adding
    2^(width-1) - N sets the top bit of a slot exactly when it holds at
    least N, and since N < 2^(width-2) the sum stays below 2^width and
    never carries into the next slot, so subtracting N times those top
    bits shifted to the slot bottoms leaves every slot in [0, N). A
    difference is formed as x + N*ones - have, whose slots lie in
    (0, 2N) with no borrow between them, and reduced the same way.
    """

    def __init__(self, group: MatGroup, action: ModuleAction):
        self.group, self.action = group, action
        self.r, self.rk = action.rank, action.rank * len(group.generating_set)
        self.size = _slot_width(action.ctx.modulus) // 8
        G = group.ctx.modulus
        self._times = [_Right(_code(_key(s), G), G) for s in group.generating_set]
        start = _code((1, 0, 0, 1), G)
        self._coeff, self._order, self.done = {start: 0}, [start], 0

    @functools.cached_property
    def packed(self) -> list:
        """coeff[h] of every element in canonical order, once the walk is
        done; the walk's own state is dropped then, and done kept."""
        self.walk(len(self.group))
        packed = list(map(self._coeff.__getitem__, self.group.codes))
        del self._coeff, self._order, self._times
        return packed

    def walk(self, stop: int, differences: Optional[set] = None):
        """Expand the nodes of the breadth-first walk up to number stop, in
        the order they were reached; with a set, add to it the packed
        difference of every revisit that disagrees. Breadth first keeps the
        tree shallow and its revisits few. The unexpanded nodes
        order[done:stop] are multiplied by each generator in one batch."""
        group, action = self.group, self.action
        r, rk = self.r, self.rk
        N = action.ctx.modulus
        width = 8 * self.size
        top = width - 1
        ones = ((1 << width * r * rk) - 1) // ((1 << width) - 1)
        bias = ones * ((1 << top) - N)
        lift = ones * N
        place = [width * (a * rk + b) for a in range(r) for b in range(r)]
        shifts = [width * r * i for i in range(len(self._times))]
        G = group.ctx.modulus
        coeff, order = self._coeff, self._order

        def packed(entries: tuple) -> int:
            return sum(map(lshift, itertools.chain.from_iterable(action._act_entries(entries)), place))

        # act(h) packed. When rows repeat (|G| > 2 G^2), it is the sum of the
        # packed actions of the two rows of h, each cached by its row code (a
        # code is top_row * G^2 + bottom_row, a row code x * G + y; see
        # matgrp._code): the action reduces each entry on its own.
        by_rows = len(group) > 2 * G * G
        upper = functools.cache(lambda row: packed((*divmod(row, G), 0, 0)))
        lower = functools.cache(lambda row: packed((0, 0, *divmod(row, G))))
        while self.done < min(stop, len(order)):
            chunk = order[self.done : stop]
            self.done += len(chunk)
            for h, products in zip(chunk, zip(*[times(chunk) for times in self._times])):
                base = coeff[h]
                top_row, bottom_row = divmod(h, G * G)
                if by_rows:
                    act = upper(top_row) + lower(bottom_row)
                else:
                    act = packed((*divmod(top_row, G), *divmod(bottom_row, G)))
                for g, shift in zip(products, shifts):
                    x = base + (act << shift)
                    x -= (((x + bias) >> top) & ones) * N
                    have = coeff.get(g)
                    if have is None:
                        coeff[g] = x
                        order.append(g)
                    elif x != have and differences is not None:
                        x += lift - have
                        differences.add(x - (((x + bias) >> top) & ones) * N)
        # done == len(order) means every reached node is expanded
        if self.done == len(order) < len(group):
            raise AssertionError("generator propagation failed to reach the whole group")

    def at(self, indices) -> list:
        """The matrices of the listed elements, unpacked together."""
        r, rk, coeff = self.r, self.rk, self.packed
        packed = [coeff[h] for h in indices]
        flat = _words(packed, r * rk, self.size).tolist()
        rows = [tuple(flat[i * rk : i * rk + rk]) for i in range(len(packed) * r)]
        return list(zip(*[iter(rows)] * r))


def _minus_identity(action: ModuleAction, entries: tuple) -> list:
    """Rows of g - I on the module, for g with entries (a, b, c, d)."""
    N = action.ctx.modulus
    return [[(e - (i == j)) % N for j, e in enumerate(row)] for i, row in enumerate(action._act_entries(entries))]


def _all_entries(group: MatGroup) -> list:
    """The entries (a, b, c, d) of every element, in canonical order."""
    N = group.ctx.modulus
    return [_entries(c, N) for c in group.codes]


def _coboundary_span(entries, action: ModuleAction) -> Submodule:
    """Span of the tables g -> (g - I)e_j over the listed entries: table j
    lists column j of every g - I."""
    diffs = [_minus_identity(action, x) for x in entries]
    tables = [[row[j] for d in diffs for row in d] for j in range(action.rank)]
    return Submodule.span(tables, action.rank * len(diffs), action.ctx)


class Engine(NamedTuple):
    """The spaces of one group and action in generator coordinates.

    coeff comes from propagating the cocycle relation, packed until read,
    with coeff[i] the matrix of group.elements[i]; when the walk stopped
    early because Z^1 = B^1, coeff finishes it on first read. z1 and b1
    are Z^1 and B^1 as submodules of M^k. rows generate the annihilator of
    Z^1, at most kr of them: since annihilators are reflexive, their kernel
    is Z^1, so a subspace of Z^1 is cut out by stacking further rows onto
    these. loc is the locally trivial subspace L, B^1 <= L <= Z^1, cut out
    once (_locally_trivial), and b1 itself when Z^1 = B^1. Build one per
    group and action with cohomology_engine; h1, h1_loc, h1loc_witnesses,
    h1_loc_via_restrictions, cocycle_space and locally_trivial_subspace
    each take it as their one argument, so every answer about the pair
    shares one walk and one L.
    """

    group: MatGroup
    action: ModuleAction
    coeff: _Coefficients
    rows: tuple
    z1: Submodule
    b1: Submodule
    loc: Submodule


def cohomology_engine(group: MatGroup, action: Optional[ModuleAction] = None) -> Engine:
    """Cut out B^1, then propagate to cut out Z^1, then L, in generator
    coordinates.

    B^1 is spanned by the coboundaries of the basis vectors e_j, whose
    values at the generators s are (s - I) e_j. Its order is what lets
    the walk stop early (_propagate). B^1 <= L <= Z^1 collapses when
    Z^1 = B^1, and then L is not cut out.
    """
    action = _action_for(group, action)
    b1 = _coboundary_span(map(_key, group.generating_set), action)
    coeff, z1 = _propagate(group, action, b1)
    engine = Engine(group, action, coeff, annihilator(z1).generators, z1, b1, b1)
    return engine if z1 == b1 else engine._replace(loc=_locally_trivial(engine))


def _locally_trivial(engine: Engine) -> Submodule:
    """L in generator coordinates: the cocycles with Z_g in Im(g - I) for all g.

    By the three facts of the module docstring, the least generator g of
    each class representative is enough. The rows a . coeff[g], for a in
    the annihilator of Im(g - I), cut L out of Z^1, whose annihilator is rows.
    """
    group, action = engine.group, engine.action
    N, G = action.ctx.modulus, group.ctx.modulus
    local = set()
    reps = [powers[0] for powers in group._class_representatives]
    for g, m in zip(reps, engine.coeff.at(reps)):
        # Ann(Im(g - I)) is the left kernel of g - I
        for a in _left_kernel(_minus_identity(action, _entries(group.codes[g], G)), action.rank, action.ctx):
            # the row a . coeff[g] on M^k
            row = tuple(sum(map(mul, a, col)) % N for col in zip(*m))
            if any(row):
                local.add(row)
    return kernel([*engine.rows, *local], engine.z1.ambient_rank, action.ctx)


def _tables(engine: Engine, sub: Submodule) -> Submodule:
    """A submodule of M^k carried to value tables in M^|G|: the table of z
    is sum_j z_j col_j over the rk columns of the stacked coeff[h], each
    packed into one int of r|G| slots of zmod._layout. The Barrett
    reduction after each term is exact: every slot is below N + (N-1)^2 < N^2.
    """
    coeff, ctx = engine.coeff, engine.action.ctx
    N, count = ctx.modulus, coeff.r * len(engine.group)
    lay = _layout(N, count)
    _, size, s, m, qmask = lay[:5]
    words = _words(coeff.packed, coeff.r * coeff.rk, coeff.size)
    columns = [_pack(words[j :: coeff.rk], lay) for j in range(coeff.rk)]
    tables = []
    for z in sub.generators:
        x = 0
        for c, col in zip(z, columns):
            if c:
                x += c * col
                x -= ((x * m >> s) & qmask) * N
        tables.append(x)
    return Submodule.span(_slots(tables, size, count), count, ctx)


def cocycle_space(engine: Engine) -> Submodule:
    """Z^1(G, M) as a submodule of M^|G| in canonical element order."""
    return _tables(engine, engine.z1)


def coboundary_space(group: MatGroup, action: Optional[ModuleAction] = None) -> Submodule:
    """B^1(G, M): tables of g -> g.v - v as v runs over the module, spanned
    from every element without the engine."""
    return _coboundary_span(_all_entries(group), _action_for(group, action))


def coboundary_of(group: MatGroup, v, action: Optional[ModuleAction] = None) -> Cocycle:
    """The coboundary cocycle g -> g.v - v, with w <- g.w through each maximal <g>."""
    action = _action_for(group, action)
    N, G, codes, vals = action.ctx.modulus, group.ctx.modulus, group.codes, [None] * len(group)
    for powers in group._power_walk.maximal:
        act, w = action._act_entries(_entries(codes[powers[0]], G)), v
        for h in powers:
            w = tuple(sum(map(mul, row, w)) % N for row in act)
            vals[h] = tuple((a - b) % N for a, b in zip(w, v))
    return Cocycle(group, action, tuple(vals))


def locally_trivial_subspace(engine: Engine) -> Submodule:
    """L = { Z in Z^1 : Z_g in Im(g - I) for every g }; B^1 <= L <= Z^1."""
    return _tables(engine, engine.loc)


def h1(engine: Engine) -> list:
    """Invariant factors of Z^1 / B^1."""
    return quotient_invariants(engine.z1, engine.b1)


def h1_loc(engine: Engine) -> CohomologyReport:
    """Invariant factors of Z^1, B^1, H^1 = Z^1 / B^1 and L / B^1, each from
    a quotient of submodules of M^k."""
    z1, b1 = engine.z1, engine.b1
    zero = Submodule.zero(z1.ambient_rank, engine.action.ctx)
    pairs = ((z1, zero), (b1, zero), (z1, b1), (engine.loc, b1))
    return CohomologyReport(*(tuple(quotient_invariants(s, t)) for s, t in pairs))


def h1loc_witnesses(engine: Engine) -> tuple:
    """Witness cocycles of L / B^1, none when L = B^1, from value tables:
    the quotient of the table form of L by the table form of the engine's
    B^1, which spans the same submodule as coboundary_space, each generator
    reduced modulo B^1. Raises unless the table side finds the invariants
    of the generator side (h1_loc), and unless every witness is locally
    trivial and no coboundary."""
    if engine.loc == engine.b1:
        return ()
    b1_full = _tables(engine, engine.b1)
    table_inv, raw_wits = quotient_decomposition(_tables(engine, engine.loc), b1_full)
    loc_inv = quotient_invariants(engine.loc, engine.b1)
    if table_inv != loc_inv:
        raise AssertionError(f"value tables give L/B^1 invariants {table_inv}, generator coordinates {loc_inv}")
    witnesses = []
    for w in raw_wits:
        zc = Cocycle.from_flat(engine.group, engine.action, b1_full.coset_reduce(w))
        if not is_locally_trivial(zc):
            raise AssertionError("witness lost local triviality under reduction")
        if is_coboundary(zc) is not None:
            raise AssertionError("witness reduced to a coboundary")
        witnesses.append(zc)
    return tuple(witnesses)


def h1_loc_via_restrictions(engine: Engine) -> list:
    """H^1_loc computed literally as the intersection of restriction kernels.

    A cocycle with generator values x restricts to a coboundary on a cyclic
    subgroup C iff coeff[h] x = (h - I) v for every h in C and one v in M.
    By the three facts of the module docstring, one maximal C per conjugacy
    class of G suffices (MatGroup._class_representatives). Per C
    the pairs (x, -v) doing so form the kernel of the (r|C|) x (kr + r)
    matrix B with a block [coeff[h] | h - I] per h, found as the left
    kernel of B^T, which is built by columns; its projection P_C onto x is
    cut out by the annihilator of P_C, the left kernel of P_C^T, since
    annihilators are reflexive over Z/p^n. That is two eliminations per C.
    Those rows, stacked onto the annihilator of Z^1, give the intersection
    of the restriction kernels, reduced modulo B^1(G). The whole table on C
    is tested against the whole coboundary definition, never one value at a
    time, so this path stays independent of the elementwise membership
    test.
    """
    group, action, coeff, rows, z1, b1, _ = engine
    # B^1 <= L <= Z^1 collapses when H^1 vanishes, as in cohomology_engine
    if z1 == b1:
        return []
    dim = b1.ambient_rank
    ctx = action.ctx
    codes, G = group.codes, group.ctx.modulus
    restricted = set()
    for powers in group._class_representatives:
        xs = [crow for m in coeff.at(powers) for crow in m]
        vs = [vrow for h in powers for vrow in _minus_identity(action, _entries(codes[h], G))]
        pairs = _left_kernel([*zip(*xs), *zip(*vs)], len(xs), ctx)
        projection = [y[:dim] for y in pairs]
        ann = _left_kernel(list(zip(*projection)), len(projection), ctx)
        restricted.update(tuple(a) for a in ann if any(a))
    return quotient_invariants(kernel([*rows, *restricted], dim, ctx), b1)


# ---------------------------------------------------------------------------
# pointwise tests and maps
# ---------------------------------------------------------------------------


def is_cocycle(z: Cocycle) -> bool:
    """Check the relation Z_{gh} = Z_g + g.Z_h.

    It is checked on the pairs (s, h) with s a generator, or the identity
    when there is none. The pair (s, 1) gives s.Z_1 = 0, so Z_1 = 0, and
    then the full relation follows by induction on g as a word in the
    generators: Z_{gsh} = Z_g + g.Z_{sh} = Z_{gs} + gs.Z_h.
    """
    group, action = z.group, z.action
    N = action.ctx.modulus
    for s in group.generating_set or (group.identity,):
        rows = action.act_rows(s)
        zs = z.values[group.position(s)]
        for h, zh in zip(group.elements, z.values):
            want = tuple(
                (zs[i] + sum(rows[i][t] * zh[t] for t in range(action.rank))) % N
                for i in range(action.rank)
            )
            if z.values[group.position(s * h)] != want:
                return False
    return True


def is_coboundary(z: Cocycle) -> Optional[tuple]:
    """A vector v with Z_g = g.v - v for all g, or None: a solution of
    (s - I)v = Z_s on the generating set, kr x r, that matches Z at every
    element. Solutions differ by vectors the group fixes, whose coboundary
    is 0, so this is exact for any table, a cocycle or not."""
    group, action = z.group, z.action
    gens = group.generating_set
    rows = [row for s in gens for row in _minus_identity(action, _key(s))]
    v = solve_linear(rows, action.rank, [e for s in gens for e in z.value_of(s)], action.ctx)
    return v if v is not None and coboundary_of(group, v, action).values == z.values else None


def is_locally_trivial(z: Cocycle) -> bool:
    """Whether each single value Z_g lies in the image of g - I: one solve
    Z_g = (g - I)v per maximal cyclic subgroup <g>, then w <- g.w + Z_g runs
    through (g^u - I)v and proves each power with Z_{g^u} = w. An element no
    power proves, only possible in a table not a cocycle, is tested alone."""
    group, action, values = z.group, z.action, z.values
    N, G, r, codes = action.ctx.modulus, group.ctx.modulus, action.rank, group.codes
    proven = bytearray(len(values))
    for powers in group._power_walk.maximal:
        g, zg = _entries(codes[powers[0]], G), values[powers[0]]
        if solve_linear(_minus_identity(action, g), r, zg, action.ctx) is None:
            return False
        rows, w = action._act_entries(g), (0,) * r
        for h in powers:
            w = tuple((sum(map(mul, row, w)) + e) % N for row, e in zip(rows, zg))
            proven[h] |= values[h] == w
    return all(proven) or all(
        proven[i] or solve_linear(_minus_identity(action, _entries(code, G)), r, values[i], action.ctx) is not None
        for i, code in enumerate(codes)
    )


def restriction(z: Cocycle, subgroup: MatGroup) -> Cocycle:
    """Values of z re-indexed to a subgroup's canonical order."""
    for h in subgroup.elements:
        if h not in z.group:
            raise NotASubgroup("restriction target contains elements outside the group")
    vals = tuple(z.values[z.group.position(h)] for h in subgroup.elements)
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


def inflation(y: Cocycle, group: MatGroup, action: Optional[ModuleAction] = None) -> Cocycle:
    """Pull a cocycle on the faithful quotient back to the full group.

    The value at g is the value of y at the image of g, so the group
    divided out is the pointwise stabilizer of the action; y must live on
    the quotient action_image(group, action) with its action.
    """
    action = _action_for(group, action)
    q, image_action, proj = action_image(group, action)
    if y.group != q or y.action != image_action:
        raise StabilizerMismatch("cocycle is not defined on the faithful quotient of this action")
    vals = tuple(y.values[q.position(proj[g])] for g in group.elements)
    return Cocycle(group, action, vals)


# ---------------------------------------------------------------------------
# normal form for locally trivial cocycles
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str):
    if not cond:
        raise HypothesisViolated(message)


def normalize_locally_trivial_cocycle(z: Cocycle, rho: Mat2) -> Cocycle:
    """Shift a locally trivial cocycle to the triangular normal form.

    Under the hypotheses (rho diagonal in the group, first entry 1, order
    at least 3; group generated by its diagonal and strictly-unipotent
    parts, which matgrp.special_subgroups finds), subtracting the
    coboundary that kills the diagonal restriction leaves a cohomologous
    cocycle vanishing on the subgroup generated by the diagonal and upper
    parts, whose value on the normalized lower generator [[1,0],[p^j,1]]
    is (0, p^j * beta). Every step is verified and a failed step reports
    which hypothesis it contradicts.
    """
    group, action = z.group, z.action
    _require(action.rank == 2 and action.ctx == group.ctx, "normal form needs the full rank-2 module")
    _require(is_cocycle(z), "value table violates the cocycle relation")
    _require(is_locally_trivial(z), "cocycle is not locally trivial")
    _require(rho in group, "diagonal element does not belong to the group")
    _require(rho.is_diagonal(), "distinguished element is not diagonal")
    _require(rho.a == 1, "first diagonal entry is not 1")
    _require(rho.order() >= 3, f"diagonal element has order {rho.order()} < 3")
    diag, s_upper, s_lower = special_subgroups(group)
    regen = close_group(
        [g for g in itertools.chain(diag, s_upper, s_lower)], group.ctx, cap=len(group) + 1
    )
    _require(regen == group, "group is not generated by its diagonal and unipotent parts")

    q_wit = is_coboundary(restriction(z, diag))
    _require(q_wit is not None, "restriction to the diagonal part is not a coboundary")
    shifted = z.sub(coboundary_of(group, q_wit, action))

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
            not any(shifted.value_of(g)),
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
        beta = p_wit[0]
        expect = (0, ctx.p**j * beta % ctx.modulus)
        _require(
            val == expect,
            "value at the lower generator is not (0, p^j * beta)",
        )
    else:
        _require(shifted.is_zero(), "cocycle should vanish when the lower part is trivial")
    return shifted
