"""Decidable predicates on matrix groups mirroring arithmetic hypotheses.

Each predicate reads a purely group-theoretic fact off a subgroup of
GL2(Z/p^nZ): common fixed vectors, the determinant image and kernel, and
cyclic submodules stable under the whole group. A report bundles the
values consumed by the falsification experiments.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import WrongLevel
from .matgrp import MatGroup, reduce_mod, stable_lines
from .zmod import Submodule, kernel


class ConditionReport(NamedTuple):
    """Group-level answers to the hypotheses of the triviality criterion."""

    has_fixed_point_of_exact_order_p: bool
    det_image_order_mod_p: int
    det_kernel_trivial_mod_p: bool
    stable_cyclic_order_p: tuple
    stable_cyclic_order_p2: tuple
    isogeny_condition_p3: bool
    zeta_condition_holds: bool

    def to_json_dict(self) -> dict:
        return {
            "hasFixedPointOfExactOrderP": self.has_fixed_point_of_exact_order_p,
            "detImageOrderMod_p": self.det_image_order_mod_p,
            "detKernelTrivialMod_p": self.det_kernel_trivial_mod_p,
            "stableCyclicOrderP": [
                [list(g) for g in s.generators] for s in self.stable_cyclic_order_p
            ],
            "stableCyclicOrderP2": [
                [list(g) for g in s.generators] for s in self.stable_cyclic_order_p2
            ],
            "isogenyConditionP3": self.isogeny_condition_p3,
            "zetaConditionHolds": self.zeta_condition_holds,
        }


def fixed_points(group: MatGroup) -> Submodule:
    """Common fixed vectors: the intersection of ker(g - I) over the group.

    A vector fixed by a generating set is fixed by every product of its
    members, so the generators' rows suffice; the trivial group has none
    and fixes everything.
    """
    ctx = group.ctx
    n = ctx.modulus
    rows = []
    for g in group.generating_set:
        rows.append([(g.a - 1) % n, g.b])
        rows.append([g.c, (g.d - 1) % n])
    return kernel(rows, 2, ctx)


def det_image(group: MatGroup) -> list:
    """Sorted distinct determinants, a subgroup of the units."""
    return sorted({g.det() for g in group.elements})


def det_kernel_trivial(group: MatGroup) -> bool:
    """Whether the identity is the only element of determinant 1 (level 1)."""
    if group.ctx.n != 1:
        raise WrongLevel(f"determinant-kernel test needs level 1, got level {group.ctx.n}")
    ident = group.identity
    return all(g == ident for g in group.elements if g.det() == 1)


def stable_cyclic_submodules(group: MatGroup, order: int) -> list:
    """Cyclic submodules <v> of the given exact order with g.v in <v> for all g.

    A cyclic submodule of order p^k is <p^(n-k) w> for a primitive w (one
    with a unit coordinate), and only w mod p^k matters, since p^(n-k) maps
    (Z/p^k)^2 isomorphically onto p^(n-k) (Z/p^n)^2. So p^(n-k) w is stable
    iff the group fixes the line of w mod p^k, and a submodule is built only
    for each stable line of matgrp.stable_lines, which raises
    BudgetExceeded when there are too many lines to scan. The result is
    sorted by Howell generators, which are canonical per submodule.
    """
    ctx = group.ctx
    p, n = ctx.p, ctx.n
    k = 0
    q = order
    while q > 1 and q % p == 0:
        q //= p
        k += 1
    if q != 1 or k < 1 or k > n:
        raise ValueError(f"order must be a power of {p} between {p} and {ctx.modulus}")
    scale = p ** (n - k)
    found = [Submodule.span([[scale * x, scale * y]], 2, ctx) for x, y in stable_lines(group, k)]
    return sorted(found, key=lambda s: s.generators)


def _disjoint_pair(big, small) -> bool:
    """Whether some c1 in big fails to contain some c2 in small.

    For c2 of prime order that is a trivial intersection of c1 and c2.
    """
    return any(not c2.le(c1) for c1 in big for c2 in small)


def isogeny_condition_p3(group: MatGroup) -> bool:
    """Whether stable cyclic submodules of orders p^2 and p intersect trivially.

    True iff some stable cyclic submodule of order p^2 misses some stable
    cyclic submodule of order p entirely; level 2 only.
    """
    ctx = group.ctx
    if ctx.n != 2:
        raise WrongLevel(f"the intersection test needs level 2, got level {ctx.n}")
    return _disjoint_pair(stable_cyclic_submodules(group, ctx.p**2), stable_cyclic_submodules(group, ctx.p))


def evaluate_main_theorem_conditions(group: MatGroup) -> ConditionReport:
    """Evaluate every predicate on the level-1 and level-2 reductions."""
    if group.ctx.n < 2:
        raise WrongLevel("condition evaluation needs a group at level 2 or higher")
    level1 = reduce_mod(group, 1)
    level2 = reduce_mod(group, 2)
    fp = fixed_points(level1)
    dets = det_image(level1)
    stable_p = stable_cyclic_submodules(level2, group.ctx.p)
    stable_p2 = stable_cyclic_submodules(level2, group.ctx.p**2)
    return ConditionReport(
        has_fixed_point_of_exact_order_p=fp.cardinality() > 1,
        det_image_order_mod_p=len(dets),
        det_kernel_trivial_mod_p=det_kernel_trivial(level1),
        stable_cyclic_order_p=tuple(stable_p),
        stable_cyclic_order_p2=tuple(stable_p2),
        isogeny_condition_p3=_disjoint_pair(stable_p2, stable_p),
        zeta_condition_holds=len(dets) >= 3,
    )
