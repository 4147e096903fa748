"""Finite subgroups of GL2 over Z/p^nZ.

A group is held as the sorted tuple of its elements' int codes: with
N = p^n, [[a, b], [c, d]] has code ((a*N + b)*N + c)*N + d, so codes sort
as the (a, b, c, d) tuples do. Mat2 is the public value type;
MatGroup.elements builds one Mat2 per element only when first read.

The closure walk is Dimino's: the span grows by whole right cosets of the
group generated so far, each coset the product of a stored one with a
generator, formed in one batch (_Right); past N^2 products a batch costs
two lookups per code in the generator's row tables. It picks the
generating set, of close_group and of a group built from an element list
alike. No group stores its products: the cocycle walk in cohom multiplies
its own frontier of codes through _Right, a batch per generator.
distinct_closures closes a run of generator sets and stops the walk of a
repeated group at half its order, by Lagrange, before it is built.

A second lazy walk on codes, the power walk, visits every cyclic subgroup
once from its least generator. It gives cyclic_subgroups,
maximal_cyclic_subgroups and the order of every element. Conjugating the
least generator of each maximal cyclic subgroup by the generating set
groups the maximal subgroups into conjugacy classes, and one representative
per class is all that the local conditions in cohom need.

enumerate_subgroups lists the subgroups of a solvable group by cyclic
extension of prime index: from the trivial group, each subgroup H found is
extended by every g outside it that normalizes H and has a prime least m
with g^m in H. Both tests and the cosets of H that make up the extension
are formed on plain (a, b, c, d) tuples. A group that is not solvable
raises ValueError.
"""

from __future__ import annotations

import itertools
import math
from array import array
from functools import cached_property
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional

from .errors import (
    BudgetExceeded,
    CapExceeded,
    NonInvertibleConjugator,
    NonInvertibleGenerator,
    NotAUnit,
)
from .zmod import ModulusContext, _is_prime, _read_only, unit_inverse

DEFAULT_CAP = 5000
# The most free lines one level of a stable-line search checks
# (stable_lines): the two stable lines of <diag(-1, 1)> mod 65521 have
# 131042 lifts mod 65521^2, and a scan of this many takes about 0.2 s.
LINE_BUDGET = 1 << 18


class Mat2:
    """2x2 matrix over Z/p^nZ, entries reduced on construction. Equal when
    the entries and the modulus agree; ordered by the entries alone."""

    __slots__ = ("a", "b", "c", "d", "ctx")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, a: int, b: int, c: int, d: int, ctx: ModulusContext) -> None:
        N = ctx.modulus
        put = object.__setattr__
        put(self, "a", a % N)
        put(self, "b", b % N)
        put(self, "c", c % N)
        put(self, "d", d % N)
        put(self, "ctx", ctx)

    @classmethod
    def identity(cls, ctx: ModulusContext) -> "Mat2":
        return cls(1, 0, 0, 1, ctx)

    @classmethod
    def diagonal(cls, u: int, v: int, ctx: ModulusContext) -> "Mat2":
        return cls(u, 0, 0, v, ctx)

    @classmethod
    def _reduced(cls, a: int, b: int, c: int, d: int, ctx: ModulusContext) -> "Mat2":
        """A Mat2 from entries already reduced mod N, skipping the reduction."""
        m = object.__new__(cls)
        put = object.__setattr__
        put(m, "a", a)
        put(m, "b", b)
        put(m, "c", c)
        put(m, "d", d)
        put(m, "ctx", ctx)
        return m

    def __eq__(self, other) -> bool:
        if other.__class__ is not Mat2:
            return NotImplemented
        return (self.a, self.b, self.c, self.d, self.ctx.modulus) == (
            other.a, other.b, other.c, other.d, other.ctx.modulus
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d, self.ctx.modulus))

    def __lt__(self, other) -> bool:
        return _key(self) < _key(other) if other.__class__ is Mat2 else NotImplemented

    def __le__(self, other) -> bool:
        return _key(self) <= _key(other) if other.__class__ is Mat2 else NotImplemented

    def __gt__(self, other) -> bool:
        return _key(self) > _key(other) if other.__class__ is Mat2 else NotImplemented

    def __ge__(self, other) -> bool:
        return _key(self) >= _key(other) if other.__class__ is Mat2 else NotImplemented

    def __repr__(self) -> str:
        return f"Mat2(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r}, ctx={self.ctx!r})"

    def __reduce__(self):
        return Mat2, (self.a, self.b, self.c, self.d, self.ctx)

    def row_list(self):
        return [[self.a, self.b], [self.c, self.d]]

    def mul(self, other: "Mat2") -> "Mat2":
        if other.ctx != self.ctx:
            raise ValueError("mixed moduli")
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.ctx,
        )

    def __mul__(self, other: "Mat2") -> "Mat2":
        return self.mul(other)

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.ctx.modulus

    def trace(self) -> int:
        return (self.a + self.d) % self.ctx.modulus

    def is_invertible(self) -> bool:
        return self.det() % self.ctx.p != 0

    def inv(self) -> "Mat2":
        di = unit_inverse(self.det(), self.ctx)
        return Mat2(self.d * di, -self.b * di, -self.c * di, self.a * di, self.ctx)

    def pow(self, k: int) -> "Mat2":
        if k < 0:
            return self.inv().pow(-k)
        out = Mat2.identity(self.ctx)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def order(self) -> int:
        """The least k >= 1 with self^k = I; raises NotAUnit, as inv does,
        for a matrix singular mod p, whose powers never reach I."""
        if not self.is_invertible():
            raise NotAUnit(f"the determinant {self.det()} is divisible by {self.ctx.p}")
        N = self.ctx.modulus
        a, b, c, d = self.a, self.b, self.c, self.d
        x, y, z, w = a, b, c, d
        k = 1
        while (x, y, z, w) != (1, 0, 0, 1):
            x, y, z, w = (x * a + y * c) % N, (x * b + y * d) % N, (z * a + w * c) % N, (z * b + w * d) % N
            k += 1
        return k

    def is_diagonal(self) -> bool:
        return self.b == 0 and self.c == 0

    def is_upper(self) -> bool:
        return self.c == 0

    def is_lower(self) -> bool:
        return self.b == 0

    def is_unipotent_upper(self) -> bool:
        return self.a == 1 and self.d == 1 and self.c == 0

    def is_unipotent_lower(self) -> bool:
        return self.a == 1 and self.d == 1 and self.b == 0

    def reduce_to(self, m: int) -> "Mat2":
        """Image under Z/p^n -> Z/p^m for m <= n."""
        if m > self.ctx.n:
            raise ValueError("cannot reduce to a finer modulus")
        sub = ModulusContext(self.ctx.p, m)
        return Mat2(self.a, self.b, self.c, self.d, sub)

    def apply(self, vec) -> tuple:
        """Matrix-times-column-vector action on the rank-2 module, reduced mod p^n."""
        x, y = vec
        N = self.ctx.modulus
        return ((self.a * x + self.b * y) % N, (self.c * x + self.d * y) % N)


# The entries of a Mat2 as a plain tuple: its sort key, and the element
# representation of the tuple walks.
_key = attrgetter("a", "b", "c", "d")


def _code(x, N: int) -> int:
    """The code of the entries (a, b, c, d), each in [0, N)."""
    a, b, c, d = x
    return ((a * N + b) * N + c) * N + d


def _entries(code: int, N: int) -> tuple:
    """The entries (a, b, c, d) of a code."""
    top, bottom = divmod(code, N * N)
    return (*divmod(top, N), *divmod(bottom, N))


def _mat(code: int, ctx: ModulusContext) -> Mat2:
    """The Mat2 of a code."""
    return Mat2._reduced(*_entries(code, ctx.modulus), ctx)


def _product(x: tuple, y: tuple, N: int) -> tuple:
    """The product of two (a, b, c, d) tuples, reduced mod N."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % N, (a * f + b * h) % N, (c * e + d * g) % N, (c * f + d * h) % N)


def _row_tables(a: int, b: int, c: int, d: int, N: int) -> tuple:
    """The row tables of right multiplication by [[a, b], [c, d]]: lo maps
    the row code x*N + y of (x, y) to that of (x, y)*[[a, b], [c, d]], and
    hi to that times N^2, its share of a code as the top row."""
    NN = N * N
    lo = [(x * a + y * c) % N * N + (x * b + y * d) % N for x in range(N) for y in range(N)]
    return [u * NN for u in lo], lo


class _Right:
    """Right multiplication of codes by one matrix, a batch at a time: from
    the entries until a batch would bring the codes so multiplied to N^2,
    then by two lookups per code, one per row, in row tables built once
    (_row_tables) at about the cost of the direct work before them. A small
    group at a large modulus never builds them."""

    __slots__ = ("entries", "N", "direct", "tables")

    def __init__(self, code: int, N: int):
        self.entries, self.N, self.direct, self.tables = _entries(code, N), N, 0, None

    def __call__(self, block: list) -> list:
        """The codes of block, each times the matrix, in order."""
        N, NN = self.N, self.N * self.N
        if self.tables is None:
            self.direct += len(block)
            if self.direct < NN:
                a, b, c, d = self.entries
                out = []
                for top, bottom in map(divmod, block, itertools.repeat(NN)):
                    x, y = divmod(top, N)
                    z, w = divmod(bottom, N)
                    upper = (x * a + y * c) % N * N + (x * b + y * d) % N
                    out.append(upper * NN + (z * a + w * c) % N * N + (z * b + w * d) % N)
                return out
            self.tables = _row_tables(*self.entries, N)
        hi, lo = self.tables
        return [hi[top] + lo[bottom] for top, bottom in map(divmod, block, itertools.repeat(NN))]


def _grow_span(candidates: Iterable[int], N: int, cap: float, within: float = math.inf) -> Optional[tuple]:
    """Greedy generating set of the candidates and the group it generates,
    by Dimino's algorithm (Butler, Fundamental Algorithms for Permutation
    Groups, LNCS 559, 1991), on codes.

    A candidate outside the span H so far is kept, and the span grows by
    right cosets of H: for each coset H*r found and each kept generator t,
    when r*t is new the coset H*(r*t), the block H*r times t, is appended,
    multiplied in one batch (_Right). The cosets are closed under the
    generators, so in a finite group they make up the group generated.
    CapExceeded is raised before a coset would take the span past cap.

    within is the order of a group known to hold every candidate; by
    Lagrange a span of more than within/2 elements is that group, so the
    walk returns None once it gets there: after each coset, and at the end
    for a span of one element.

    Returns (the kept candidates, the codes of the span, each once).
    """
    ident = _code((1, 0, 0, 1), N)
    found = [ident]
    # a dict: at 5000 codes a set has grown to 32768 slots, a dict to 8192
    members = {ident: None}
    kept, gens = [], []
    for g in candidates:
        if g in members:
            continue
        kept.append(g)
        gens.append(_Right(g, N))
        size = len(found)  # |H|; found[start : start + size] is the coset H*r
        cosets = [(ident, 0)]
        for r, start in cosets:
            for times in gens:
                [rt] = times([r])
                if rt in members:
                    continue
                if len(found) + size > cap:
                    raise CapExceeded(f"group closure exceeded cap of {cap} elements")
                cosets.append((rt, len(found)))
                # H starts with the identity, so H*(r*t) starts with r*t
                block = [rt, *times(found[start + 1 : start + size])]
                members.update(zip(block, itertools.repeat(None)))
                found += block
                if 2 * len(found) > within:
                    return None
    return None if 2 * len(found) > within else (kept, found)


def _close_walk(gens: Iterable[Mat2], ctx: ModulusContext, cap: float, groups=()) -> Optional[tuple]:
    """Check the generators and return _grow_span of them, within the
    smallest of groups that holds every generator (by code), if any."""
    gens = list(gens)
    for g in gens:
        if g.ctx != ctx:
            raise ValueError("generator modulus mismatch")
        if not g.is_invertible():
            raise NonInvertibleGenerator(f"generator {g.row_list()} has determinant divisible by {ctx.p}")
    codes = [_code(_key(g), ctx.modulus) for g in gens]
    within = min((len(h) for h in groups if all(c in h._position for c in codes)), default=math.inf)
    return _grow_span(codes, ctx.modulus, cap, within)


def _build(kept: list, codes: tuple, ctx: ModulusContext) -> "MatGroup":
    """The group a closure walk found, from its sorted codes, with the kept
    generators as its generating set."""
    gens = tuple(_mat(g, ctx) for g in kept)
    grp = object.__new__(MatGroup)
    vars(grp).update(codes=codes, ctx=ctx, _gens=gens, generating_set=gens)
    return grp


def close_group(gens: Iterable[Mat2], ctx: ModulusContext, cap: int = DEFAULT_CAP) -> "MatGroup":
    """Closure of the generators, capped at cap elements; the generators
    the walk keeps become the group's generating set."""
    kept, found = _close_walk(gens, ctx, cap)
    return _build(kept, tuple(sorted(found)), ctx)


def distinct_closures(gen_sets: Iterable[Iterable[Mat2]], ctx: ModulusContext):
    """The groups the generator sets generate, in order, each group once.

    A set whose closure passes DEFAULT_CAP elements is skipped. A walk that
    generates a group already yielded stops at half its order (_close_walk)
    and builds nothing. The next set is drawn only when the next group is
    asked for, so a caller may stop early.
    """
    yielded = []
    for gens in gen_sets:
        try:
            walk = _close_walk(gens, ctx, DEFAULT_CAP, yielded)
        except CapExceeded:
            continue
        if walk is not None:
            yielded.append(_build(walk[0], tuple(sorted(walk[1])), ctx))
            yield yielded[-1]


class _PowerWalk(NamedTuple):
    """The cyclic subgroups of a group sorted by (order, elements), flat:
    subgroup i is <g> with g its least generator, held as the positions in
    the group's elements of g, g^2, ..., g^m = 1 at powers[ends[i - 1] :
    ends[i]], and is_maximal[i] is 1 when it lies in no larger cyclic
    subgroup. orders holds the order of each element by position."""

    powers: array
    ends: array
    is_maximal: bytearray
    orders: array

    @property
    def cyclic(self) -> list:
        """The powers of every cyclic subgroup, in order."""
        return [self.powers[i:j] for i, j in zip((0, *self.ends), self.ends)]

    @property
    def maximal(self) -> list:
        """The powers of every maximal cyclic subgroup, in order."""
        return [self.powers[i:j] for i, j, top in zip((0, *self.ends), self.ends, self.is_maximal) if top]


class MatGroup:
    """A finite subgroup of GL2(Z/p^nZ), held as the sorted codes of its elements."""

    def __init__(self, elements: tuple, ctx: ModulusContext, gens: tuple = ()):
        if any(g.ctx != ctx for g in elements):
            raise ValueError("element modulus mismatch")
        self.codes = tuple(sorted({_code(_key(g), ctx.modulus) for g in elements}))
        self.ctx = ctx
        self._gens = tuple(gens)

    @classmethod
    def from_codes(cls, codes: Iterable[int], ctx: ModulusContext, gens: tuple = ()) -> "MatGroup":
        """The group of the given element codes, in any order and with repeats."""
        grp = cls((), ctx, gens)
        grp.codes = tuple(sorted(set(codes)))
        return grp

    def __eq__(self, other) -> bool:
        return isinstance(other, MatGroup) and self.ctx == other.ctx and self.codes == other.codes

    def __hash__(self) -> int:
        return hash((self.ctx, self.codes))

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, m) -> bool:
        """Whether m is an element; a matrix over another modulus, or
        anything that is not a Mat2, never is."""
        return isinstance(m, Mat2) and m.ctx == self.ctx and _code(_key(m), self.ctx.modulus) in self._position

    def __repr__(self) -> str:
        return f"MatGroup(order={len(self.codes)}, mod={self.ctx.modulus})"

    @cached_property
    def elements(self) -> tuple:
        """The elements as Mat2 values in canonical order, built on first read."""
        ctx, N = self.ctx, self.ctx.modulus
        rows = (divmod(code, N * N) for code in self.codes)
        return tuple(Mat2._reduced(*divmod(top, N), *divmod(bottom, N), ctx) for top, bottom in rows)

    @cached_property
    def _position(self) -> dict:
        """The position of each element in codes, by code."""
        return dict(zip(self.codes, range(len(self.codes))))

    def position(self, m: Mat2) -> int:
        """The position of m in elements; KeyError if m is not one of them,
        as a matrix over another modulus or a non-Mat2 never is."""
        if not isinstance(m, Mat2) or m.ctx != self.ctx:
            raise KeyError(m)
        return self._position[_code(_key(m), self.ctx.modulus)]

    @cached_property
    def identity(self) -> Mat2:
        return Mat2.identity(self.ctx)

    @cached_property
    def generating_set(self) -> tuple:
        """A small generating tuple: stored generators first, then greedy fill,
        from one closure walk (_grow_span) over the elements."""
        N = self.ctx.modulus
        gens = (_code(_key(g), N) for g in self._gens)
        try:
            kept, found = _grow_span(itertools.chain(gens, self.codes), N, len(self.codes))
        except CapExceeded:
            found = ()
        if len(found) != len(self.codes):
            raise ValueError("the elements are not closed under multiplication")
        return tuple(_mat(g, self.ctx) for g in kept)

    @cached_property
    def _power_walk(self) -> "_PowerWalk":
        """Every cyclic subgroup and every element order, from one power walk.

        The walk runs in canonical order and skips every element already
        reached as a generator, so each <g> is walked once, from its least
        generator g. Of its powers g^u, those with u prime to m = |<g>|
        generate <g> and have order m; the others generate smaller
        subgroups, which are therefore not maximal. Every element x lies in
        <x>, so the maximal subgroups cover the group.
        """
        N = self.ctx.modulus
        position = self._position
        one = position.get(_code((1, 0, 0, 1), N))
        orders = array("I", bytes(4 * len(position)))
        inside = bytearray(len(position))
        walks = []
        for i, code in enumerate(self.codes):
            if orders[i]:
                continue
            a, b, c, d = x, y, z, w = _entries(code, N)
            if (a * d - b * c) % self.ctx.p == 0:
                raise ValueError("a singular matrix is not a group element")
            powers = [i]
            while powers[-1] != one:
                x, y, z, w = (x * a + y * c) % N, (x * b + y * d) % N, (z * a + w * c) % N, (z * b + w * d) % N
                j = position.get(((x * N + y) * N + z) * N + w)
                if j is None:
                    raise ValueError("the elements are not closed under multiplication")
                powers.append(j)
            m = len(powers)
            for u, j in enumerate(powers, 1):
                if math.gcd(u, m) == 1:
                    orders[j] = m
                else:
                    inside[j] = 1
            walks.append(powers)
        walks.sort(key=lambda powers: (len(powers), sorted(powers)))
        flat, ends, is_maximal = array("I"), array("I"), bytearray()
        covered = bytearray(len(position))
        for powers in walks:
            flat.extend(powers)
            ends.append(len(flat))
            top = not inside[powers[0]]
            is_maximal.append(top)
            if top:
                for j in powers:
                    covered[j] = 1
        if not all(covered):
            raise RuntimeError("the maximal cyclic subgroups do not cover the group")
        return _PowerWalk(flat, ends, is_maximal, orders)

    @cached_property
    def _class_representatives(self) -> list:
        """The powers of one maximal cyclic subgroup per conjugacy class of G.

        Conjugation by t carries <g> onto <tgt^-1>, maximal when <g> is, so
        the classes are the orbits of the maximal subgroups under
        conjugation by the generating set: each least generator is
        conjugated by every generator, found by its code, mapped to the
        maximal subgroup it generates (an element of its order in it), and
        the two subgroups are joined by union-find. Each class is
        represented by its first member in the order of the power walk.
        """
        N = self.ctx.modulus
        position = self._position
        walk = self._power_walk
        maximal = walk.maximal
        # owner[j] is the maximal subgroup that element j generates, if any
        missing = len(maximal)
        owner = array("I", [missing]) * len(position)
        for i, powers in enumerate(maximal):
            for j in powers:
                if walk.orders[j] == len(powers):
                    owner[j] = i
        conjugators = [(_key(t), _key(t.inv())) for t in self.generating_set]
        root = list(range(len(maximal)))

        def find(i):
            while root[i] != i:
                root[i] = i = root[root[i]]
            return i

        for i, powers in enumerate(maximal):
            g = _entries(self.codes[powers[0]], N)
            for t, t_inv in conjugators:
                j = position.get(_code(_product(_product(t, g, N), t_inv, N), N))
                if j is None or owner[j] == missing:
                    raise RuntimeError("a conjugate of a maximal cyclic subgroup is not maximal")
                # the smaller index becomes the root, so roots come first in their class
                a, b = sorted((find(i), find(owner[j])))
                root[b] = a
        return [powers for i, powers in enumerate(maximal) if find(i) == i]

    def to_spec_dict(self) -> dict:
        gens = self.generating_set or (self.identity,)
        return {
            "p": self.ctx.p,
            "n": self.ctx.n,
            "generators": [g.row_list() for g in gens],
        }


class TripleParam(NamedTuple):
    a: int
    b: int
    c: int


class ExampleGroup(NamedTuple):
    """The order-2p^2 group generated by diag(1,-1), diag(1+p,1+p),
    and [[1, m*p],[p, 1]] over Z/p^2, with its three-parameter labeling."""

    group: MatGroup
    nonsquare: int
    triples: dict
    delta1: Mat2
    delta2: Mat2
    delta3: Mat2

    def element(self, a: int, b: int, c: int) -> Mat2:
        p = self.group.ctx.p
        return self.triples[TripleParam(a % 2, b % p, c % p)]

    def triple_of(self, g: Mat2) -> TripleParam:
        for t, m in self.triples.items():
            if m == g:
                return t
        raise KeyError("element is not in the group")


def smallest_nonsquare(p: int) -> int:
    """Least positive quadratic non-residue mod an odd prime p."""
    for m in range(2, p):
        if pow(m, (p - 1) // 2, p) == p - 1:
            return m
    raise ValueError(f"no non-residue below {p}; is p prime?")


def closed_form_triple(a: int, b: int, c: int, m: int, ctx: ModulusContext) -> Mat2:
    """Element with parameters (a, b, c): sign flip a, scaling b, rotation c."""
    p = ctx.p
    sign = -1 if a % 2 else 1
    return Mat2(1 + p * b, m * p * c, sign * p * c, sign * (1 + p * b), ctx)


def make_example_group(p: int, m: Optional[int] = None) -> ExampleGroup:
    """Construct the counterexample group at an odd prime p (modulus p^2)."""
    if p == 2 or not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if m is None:
        m = smallest_nonsquare(p)
    elif pow(m % p, (p - 1) // 2, p) != p - 1:
        raise ValueError(f"{m} is a square mod {p}")
    ctx = ModulusContext(p, 2)
    d1 = Mat2.diagonal(1, -1, ctx)
    d2 = Mat2.diagonal(1 + p, 1 + p, ctx)
    d3 = Mat2(1, m * p, p, 1, ctx)
    grp = close_group([d1, d2, d3], ctx, cap=4 * p * p)
    if len(grp) != 2 * p * p:
        raise AssertionError(f"expected order {2 * p * p}, got {len(grp)}")
    triples = {}
    for a in range(2):
        for b in range(p):
            for c in range(p):
                g = closed_form_triple(a, b, c, m, ctx)
                if g not in grp:
                    raise AssertionError(f"closed form ({a},{b},{c}) landed outside the group")
                triples[TripleParam(a, b, c)] = g
    if len(set(triples.values())) != 2 * p * p:
        raise AssertionError("triple labeling is not a bijection")
    return ExampleGroup(grp, m, triples, d1, d2, d3)


def reduce_mod(group: MatGroup, m: int) -> MatGroup:
    """Image of the group under entrywise reduction Z/p^n -> Z/p^m; at m = n, the group itself."""
    if m > group.ctx.n or m < 1:
        raise ValueError(f"target exponent {m} out of range 1..{group.ctx.n}")
    if m == group.ctx.n:
        return group
    sub = ModulusContext(group.ctx.p, m)
    N, M = group.ctx.modulus, sub.modulus
    codes = (_code([e % M for e in _entries(c, N)], M) for c in group.codes)
    gens = tuple(Mat2(g.a, g.b, g.c, g.d, sub) for g in group._gens)
    return MatGroup.from_codes(codes, sub, gens)


def special_subgroups(group: MatGroup):
    """(diagonal part, upper-unipotent part, lower-unipotent part), each a MatGroup."""
    tests = (Mat2.is_diagonal, Mat2.is_unipotent_upper, Mat2.is_unipotent_lower)
    return tuple(MatGroup([g for g in group if test(g)], group.ctx) for test in tests)


def _cyclic_group(group: MatGroup, powers: array) -> MatGroup:
    """The subgroup at the given positions, generated by the first of them."""
    codes = group.codes
    return MatGroup.from_codes(map(codes.__getitem__, powers), group.ctx, (_mat(codes[powers[0]], group.ctx),))


def cyclic_subgroups(group: MatGroup) -> list:
    """All distinct cyclic subgroups, sorted by (order, elements), each
    generated by its least generator in canonical order; read off the
    group's power walk (MatGroup._power_walk)."""
    return [_cyclic_group(group, powers) for powers in group._power_walk.cyclic]


def maximal_cyclic_subgroups(group: MatGroup) -> list:
    """The cyclic subgroups contained in no larger cyclic subgroup, in the
    order and with the generators of cyclic_subgroups. Every element lies
    in one of them."""
    return [_cyclic_group(group, powers) for powers in group._power_walk.maximal]


def _inverse(x: tuple, N: int) -> tuple:
    """The inverse of an invertible (a, b, c, d) tuple mod N."""
    a, b, c, d = x
    u = pow(a * d - b * c, -1, N)
    return (d * u % N, -b * u % N, -c * u % N, a * u % N)


def _is_solvable(group: MatGroup) -> bool:
    """Whether the derived series G > G' > G'' > ... reaches the trivial group.

    Each term is the normal closure of the commutators of the previous
    term's generators, formed on plain tuples and closed on codes: the
    commutators generate a subgroup, which is extended by the conjugates of
    its generators under the previous term's until none falls outside it. A
    group is solvable exactly when the series does not stop shrinking above
    the trivial group.
    """
    N = group.ctx.modulus
    gens, order = list(map(_key, group.generating_set)), len(group)
    while order > 1:
        pairs = [(x, _inverse(x, N)) for x in gens]
        new = [_product(_product(x, y, N), _product(xi, yi, N), N) for x, xi in pairs for y, yi in pairs]
        while True:
            kept, found = _grow_span([_code(x, N) for x in new], N, order)
            new = [_entries(g, N) for g in kept]
            members = set(found)
            outside = {_product(_product(x, h, N), xi, N) for x, xi in pairs for h in new}
            outside = [x for x in outside if _code(x, N) not in members]
            if not outside:
                break
            new += outside
        if len(found) == order:
            return False
        gens, order = new, len(found)
    return True


def enumerate_subgroups(group: MatGroup) -> list:
    """All subgroups of a solvable group, sorted by (order, elements).

    Cyclic extension by prime index (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005), from the trivial group: for each
    subgroup H found and each g outside it, <H, g> is taken when g
    normalizes H and the least m with g^m in H is prime, for then H is
    normal of prime index m in <H, g>, whose elements are the cosets H g^i,
    and close_group builds it when that element set is new. That index is
    prime, so <H, g> = K for every g in K \\ H, and the elements of each
    extension K of H already found are skipped. Every nontrivial subgroup
    of a solvable group has a normal subgroup of prime index, so the walk
    reaches every subgroup; a group reached by such a chain is solvable, so
    the group itself is reached exactly when it is solvable, which the
    derived series tells first (_is_solvable). Products are formed on plain
    (a, b, c, d) tuples.
    """
    if not _is_solvable(group):
        raise ValueError("subgroup enumeration needs a solvable group")
    N = group.ctx.modulus
    # each element with its tuple and the tuple of its inverse
    elements = [(g, _key(g), _key(g.inv())) for g in group.elements]
    # subgroups by the set of their element tuples
    found = {frozenset([(1, 0, 0, 1)]): close_group((), group.ctx)}
    queue = list(found.items())
    for inside, sub in queue:
        gens = list(map(_key, sub.generating_set))
        covered = set(inside)
        for g, x, x_inv in elements:
            if x in covered:
                continue
            if any(_product(_product(x, h, N), x_inv, N) not in inside for h in gens):
                continue
            powers = [x]
            while powers[-1] not in inside:
                powers.append(_product(powers[-1], x, N))
            if not _is_prime(len(powers)):
                continue
            ext = frozenset(_product(h, y, N) for h in inside for y in powers)
            covered |= ext
            if ext not in found:
                found[ext] = close_group((*sub.generating_set, g), group.ctx, cap=len(group) + 1)
                if len(found[ext]) != len(ext):
                    raise RuntimeError("a cyclic extension is not the union of its cosets")
                queue.append((ext, found[ext]))
    subgroups = sorted(found.values(), key=lambda h: (len(h), h.codes))
    if len(subgroups[-1]) != len(group):
        raise RuntimeError("the cyclic extension walk missed the solvable group itself")
    return subgroups


def conjugate(group: MatGroup, t: Mat2) -> MatGroup:
    """t * G * t^{-1}."""
    if not t.is_invertible():
        raise NonInvertibleConjugator(f"conjugator {t.row_list()} is not invertible")
    ti = t.inv()
    N, x, y = group.ctx.modulus, _key(t), _key(ti)
    codes = (_code(_product(_product(x, _entries(c, N), N), y, N), N) for c in group.codes)
    gens = tuple(t * g * ti for g in group._gens)
    return MatGroup.from_codes(codes, group.ctx, gens)


def _projective_line_reps(p: int, N: int):
    """Generators of the free rank-1 submodules of (Z/N)^2, N a power of p,
    each scaled so that its first unit coordinate is 1: (1,y) then (pk,1)."""
    for y in range(N):
        yield (1, y)
    for k in range(N // p):
        yield (p * k, 1)


def _fixes_line(g: Mat2, w: tuple, N: int) -> bool:
    """Whether g maps the line of w into itself mod N, for w from
    _projective_line_reps(p, N) and N dividing the modulus of g.

    g w lies on the line of w iff g w = λ w for a scalar λ, and comparing
    the coordinates where w has a 1 fixes λ: for w = (1, y) it is the first
    coordinate of g w, for w = (pk, 1) the second.
    """
    x, y = w
    first, second = g.a * x + g.b * y, g.c * x + g.d * y
    return (second - first * y if x == 1 else first - second * x) % N == 0


def stable_lines(group: MatGroup, k: int) -> list:
    """The free lines of (Z/p^k)^2 that the group maps into themselves, for
    1 <= k <= n, as their representatives w in _projective_line_reps order.

    Two primitive vectors span the same line iff they differ by a unit
    factor, so scaling the first unit coordinate to 1 picks one w per line.
    A line stable under a generating set is stable under the group. A line
    stable mod p^j reduces to a line stable mod p^(j-1), so the scan goes
    level by level: the p + 1 lines mod p, then at each level the p lifts
    (1, y + t p^(j-1)) or (x + t p^(j-1), 1) of each stable line (1, y) or
    (x, 1) one level down. Its cost follows the number of stable lines,
    not the p^(k-1)(p+1) lines of level k. Each level raises BudgetExceeded
    before its scan starts when it would check more than LINE_BUDGET lines.
    """
    p, n = group.ctx.p, group.ctx.n
    if not 1 <= k <= n:
        raise ValueError(f"line level must lie in 1..{n}, got {k}")
    gens = group.generating_set
    N, lines = 1, None
    while N < p**k:
        count = p + 1 if lines is None else p * len(lines)
        if count > LINE_BUDGET:
            raise BudgetExceeded(
                f"stable-line search over the {count} free lines of (Z/{N * p})^2 exceeds budget {LINE_BUDGET}"
            )
        if lines is None:
            candidates = _projective_line_reps(p, p)
        else:
            candidates = [(1, y + t * N) if x == 1 else (x + t * N, 1) for x, y in lines for t in range(p)]
        N *= p
        lines = [w for w in candidates if all(_fixes_line(g, w, N) for g in gens)]
    return sorted(lines, key=lambda w: (w[0] != 1, w[1] if w[0] == 1 else w[0]))


def find_triangularizing_conjugator(group: MatGroup) -> Optional[Mat2]:
    """A matrix t with t*G*t^{-1} upper triangular, or None.

    The first basis vector of t^{-1} spans the first free line of
    (Z/p^n)^2 that the group fixes (stable_lines). The first line is that
    of (1, 0), so an upper-triangular group returns the identity.
    """
    ctx = group.ctx
    lines = stable_lines(group, ctx.n)
    if not lines:
        return None
    v = lines[0]
    # complete v to a basis: t^{-1} has columns v and (0, 1), or (1, 0) when v = (pk, 1)
    t_inv = Mat2(v[0], 0, v[1], 1, ctx) if v[0] == 1 else Mat2(v[0], 1, v[1], 0, ctx)
    t = t_inv.inv()
    if not all((t * g * t_inv).is_upper() for g in group.generating_set):
        raise AssertionError("stable line did not triangularize")
    return t
