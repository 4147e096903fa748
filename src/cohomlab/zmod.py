"""Exact linear algebra over the residue ring Z/p^nZ.

For n > 1 the ring has zero divisors, so textbook Gaussian elimination
neither canonicalizes row spaces nor finds complete kernels.  Row spaces
are therefore kept in a Howell-style normal form: pivots are exact powers
of p, entries above a pivot are reduced modulo the pivot, and for every
pivot of positive valuation an annihilator multiple of the pivot row is
fed back into the elimination.  The resulting form is unique per
submodule and supports membership tests by greedy reduction.

Quotients of finite modules are reported through their invariant factors,
obtained by lifting a relation matrix to the integers (appending the
p^n-multiple relations) and reducing it to diagonal Smith form.

Vectors are tuples of plain Python integers and matrices are sequences of
such rows; p^n never leaves the exact range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import DimensionMismatch, NotASubmodule, NotAUnit


# Largest modulus p^n a context accepts.
MAX_MODULUS = 2**32


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class ModulusContext:
    """The pair (p, n) fixing the ring Z/p^nZ."""

    p: int
    n: int
    modulus: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        p, n = self.p, self.n
        if not isinstance(p, int) or isinstance(p, bool) or p < 2:
            raise ValueError(f"p must be prime, got {p!r}")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        # p >= 2, so p^n > 2^32 whenever n > 32 or p > 2^32; both are checked
        # before p^n is formed and before the trial-division primality test.
        if n > 32 or p > MAX_MODULUS or p**n > MAX_MODULUS:
            raise ValueError(f"p^n must be at most 2^32, got {p}^{n}")
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p!r}")
        object.__setattr__(self, "modulus", p**n)

    def valuation(self, a: int) -> int:
        """p-adic valuation of the canonical representative (n for 0)."""
        a %= self.modulus
        if a == 0:
            return self.n
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v


def unit_inverse(a: int, ctx: ModulusContext) -> int:
    """Inverse of a unit a in Z/p^nZ; raises NotAUnit when p | a."""
    if not 0 <= a < ctx.modulus:
        raise ValueError(f"expected canonical representative in [0, {ctx.modulus}), got {a}")
    if a % ctx.p == 0:
        raise NotAUnit(f"{a} is divisible by {ctx.p} mod {ctx.modulus}")
    return pow(a, -1, ctx.modulus)


# ---------------------------------------------------------------------------
# Howell engine on raw integer rows.
# ---------------------------------------------------------------------------


def _howell(rows: Sequence[Sequence[int]], ncols: int, ctx: ModulusContext, transform: bool = False):
    """Howell normal form over Z/p^n.

    Returns (H, U, K): H the canonical nonzero rows; when transform is
    True, U satisfies U*input = H row-wise and the rows of K generate the
    left kernel of the input (K*input = 0).  Appending p^(n-v) multiples
    of every pivot row of valuation v > 0 is what makes both the form
    canonical and the kernel complete.
    """
    N, p, nexp = ctx.modulus, ctx.p, ctx.n
    work = [[int(e) % N for e in r] for r in rows]
    for r in work:
        if len(r) != ncols:
            raise DimensionMismatch("row length differs from column count")
    nin = len(work)
    trans = [[1 if i == j else 0 for j in range(nin)] for i in range(nin)] if transform else None

    r = 0
    for c in range(ncols):
        if r >= len(work):
            break
        # pivot: the row at or below r whose column-c entry has least valuation
        best, bestv = -1, nexp
        for i in range(r, len(work)):
            a = work[i][c]
            if a:
                v = ctx.valuation(a)
                if v < bestv:
                    best, bestv = i, v
                    if v == 0:
                        break
        if best < 0:
            continue
        work[r], work[best] = work[best], work[r]
        if transform:
            trans[r], trans[best] = trans[best], trans[r]
        v = bestv
        piv = p**v
        u = pow(work[r][c] // piv, -1, N)
        if u != 1:
            work[r] = [(u * e) % N for e in work[r]]
            if transform:
                trans[r] = [(u * e) % N for e in trans[r]]
        # clear below: every entry in this column at rows > r has valuation >= v
        for i in range(r + 1, len(work)):
            e = work[i][c]
            if e:
                q = e // piv
                wi, wr = work[i], work[r]
                work[i] = [(a - q * b) % N for a, b in zip(wi, wr)]
                if transform:
                    ti, tr = trans[i], trans[r]
                    trans[i] = [(a - q * b) % N for a, b in zip(ti, tr)]
        # reduce above modulo the pivot
        for i in range(r):
            q = work[i][c] // piv
            if q:
                wi, wr = work[i], work[r]
                work[i] = [(a - q * b) % N for a, b in zip(wi, wr)]
                if transform:
                    ti, tr = trans[i], trans[r]
                    trans[i] = [(a - q * b) % N for a, b in zip(ti, tr)]
        # annihilator feedback keeps the span Howell-complete
        if v > 0:
            ann = p ** (nexp - v)
            newrow = [(ann * e) % N for e in work[r]]
            if any(newrow) or transform:
                work.append(newrow)
                if transform:
                    trans.append([(ann * e) % N for e in trans[r]])
        r += 1

    H = work[:r]
    if not transform:
        return H, None, None
    U = trans[:r]
    K = trans[r:]
    return H, U, K


def _reduce_against(hrows: Sequence[Sequence[int]], vec: Sequence[int], ctx: ModulusContext):
    """Greedy reduction of vec against Howell rows; returns (residual, coeffs)."""
    N = ctx.modulus
    res = [int(e) % N for e in vec]
    coeffs = []
    for row in hrows:
        j = next(k for k, e in enumerate(row) if e)
        piv = row[j]
        # floor-dividing by the p-power pivot leaves the canonical remainder
        # in [0, piv); later rows have zero in column j, so this is complete
        q = res[j] // piv
        if q:
            res = [(a - q * b) % N for a, b in zip(res, row)]
            coeffs.append(q)
        else:
            coeffs.append(0)
    return res, coeffs


@dataclass(frozen=True)
class Submodule:
    """Submodule of (Z/p^nZ)^ambient_rank held by canonical generators.

    Generators are the Howell normal form of any spanning set, as tuples of
    canonical entries: unique per submodule, ordered by pivot column, never
    containing the zero vector.
    """

    ambient_rank: int
    generators: tuple[tuple[int, ...], ...]
    ctx: ModulusContext

    @classmethod
    def span(cls, rows: Sequence[Sequence[int]], ambient_rank: int, ctx: ModulusContext) -> "Submodule":
        H, _, _ = _howell(rows, ambient_rank, ctx)
        return cls(ambient_rank, tuple(map(tuple, H)), ctx)

    @classmethod
    def zero(cls, ambient_rank: int, ctx: ModulusContext) -> "Submodule":
        return cls(ambient_rank, (), ctx)

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.coset_reduce(v))

    def coset_reduce(self, v: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of v + self (greedy Howell reduction)."""
        if len(v) != self.ambient_rank:
            raise DimensionMismatch("vector length differs from ambient rank")
        res, _ = _reduce_against(self.generators, v, self.ctx)
        return tuple(res)

    def cardinality(self) -> int:
        N = self.ctx.modulus
        size = 1
        for g in self.generators:
            size *= N // next(e for e in g if e)
        return size

    def is_zero(self) -> bool:
        return not self.generators

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All elements (cardinality-many; caller guards sizes)."""
        N = self.ctx.modulus
        gens = self.generators
        ranges = [N // next(e for e in g if e) for g in gens]

        def rec(i: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
            if i == len(gens):
                yield tuple(acc)
                return
            for c in range(ranges[i]):
                yield from rec(i + 1, [(a + c * b) % N for a, b in zip(acc, gens[i])])

        yield from rec(0, [0] * self.ambient_rank)

    def le(self, other: "Submodule") -> bool:
        """Containment self <= other."""
        return all(other.contains(g) for g in self.generators)


def _left_kernel(rows: Sequence[Sequence[int]], ncols: int, ctx: ModulusContext) -> list[list[int]]:
    """Rows generating {y : y * rows = 0}, raw from one elimination: not in
    normal form, and possibly with zero or repeated rows."""
    return _howell(rows, ncols, ctx, transform=True)[2]


def _columns(rows: Sequence[Sequence[int]], ncols: int) -> list:
    """The ncols columns of the matrix with these rows. Every row length is
    checked first, since zip would silently cut ragged rows to the shortest."""
    for r in rows:
        if len(r) != ncols:
            raise DimensionMismatch(f"row of length {len(r)} in a matrix of {ncols} columns")
    return list(zip(*rows)) if rows else [()] * ncols


def kernel(rows: Sequence[Sequence[int]], ncols: int, ctx: ModulusContext) -> Submodule:
    """{x : rows * x = 0} in (Z/p^n)^ncols, via the left kernel of the transpose.

    With no rows that is the whole module.
    """
    return Submodule.span(_left_kernel(_columns(rows, ncols), len(rows), ctx), ncols, ctx)


def solve_linear(
    rows: Sequence[Sequence[int]], ncols: int, b: Sequence[int], ctx: ModulusContext
) -> Optional[tuple[int, ...]]:
    """Some x with rows * x = b, or None. Completeness comes from the Howell form."""
    if len(b) != len(rows):
        raise DimensionMismatch(f"matrix has {len(rows)} rows, vector has {len(b)}")
    H, U, _ = _howell(_columns(rows, ncols), len(rows), ctx, transform=True)
    res, coeffs = _reduce_against(H, b, ctx)
    if any(res):
        return None
    N = ctx.modulus
    x = [0] * ncols
    for c, urow in zip(coeffs, U):
        if c:
            x = [(a + c * u) % N for a, u in zip(x, urow)]
    return tuple(x)


def image_contains(rows: Sequence[Sequence[int]], ncols: int, b: Sequence[int], ctx: ModulusContext) -> bool:
    """Whether b lies in the column span of the matrix (consistent with solve_linear)."""
    return solve_linear(rows, ncols, b, ctx) is not None


def annihilator(s: Submodule) -> Submodule:
    """{y : g . y = 0 for all g in s}. Annihilators are reflexive over Z/p^n."""
    return kernel(s.generators, s.ambient_rank, s.ctx)


# ---------------------------------------------------------------------------
# Integer-lift Smith reduction for quotient invariants.
# ---------------------------------------------------------------------------


def _smith_with_colbasis(rel_rows: list[list[int]], r: int):
    """Diagonalize an integer relation matrix (rows x r) by row/column ops.

    Returns (diag, W) with diag the Smith diagonal (d1 | d2 | ...), and W
    tracking the inverse column basis: generator i of the presented group
    becomes sum_j W[i][j] * (old generator j).
    """
    m = [row[:] for row in rel_rows]
    nrows = len(m)
    W = [[1 if i == j else 0 for j in range(r)] for i in range(r)]

    def col_swap(i: int, j: int) -> None:
        for row in m:
            row[i], row[j] = row[j], row[i]
        W[i], W[j] = W[j], W[i]

    def col_sub(j: int, q: int, i: int) -> None:
        # col_j -= q * col_i  mirrors as  W_i += q * W_j
        for row in m:
            row[j] -= q * row[i]
        W[i] = [a + q * b for a, b in zip(W[i], W[j])]

    def col_neg(i: int) -> None:
        for row in m:
            row[i] = -row[i]
        W[i] = [-a for a in W[i]]

    diag = []
    for t in range(r):
        while True:
            pi = pj = -1
            best = None
            for i in range(t, nrows):
                for j in range(t, r):
                    a = abs(m[i][j])
                    if a and (best is None or a < best):
                        best, pi, pj = a, i, j
            if best is None:
                diag.append(0)
                break
            m[t], m[pi] = m[pi], m[t]
            if pj != t:
                col_swap(t, pj)
            if m[t][t] < 0:
                col_neg(t)
            a = m[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                q = m[i][t] // a
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                if m[i][t]:
                    dirty = True
            for j in range(t + 1, r):
                q = m[t][j] // a
                if q:
                    col_sub(j, q, t)
                if m[t][j]:
                    dirty = True
            if dirty:
                continue
            # divisibility sweep: pivot must divide the remaining block
            offender = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, r):
                    if m[i][j] % a:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                diag.append(a)
                break
            m[t] = [x + y for x, y in zip(m[t], m[offender])]
    return diag, W


def quotient_decomposition(s: Submodule, t: Submodule):
    """Invariant factors of s/t plus witness vectors generating each factor.

    Presents s/t by the generators of s; the relation lattice (coefficient
    vectors landing in t, plus the p^n-multiple relations) is lifted to the
    integers and brought to Smith diagonal form.
    """
    if s.ctx != t.ctx or s.ambient_rank != t.ambient_rank:
        raise DimensionMismatch("submodules live in different ambient modules")
    if not t.le(s):
        raise NotASubmodule("second argument is not contained in the first")
    gens_s = s.generators
    r = len(gens_s)
    if r == 0:
        return [], []
    N = s.ctx.modulus
    stacked = gens_s + t.generators
    _, _, K = _howell(stacked, s.ambient_rank, s.ctx, transform=True)
    rel = [k[:r] for k in K]
    rel += [[N if i == j else 0 for j in range(r)] for i in range(r)]
    diag, W = _smith_with_colbasis(rel, r)
    invariants = []
    witnesses = []
    for i, d in enumerate(diag):
        if d == 0 or N % d:
            raise AssertionError("relation lattice must have full rank dividing p^n")
        if d > 1:
            invariants.append(d)
            acc = [0] * s.ambient_rank
            for coeff, grow in zip(W[i], gens_s):
                if coeff % N:
                    acc = [(a + coeff * b) % N for a, b in zip(acc, grow)]
            witnesses.append(tuple(acc))
    return invariants, witnesses


def quotient_invariants(s: Submodule, t: Submodule) -> list[int]:
    """Invariant factors of s/t (powers of p > 1, in divisibility order)."""
    invariants, _ = quotient_decomposition(s, t)
    return invariants
