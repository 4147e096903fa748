"""Exact linear algebra over the residue ring Z/p^nZ.

For n > 1 the ring has zero divisors, so textbook Gaussian elimination
neither canonicalizes row spaces nor finds complete kernels.  Row spaces
are therefore kept in a Howell-style normal form: pivots are exact powers
of p, entries above a pivot are reduced modulo the pivot, and for every
pivot of positive valuation an annihilator multiple of the pivot row is
fed back into the elimination.  The resulting form is unique per
submodule and supports membership tests by greedy reduction.  Left
kernels and solutions come from the same elimination, run on the rows
with an identity block appended.

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


def _check_rows(rows: Sequence[Sequence[int]], ncols: int) -> None:
    """Raise DimensionMismatch unless every row has ncols entries."""
    for r in rows:
        if len(r) != ncols:
            raise DimensionMismatch(f"row of length {len(r)} in a matrix of {ncols} columns")


def _howell(rows: Sequence[Sequence[int]], ncols: int, ctx: ModulusContext):
    """Howell elimination over Z/p^n, pivoting on the first ncols columns.

    Returns (work, r). Every row operation acts on whole rows, so any
    columns past ncols ride along: the first r rows of work carry the Howell
    normal form of the leading block, and the rows past r vanish on it.
    Appending p^(n-v) multiples of every pivot row of valuation v > 0 is
    what makes the form canonical and, through the rows past r, the left
    kernel complete. Every such row is appended, even a zero one, so the
    raw rows past r do not depend on which of them vanish.
    """
    N, p, nexp = ctx.modulus, ctx.p, ctx.n
    work = [[int(e) % N for e in r] for r in rows]

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
        v = bestv
        piv = p**v
        u = pow(work[r][c] // piv, -1, N)
        if u != 1:
            work[r] = [(u * e) % N for e in work[r]]
        wr = work[r]
        # clear below: every entry in this column at rows > r has valuation >= v
        for i in range(r + 1, len(work)):
            e = work[i][c]
            if e:
                q = e // piv
                work[i] = [(a - q * b) % N for a, b in zip(work[i], wr)]
        # reduce above modulo the pivot
        for i in range(r):
            q = work[i][c] // piv
            if q:
                work[i] = [(a - q * b) % N for a, b in zip(work[i], wr)]
        # annihilator feedback keeps the span Howell-complete
        if v > 0:
            ann = p ** (nexp - v)
            work.append([(ann * e) % N for e in wr])
        r += 1
    return work, r


def _with_identity(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """The rows (row_i | e_i): after elimination the identity part of each
    row says which combination of the input rows it is."""
    _check_rows(rows, ncols)
    m = len(rows)
    return [[*row, *(int(i == j) for j in range(m))] for i, row in enumerate(rows)]


def _reduce_against(hrows: Sequence[Sequence[int]], vec: Sequence[int], ctx: ModulusContext) -> list[int]:
    """Greedy reduction of vec against Howell rows; returns the residual."""
    N = ctx.modulus
    res = [int(e) % N for e in vec]
    for row in hrows:
        j = next(k for k, e in enumerate(row) if e)
        # floor-dividing by the p-power pivot leaves the canonical remainder
        # in [0, piv); later rows have zero in column j, so this is complete
        q = res[j] // row[j]
        if q:
            res = [(a - q * b) % N for a, b in zip(res, row)]
    return res


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
        _check_rows(rows, ambient_rank)
        work, r = _howell(rows, ambient_rank, ctx)
        return cls(ambient_rank, tuple(map(tuple, work[:r])), ctx)

    @classmethod
    def zero(cls, ambient_rank: int, ctx: ModulusContext) -> "Submodule":
        return cls(ambient_rank, (), ctx)

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.coset_reduce(v))

    def coset_reduce(self, v: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of v + self (greedy Howell reduction)."""
        if len(v) != self.ambient_rank:
            raise DimensionMismatch("vector length differs from ambient rank")
        return tuple(_reduce_against(self.generators, v, self.ctx))

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
    work, r = _howell(_with_identity(rows, ncols), ncols, ctx)
    return [row[ncols:] for row in work[r:]]


def _columns(rows: Sequence[Sequence[int]], ncols: int) -> list:
    """The ncols columns of the matrix with these rows. Every row length is
    checked first, since zip would silently cut ragged rows to the shortest."""
    _check_rows(rows, ncols)
    return list(zip(*rows)) if rows else [()] * ncols


def kernel(rows: Sequence[Sequence[int]], ncols: int, ctx: ModulusContext) -> Submodule:
    """{x : rows * x = 0} in (Z/p^n)^ncols, via the left kernel of the transpose.

    With no rows that is the whole module.
    """
    return Submodule.span(_left_kernel(_columns(rows, ncols), len(rows), ctx), ncols, ctx)


def solve_linear(
    rows: Sequence[Sequence[int]], ncols: int, b: Sequence[int], ctx: ModulusContext
) -> Optional[tuple[int, ...]]:
    """Some x with rows * x = b, or None. Completeness comes from the Howell form.

    Eliminating the columns (col_j | e_j) turns each pivot row into (h | u)
    with h = sum_j u_j col_j. Reducing (b | 0) against the pivot rows leaves
    (0 | -x) with b = sum_j x_j col_j whenever b lies in the column span.
    """
    m = len(rows)
    if len(b) != m:
        raise DimensionMismatch(f"matrix has {m} rows, vector has {len(b)}")
    work, r = _howell(_with_identity(_columns(rows, ncols), m), m, ctx)
    res = _reduce_against(work[:r], list(b) + [0] * ncols, ctx)
    if any(res[:m]):
        return None
    N = ctx.modulus
    return tuple(-e % N for e in res[m:])


def image_contains(rows: Sequence[Sequence[int]], ncols: int, b: Sequence[int], ctx: ModulusContext) -> bool:
    """Whether b lies in the column span of the matrix (consistent with solve_linear)."""
    return Submodule.span(_columns(rows, ncols), len(rows), ctx).contains(b)


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
    rel = [k[:r] for k in _left_kernel(stacked, s.ambient_rank, s.ctx)]
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
