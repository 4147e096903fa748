"""Exact linear algebra over the residue ring Z/p^nZ.

For n > 1 the ring has zero divisors, so textbook Gaussian elimination
neither canonicalizes row spaces nor finds complete kernels.  Row spaces
are therefore kept in a Howell-style normal form: pivots are exact powers
of p, entries above a pivot are reduced modulo the pivot, and for every
pivot of positive valuation an annihilator multiple of the pivot row is
fed back into the elimination.  The resulting form is unique per
submodule and supports membership tests by greedy reduction.  Left
kernels and solutions come from the same elimination, run on the rows
with an identity block appended.  The elimination packs each row into
one int of fixed-width slots (Lamport, CACM 1975), so a row operation is
a few big-int operations that reduce every entry at once (Barrett,
CRYPTO '86); callers unpack only the rows and columns they read.

Quotients of finite modules are reported through their invariant factors.
quotient_invariants reads them off the orders |p^j S + T| of Howell spans,
n - 1 spans per quotient and no relation matrix; quotient_decomposition,
which also returns a witness vector per factor, lifts the relation matrix
to the integers (appending the p^n-multiple relations) and reduces it to
diagonal Smith form, whose column basis gives the witnesses.

Vectors are tuples of plain Python integers and matrices are sequences of
such rows; p^n never leaves the exact range.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from functools import lru_cache
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import DimensionMismatch, NotASubmodule, NotAUnit


# Largest modulus p^n a context accepts.
MAX_MODULUS = 2**32

# array type codes of the machine words, by size in bytes
_WORD_CODES = {array(code).itemsize: code for code in "BHIQ"}
_BIG_ENDIAN = sys.byteorder == "big"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _read_only(self, name: str, *value) -> None:
    """__setattr__ and __delattr__ of the slotted records: fields are set once, in __init__."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class ModulusContext:
    """The pair (p, n) fixing the ring Z/p^nZ."""

    __slots__ = ("p", "n", "modulus")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, p: int, n: int) -> None:
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
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modulus", p**n)

    def __eq__(self, other) -> bool:
        if other.__class__ is not ModulusContext:
            return NotImplemented
        return self.p == other.p and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.p, self.n))

    def __repr__(self) -> str:
        return f"ModulusContext(p={self.p!r}, n={self.n!r})"

    def __reduce__(self):
        return ModulusContext, (self.p, self.n)

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


@lru_cache(maxsize=256)
def _layout(N: int, count: int) -> tuple:
    """Slot size and reduction constants for rows of count entries mod N.

    With m = ceil(2^s / N) and (-2^s mod N) * N^2 < 2^s, (x*m) >> s is
    x // N for every x < N^2 (Granlund and Montgomery, PLDI '94); a slot
    holds x*m, so x - ((x*m >> s) & qmask)*N reduces all slots below N^2
    at once. top and bias test that every slot lies in [0, N).
    """
    s = N.bit_length()
    while (N * N - 1) * (-(1 << s) % N) >= 1 << s:
        s += 1
    m = -(-(1 << s) // N)
    size = 1
    while 8 * size < ((N * N - 1) * m).bit_length():
        size *= 2
    W = 8 * size
    ones = ((1 << W * count) - 1) // ((1 << W) - 1)
    top = ones << (W - 1)
    return W, size, s, m, ones * ((1 << (W - s)) - 1), ones * N, top, top - ones * N


def _restride(blob, src: int, dst: int, count: int) -> bytearray:
    """count little-endian words of src bytes as words of dst bytes."""
    out = bytearray(dst * count)
    for b in range(min(src, dst)):
        out[b::dst] = blob[b::src]
    return out


def _words(packed: list, count: int, size: int) -> array:
    """The count slots of size bytes of each packed int, in slot order, as
    one array; a slot past 8 bytes (the wide path) keeps its low 8."""
    blob = b"".join([x.to_bytes(size * count, "little") for x in packed])
    if size > 8:
        blob = _restride(blob, size, 8, count * len(packed))
    words = array(_WORD_CODES[min(size, 8)], blob)
    if _BIG_ENDIAN:
        words.byteswap()
    return words


def _pack(row, lay: tuple) -> int:
    """One row as one int of slots: an unsigned array row as its words, any
    other as words of the slot size. OverflowError if an entry is not in
    [0, N)."""
    size, top, bias = lay[1], lay[6], lay[7]
    unsigned = isinstance(row, array) and row.typecode in "BHILQ"
    words = row if unsigned else array(_WORD_CODES[min(size, 8)], row)
    if _BIG_ENDIAN:
        words = array(words.typecode, words)
        words.byteswap()
    blob = words.tobytes()
    if words.itemsize != size:
        blob = _restride(blob, words.itemsize, size, len(words))
    x = int.from_bytes(blob, "little")
    if x & top or (x + bias) & top:
        raise OverflowError("entry outside [0, N)")
    return x


def _howell(rows: Sequence[Sequence[int]], ncols: int, ctx: ModulusContext):
    """Howell elimination over Z/p^n, pivoting on the first ncols columns.

    Returns (work, r, size), rows packed in slots of size bytes (_slots).
    Row operations act on whole rows, so columns past ncols ride along: the
    first r rows carry the Howell form of the leading block, the rest vanish on it.
    Appending p^(n-v) multiples of every pivot row of valuation v > 0 is
    what makes the form canonical and, through the rows past r, the left
    kernel complete. Every such row is appended, even a zero one, so the
    raw rows past r do not depend on which of them vanish. On packed rows
    (a - q*b) mod N is a + q*(N*ones - b) and one reduction, and the next
    pivot column is the lowest nonzero slot of the OR of the rows from r.
    """
    if not rows:
        return [], 0, 1
    N, p, nexp = ctx.modulus, ctx.p, ctx.n
    count = len(rows[0])
    lay = _layout(N, count)
    W, size, s, m, qmask, lift, _, _ = lay
    slot = (1 << W) - 1
    leading = (1 << W * ncols) - 1
    try:
        work = [_pack(row, lay) for row in rows]
    except (TypeError, OverflowError):
        work = [_pack([int(e) % N for e in row], lay) for row in rows]
    r = 0
    while r < len(work):
        below = 0
        for x in work[r:]:
            below |= x
        below &= leading
        if not below:
            break
        shift = (below & -below).bit_length() - 1
        shift -= shift % W
        # pivot: the row at or below r whose entry has least valuation
        best, bestv = -1, nexp
        for i in range(r, len(work)):
            a = (work[i] >> shift) & slot
            if a:
                v = ctx.valuation(a) if a % p == 0 else 0
                if v < bestv:
                    best, bestv = i, v
                    if v == 0:
                        break
        work[r], work[best] = work[best], work[r]
        piv = p**bestv
        wr = work[r]
        a = (wr >> shift) & slot
        if a != piv:
            wr = pow(a // piv, -1, N) * wr
            work[r] = wr = wr - ((wr * m >> s) & qmask) * N
        minus = lift - wr
        # clear below, where every entry in this column has valuation at
        # least the pivot's, and reduce above modulo the pivot
        for i in range(len(work)):
            q = ((work[i] >> shift) & slot) // piv
            if q and i != r:
                x = work[i] + q * minus
                work[i] = x - ((x * m >> s) & qmask) * N
        # annihilator feedback keeps the span Howell-complete
        if bestv > 0:
            x = p ** (nexp - bestv) * wr
            work.append(x - ((x * m >> s) & qmask) * N)
        r += 1
    return work, r, size


def _slots(packed: list, size: int, count: int, start: int = 0) -> list:
    """Slots start..count of each packed int of count slots, as lists."""
    n = count - start
    flat = _words([x >> 8 * size * start for x in packed], n, size).tolist()
    return [flat[i * n : i * n + n] for i in range(len(packed))]


def _with_identity(rows: Sequence[Sequence[int]], ncols: int) -> list:
    """The rows (row_i | e_i): after elimination the identity part of each
    row says which combination of the input rows it is. Array rows stay
    arrays, whose words _pack copies without reading an entry."""
    _check_rows(rows, ncols)
    units = [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]
    return [
        row + array(row.typecode, e) if isinstance(row, array) else [*row, *e]
        for row, e in zip(rows, units)
    ]


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


class Submodule(NamedTuple):
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
        work, r, size = _howell(rows, ambient_rank, ctx)
        return cls(ambient_rank, tuple(map(tuple, _slots(work[:r], size, ambient_rank))), ctx)

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
        return math.prod(self.ctx.modulus // next(e for e in g if e) for g in self.generators)

    def is_zero(self) -> bool:
        return not self.generators

    def vectors(self) -> Iterator[tuple[int, ...]]:
        """All elements (cardinality-many; caller guards sizes)."""
        N = self.ctx.modulus
        ranges = [range(N // next(e for e in g if e)) for g in self.generators]
        cols = list(zip(*self.generators, [0] * self.ambient_rank))
        for coeffs in itertools.product(*ranges):
            yield tuple(sum(map(mul, coeffs, col)) % N for col in cols)

    def le(self, other: "Submodule") -> bool:
        """Containment self <= other."""
        return all(other.contains(g) for g in self.generators)


def _left_kernel(rows: Sequence[Sequence[int]], ncols: int, ctx: ModulusContext) -> list[list[int]]:
    """Rows generating {y : y * rows = 0}, raw from one elimination: not in
    normal form, and possibly with zero or repeated rows."""
    work, r, size = _howell(_with_identity(rows, ncols), ncols, ctx)
    return _slots(work[r:], size, ncols + len(rows), ncols)


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
    work, r, size = _howell(_with_identity(_columns(rows, ncols), m), m, ctx)
    res = _reduce_against(_slots(work[:r], size, m + ncols), list(b) + [0] * ncols, ctx)
    if any(res[:m]):
        return None
    N = ctx.modulus
    return tuple(-e % N for e in res[m:])


def annihilator(s: Submodule) -> Submodule:
    """{y : g . y = 0 for all g in s}. Annihilators are reflexive over Z/p^n."""
    return kernel(s.generators, s.ambient_rank, s.ctx)


# ---------------------------------------------------------------------------
# Quotient invariants: Howell orders, and a Smith reduction for witnesses.
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
                for row in m:
                    row[t], row[pj] = row[pj], row[t]
                W[t], W[pj] = W[pj], W[t]
            if m[t][t] < 0:
                for row in m:
                    row[t] = -row[t]
                W[t] = [-a for a in W[t]]
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
                    # col_j -= q * col_t  mirrors as  W_t += q * W_j
                    for row in m:
                        row[j] -= q * row[t]
                    W[t] = [x + q * y for x, y in zip(W[t], W[j])]
                if m[t][j]:
                    dirty = True
            if dirty:
                continue
            # divisibility sweep: pivot must divide the remaining block
            rest = range(t + 1, r)
            offender = next((i for i in range(t + 1, nrows) for j in rest if m[i][j] % a), None)
            if offender is None:
                diag.append(a)
                break
            m[t] = [x + y for x, y in zip(m[t], m[offender])]
    return diag, W


def _check_quotient(s: Submodule, t: Submodule) -> None:
    """Raise unless t is a submodule of s in the same ambient module."""
    if s.ctx != t.ctx or s.ambient_rank != t.ambient_rank:
        raise DimensionMismatch("submodules live in different ambient modules")
    if not t.le(s):
        raise NotASubmodule("second argument is not contained in the first")


def quotient_decomposition(s: Submodule, t: Submodule):
    """Invariant factors of s/t plus witness vectors generating each factor.

    Presents s/t by the generators of s; the relation lattice (coefficient
    vectors landing in t, plus the p^n-multiple relations) is lifted to the
    integers and brought to Smith diagonal form, whose column basis gives
    the witnesses.
    """
    _check_quotient(s, t)
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
            witnesses.append(tuple(sum(map(mul, W[i], col)) % N for col in zip(*gens_s)))
    return invariants, witnesses


def quotient_invariants(s: Submodule, t: Submodule) -> list[int]:
    """Invariant factors of s/t (powers of p > 1, in divisibility order).

    If s/t is the sum of the Z/p^e_i, then p^j (s/t) = (p^j s + t)/t has
    order p^(c_j) with c_j the sum of the max(e_i - j, 0), so c_(j-1) - c_j
    counts the e_i >= j, and one more difference counts those equal to j.
    The order of s + t = s gives c_0, that of p^n s + t = t gives c_n = 0,
    and each 0 < j < n takes one Howell span: n - 1 spans, and no Smith
    reduction.
    """
    _check_quotient(s, t)
    ctx = s.ctx
    p, N = ctx.p, ctx.modulus
    orders = [s.cardinality()]
    for j in range(1, ctx.n):
        rows = [[p**j * e % N for e in g] for g in s.generators] + list(t.generators)
        orders.append(Submodule.span(rows, s.ambient_rank, ctx).cardinality())
    orders.append(t.cardinality())
    # at_least[j - 1] is c_(j-1) - c_j, the number of factors p^e with e >= j
    at_least = []
    for big, small in zip(orders, orders[1:]):
        q, e = big // small, 0
        while q > 1:
            q //= p
            e += 1
        at_least.append(e)
    at_least.append(0)
    return [p ** (j + 1) for j in range(ctx.n) for _ in range(at_least[j] - at_least[j + 1])]
