"""Tests for exact linear algebra over Z/p^nZ.

Frozen values here were computed by the enumeration oracles in this file
(span/kernel/solution-set enumeration over small rings) and are asserted
as literals where the operations under test could regress silently.
"""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from array import array

from cohomlab import zmod
from cohomlab.errors import DimensionMismatch, NotASubmodule, NotAUnit
from cohomlab.zmod import (
    ModulusContext,
    Submodule,
    _howell,
    _layout,
    _left_kernel,
    _slots,
    _with_identity,
    annihilator,
    kernel,
    quotient_decomposition,
    quotient_invariants,
    solve_linear,
    unit_inverse,
)

Z9 = ModulusContext(3, 2)
Z3 = ModulusContext(3, 1)
Z4 = ModulusContext(2, 2)
Z25 = ModulusContext(5, 2)


# ---------------------------------------------------------------------------
# enumeration oracles
# ---------------------------------------------------------------------------


def enumerate_span(rows, rank, ctx):
    """All Z/p^n-linear combinations of the rows, as a frozenset of tuples."""
    N = ctx.modulus
    seen = {(0,) * rank}
    frontier = [(0,) * rank]
    while frontier:
        v = frontier.pop()
        for row in rows:
            w = tuple((a + b) % N for a, b in zip(v, row))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def mat_vec(rows, x, N):
    """The product of the matrix with these rows and the column vector x, mod N."""
    return tuple(sum(a * b for a, b in zip(row, x)) % N for row in rows)


def brute_kernel(rows, ncols, ctx):
    N = ctx.modulus
    zero = (0,) * len(rows)
    return {x for x in itertools.product(range(N), repeat=ncols) if mat_vec(rows, x, N) == zero}


def brute_solutions(rows, ncols, b, ctx):
    N = ctx.modulus
    return {x for x in itertools.product(range(N), repeat=ncols) if mat_vec(rows, x, N) == tuple(b)}


def brute_invariants(s_set, t_set, ctx):
    """Invariant factors of the quotient of two enumerated submodules."""
    p, n = ctx.p, ctx.n
    sizes = []
    cur = s_set
    for _ in range(n + 1):
        summed = {tuple((a + b) % ctx.modulus for a, b in zip(x, y)) for x in cur for y in t_set}
        sizes.append(len(summed) // len(t_set))
        cur = {tuple((p * a) % ctx.modulus for a in x) for x in cur}
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


def small_contexts():
    return [Z3, Z9, Z4, ModulusContext(2, 3), ModulusContext(5, 1)]


# ---------------------------------------------------------------------------
# ModulusContext / unit_inverse
# ---------------------------------------------------------------------------


def test_context_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ModulusContext(4, 1)
    with pytest.raises(ValueError):
        ModulusContext(1, 2)
    with pytest.raises(ValueError):
        ModulusContext(3, 0)
    with pytest.raises(ValueError):
        ModulusContext(3, True)
    with pytest.raises(ValueError):
        ModulusContext(True, 1)
    # p^n > 2^32; the first two would run for minutes if p^n were formed
    # or p trial-divided before the bound is checked
    for p, n in ((2305843009213693951, 1), (3, 10**9), (2, 33), (65537, 2)):
        with pytest.raises(ValueError):
            ModulusContext(p, n)
    assert ModulusContext(2, 32).modulus == 2**32


def test_context_modulus():
    assert Z9.modulus == 9
    assert ModulusContext(2, 6).modulus == 64


def test_unit_inverse_examples():
    assert unit_inverse(2, Z9) == 5
    assert unit_inverse(1, ModulusContext(2, 1)) == 1
    with pytest.raises(NotAUnit):
        unit_inverse(6, Z9)
    with pytest.raises(NotAUnit):
        unit_inverse(0, Z3)
    with pytest.raises(ValueError):
        unit_inverse(9, Z9)


@pytest.mark.parametrize(
    "ctx",
    [ModulusContext(2, 6), ModulusContext(3, 4), ModulusContext(5, 3), ModulusContext(7, 2), ModulusContext(11, 2), ModulusContext(13, 1)],
)
def test_unit_inverse_exhaustive(ctx):
    for a in range(ctx.modulus):
        if a % ctx.p:
            assert (unit_inverse(a, ctx) * a) % ctx.modulus == 1
        else:
            with pytest.raises(NotAUnit):
                unit_inverse(a, ctx)


# ---------------------------------------------------------------------------
# canonical row form: the generators of Submodule.span
# ---------------------------------------------------------------------------


def test_canonical_row_form_zero_matrix_is_empty():
    h = Submodule.span([[0, 0], [0, 0]], 2, Z9)
    assert h.generators == () and h.ambient_rank == 2


def test_canonical_row_form_identity_fixed():
    assert Submodule.span([[1, 0], [0, 1]], 2, Z9).generators == ((1, 0), (0, 1))


def test_canonical_row_form_frozen_example():
    # span{(3,3),(0,3)} = span{(3,0),(0,3)} in (Z/9)^2, 9 elements
    h = Submodule.span([[3, 3], [0, 3]], 2, Z9)
    assert h.generators == ((3, 0), (0, 3))
    assert enumerate_span([[3, 3], [0, 3]], 2, Z9) == enumerate_span(h.generators, 2, Z9)


def test_canonical_row_form_unique_per_span():
    # every spanning subset of a fixed submodule canonicalizes identically
    target = enumerate_span([[3, 0], [0, 3]], 2, Z9)
    vecs = sorted(target)
    hits = 0
    for pair in itertools.combinations(vecs, 2):
        if enumerate_span(pair, 2, Z9) == target:
            hits += 1
            assert Submodule.span(pair, 2, Z9).generators == ((3, 0), (0, 3))
    assert hits > 1


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_canonical_row_form_idempotent_and_span_preserving(data):
    ctx = data.draw(st.sampled_from(small_contexts()))
    rank = data.draw(st.integers(min_value=1, max_value=3))
    nrows = data.draw(st.integers(min_value=1, max_value=3))
    rows = [
        [data.draw(st.integers(min_value=0, max_value=ctx.modulus - 1)) for _ in range(rank)]
        for _ in range(nrows)
    ]
    h = Submodule.span(rows, rank, ctx).generators
    assert Submodule.span(h, rank, ctx).generators == h
    assert enumerate_span(rows, rank, ctx) == enumerate_span(h, rank, ctx)
    # ordered by pivot column, pivots are p-powers, entries above reduced
    pivots = []
    for row in h:
        j = next(k for k, e in enumerate(row) if e)
        pivots.append(j)
        piv = row[j]
        assert piv == ctx.p ** ctx.valuation(piv)
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)


# ---------------------------------------------------------------------------
# solve_linear / kernel
# ---------------------------------------------------------------------------


def test_solve_linear_square_example():
    m = [[0, 6], [6, 7]]
    x = solve_linear(m, 2, (0, 6), Z9)
    assert x is not None and mat_vec(m, x, 9) == (0, 6)
    assert mat_vec(m, (0, 6), 9) == (0, 6)  # the known witness also solves


def test_solve_linear_identity():
    assert solve_linear([[1, 0], [0, 1]], 2, (4, 7), Z9) == (4, 7)


def test_solve_linear_unsolvable():
    assert solve_linear([[3, 0], [0, 3]], 2, (1, 0), Z9) is None


def test_solve_linear_dimension_mismatch():
    # a right-hand side longer or shorter than the column of the matrix
    for b in ((1, 0, 0), (1,)):
        with pytest.raises(DimensionMismatch):
            solve_linear([[1, 0], [0, 1]], 2, b, Z9)


def test_ragged_rows_raise():
    # zip would cut the transpose to the shortest row without the check, and
    # the elimination would index past the end of a short row
    for rows in ([[1, 0], [0]], [[1], [0, 1]], [[1, 0, 0], [0, 1]]):
        with pytest.raises(DimensionMismatch):
            kernel(rows, 2, Z9)
        with pytest.raises(DimensionMismatch):
            solve_linear(rows, 2, (0, 0), Z9)
        with pytest.raises(DimensionMismatch):
            Submodule.span(rows, 2, Z9)
        with pytest.raises(DimensionMismatch):
            _left_kernel(rows, 2, Z9)


def test_kernel_identity_trivial():
    assert kernel([[1, 0], [0, 1]], 2, Z9).is_zero()


def test_kernel_of_no_rows_is_everything():
    k = kernel([], 2, Z9)
    assert k.cardinality() == 81 and k.generators == ((1, 0), (0, 1))


def test_kernel_zero_matrix_mod3_is_everything():
    assert kernel([[3, 3], [0, 3]], 2, Z3).cardinality() == 9


def test_kernel_unipotent_difference():
    # sigma - I = [[0,1],[0,0]] over Z/3: kernel is the first coordinate line
    k = kernel([[0, 1], [0, 0]], 2, Z3)
    assert k.cardinality() == 3
    assert k.generators == ((1, 0),)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_solve_and_kernel_match_enumeration(data):
    ctx = data.draw(st.sampled_from(small_contexts()))
    nrows = data.draw(st.integers(min_value=1, max_value=3))
    cols = data.draw(st.integers(min_value=1, max_value=3))
    m = [[data.draw(st.integers(min_value=0, max_value=ctx.modulus - 1)) for _ in range(cols)] for _ in range(nrows)]
    b = tuple(data.draw(st.integers(min_value=0, max_value=ctx.modulus - 1)) for _ in range(nrows))
    sols = brute_solutions(m, cols, b, ctx)
    x = solve_linear(m, cols, b, ctx)
    assert (x is not None) == bool(sols)
    if x is not None:
        assert x in sols
    assert set(kernel(m, cols, ctx).vectors()) == brute_kernel(m, cols, ctx)


def test_image_contains_zero_cases():
    # membership in the image of the zero matrix, read off solve_linear
    z = [[0, 0], [0, 0]]
    assert solve_linear(z, 2, (0, 0), Z9) is not None
    assert solve_linear(z, 2, (0, 3), Z9) is None


# ---------------------------------------------------------------------------
# raw outputs pinned on a seeded corpus
# ---------------------------------------------------------------------------


def zmod_corpus():
    """Seeded matrices over Z/4, Z/8, Z/9, Z/25 and Z/27 with the raw outputs
    of the elimination: zero-row matrices, single rows, zero rows inside a
    matrix and p-power entries all occur."""
    rng = random.Random(20240615)
    out = []
    for p, n in ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3)):
        ctx = ModulusContext(p, n)
        N = ctx.modulus

        def entry():
            r = rng.random()
            if r < 0.3:
                return 0
            if r < 0.6:
                return p ** rng.randrange(1, n) * rng.randrange(1, p)
            return rng.randrange(N)

        for _ in range(60):
            ncols = rng.randrange(1, 5)
            nrows = rng.choice((0, 1, 1, 2, 3, 4, 5))
            rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
            if nrows and rng.random() < 0.3:
                rows[rng.randrange(nrows)] = [0] * ncols
            x0 = [entry() for _ in range(ncols)]
            b_in = mat_vec(rows, x0, N)
            b_rand = tuple(entry() for _ in rows)
            s = Submodule.span(rows, ncols, ctx)
            sub = [[(p * e) % N for e in r] for r in rows]
            sub += [[(a + b) % N for a, b in zip(r1, r2)] for r1, r2 in zip(rows, rows[1:])][:1]
            t = Submodule.span(sub, ncols, ctx)
            out.append(
                (
                    (p, n, ncols, rows),
                    _left_kernel(rows, ncols, ctx),
                    solve_linear(rows, ncols, b_in, ctx),
                    solve_linear(rows, ncols, b_rand, ctx),
                    s.generators,
                    kernel(rows, ncols, ctx).generators,
                    quotient_decomposition(s, t),
                    quotient_decomposition(s, Submodule.zero(ncols, ctx)),
                )
            )
    return out


def test_raw_outputs_pinned_on_seeded_corpus():
    # Witness bytes depend on the raw left-kernel rows (zero and repeated
    # rows included) through the pivot order of the Smith reduction, so the
    # rows themselves are pinned, not only the submodules they span.
    corpus = zmod_corpus()
    assert len(corpus) == 300
    assert sum(1 for case in corpus if not case[0][3]) == 47
    assert all(case[2] is not None for case in corpus)
    assert sum(1 for case in corpus if case[3] is None) == 170
    digest = hashlib.sha256(repr(corpus).encode()).hexdigest()
    assert digest == "6e676259d3ed4f409e2a3d4bab55c103bd0f2022bed377ce7f60dab55ee0ad26"
    # (3, 1 | 1) pivots at 3 in column 0; its annihilator row (0, 9 | 9)
    # pivots at 9 in column 1, and that row's annihilator 3 * (0, 9 | 9)
    # vanishes mod 27 in both parts but is still returned
    assert _left_kernel([[3, 1]], 2, ModulusContext(3, 3)) == [[0]]


def zmod_wide_corpus():
    """Seeded cases the 300-case corpus does not reach, with the raw outputs
    of the elimination: spans up to 3000 columns wide, left kernels of up to
    8 x 2000 matrices (a 6 x 3000 one shaped like the Z1 cut of cohom, whose
    rows are the columns of the constraint matrix), and matrices over the
    extreme moduli 65521^2, 2^32 and 3^20. Entries N - 1 under a unit pivot
    give quotients N - 1 against entries N - 1, the largest value a row
    operation forms before it is reduced."""
    rng = random.Random(20261019)
    out = []

    def entry(ctx, zeros):
        p, n, N = ctx.p, ctx.n, ctx.modulus
        r = rng.random()
        if r < zeros:
            return 0
        if r < zeros + (1 - zeros) / 3:
            return N - 1
        if r < zeros + 2 * (1 - zeros) / 3 and n > 1:
            return p ** rng.randrange(1, n) * rng.randrange(1, p) % N
        return rng.randrange(N)

    for (p, n), shapes in (
        ((3, 2), ((1, 1000), (3, 3000), (8, 2000))),
        ((5, 2), ((6, 3000), (2, 2500))),
        ((2, 3), ((4, 1500),)),
        ((3, 3), ((6, 1200),)),
    ):
        ctx = ModulusContext(p, n)
        for nrows, ncols in shapes:
            rows = [[entry(ctx, 0.9) for _ in range(ncols)] for _ in range(nrows)]
            rows[rng.randrange(nrows)][rng.randrange(ncols)] = p
            if nrows > 2:
                # a dependent last row, so that the left kernel is not zero
                rows[-1] = [(a + p * b) % ctx.modulus for a, b in zip(rows[0], rows[1])]
            out.append(((p, n, nrows, ncols), Submodule.span(rows, ncols, ctx).generators, _left_kernel(rows, ncols, ctx)))

    for p, n in ((65521, 2), (2, 32), (3, 20)):
        ctx = ModulusContext(p, n)
        N = ctx.modulus
        fixed = [
            [[1, 0, 0], [N - 1, N - 1, N - 1]],
            [[N - 1, N - 1], [N - 1, 1]],
            [[p, N - 1], [N - 1, N - 1], [N - p, 0]],
            [[N - 1] * 4 for _ in range(3)],
        ]
        shaped = [
            [[entry(ctx, 0.3) for _ in range(ncols)] for _ in range(nrows)]
            for nrows, ncols in ((1, 1), (2, 2), (3, 2), (2, 4), (5, 3), (4, 4), (6, 5))
            for _ in range(4)
        ]
        for rows in fixed + shaped:
            ncols = len(rows[0])
            s = Submodule.span(rows, ncols, ctx)
            t = Submodule.span([[p * e % N for e in r] for r in rows], ncols, ctx)
            out.append(
                (
                    (p, n, rows),
                    s.generators,
                    _left_kernel(rows, ncols, ctx),
                    kernel(rows, ncols, ctx).generators,
                    solve_linear(rows, ncols, mat_vec(rows, [N - 1] * ncols, N), ctx),
                    solve_linear(rows, ncols, [N - 1] * len(rows), ctx),
                    quotient_decomposition(s, t),
                )
            )
        rows = [[entry(ctx, 0.6) for _ in range(300)] for _ in range(5)]
        out.append(((p, n, 5, 300), Submodule.span(rows, 300, ctx).generators, _left_kernel(rows, 300, ctx)))
    return out


def test_raw_outputs_pinned_on_wide_and_extreme_cases():
    corpus = zmod_wide_corpus()
    assert len(corpus) == 7 + 3 * (4 + 28 + 1)
    digest = hashlib.sha256(repr(corpus).encode()).hexdigest()
    assert digest == "ecf567efc74abe0e38930d64906851ab5d44b9a4c0cbf42f04ef3aa448a49c13"


def howell_rows(rows, ncols, ctx):
    """_howell's worked rows unpacked at full width, with the pivot count."""
    work, r, size = _howell(rows, ncols, ctx)
    return _slots(work, size, len(rows[0])), r


def list_row_howell(rows, ncols, ctx):
    """Reference elimination: the Howell elimination on lists of entries,
    walked column by column and row by row, that the packed rows replaced.
    Same pivots, same row operations, every feedback row appended."""
    N, p, nexp = ctx.modulus, ctx.p, ctx.n
    work = [[int(e) % N for e in r] for r in rows]
    r = 0
    for c in range(ncols):
        if r >= len(work):
            break
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
        for i in range(r + 1, len(work)):
            e = work[i][c]
            if e:
                q = e // piv
                work[i] = [(a - q * b) % N for a, b in zip(work[i], wr)]
        for i in range(r):
            q = work[i][c] // piv
            if q:
                work[i] = [(a - q * b) % N for a, b in zip(work[i], wr)]
        if v > 0:
            ann = p ** (nexp - v)
            work.append([(ann * e) % N for e in wr])
        r += 1
    return work, r


# one modulus per slot width of the packed rows: 8, 16, 32, 64 and 128 bits
SLOT_WIDTH_CONTEXTS = [
    (ModulusContext(2, 3), 8),
    (ModulusContext(3, 1), 8),
    (ModulusContext(3, 2), 16),
    (ModulusContext(5, 2), 16),
    (ModulusContext(3, 3), 32),
    (ModulusContext(13, 2), 32),
    (ModulusContext(5, 4), 64),
    (ModulusContext(2, 16), 64),
    (ModulusContext(7, 6), 128),
    (ModulusContext(65521, 2), 128),
    (ModulusContext(2, 32), 128),
    (ModulusContext(3, 20), 128),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_howell_matches_list_rows(data):
    ctx, width = data.draw(st.sampled_from(SLOT_WIDTH_CONTEXTS))
    assert _layout(ctx.modulus, 1)[0] == width
    p, n, N = ctx.p, ctx.n, ctx.modulus
    nrows = data.draw(st.integers(min_value=1, max_value=8))
    ncols = data.draw(st.sampled_from([1, 2, 3, 4, 7, 30, 300, 2000]))
    extra = data.draw(st.integers(min_value=0, max_value=3))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    zeros = rng.random()

    def entry():
        t = rng.random()
        if t < zeros:
            return 0
        t = rng.random()
        if t < 0.3:
            return p ** rng.randrange(n) * rng.randrange(1, p) % N
        if t < 0.5:
            return N - 1
        return rng.randrange(N)

    rows = [[entry() for _ in range(ncols + extra)] for _ in range(nrows)]
    if rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [0] * (ncols + extra)
    want = list_row_howell(rows, ncols, ctx)
    assert howell_rows(rows, ncols, ctx) == want
    # entries outside [0, N) are reduced first, negative or not
    for low in (-2, 0):
        shifted = [[e + N * rng.randrange(low, 3) for e in row] for row in rows]
        assert howell_rows(shifted, ncols, ctx) == want
    # array rows, as the Z1 cut of cohom passes them, in any word that holds N
    code = data.draw(st.sampled_from([c for c in "BHIQ" if N <= 256 ** array(c).itemsize]))
    assert howell_rows([array(code, row) for row in rows], ncols, ctx) == want
    identity = _with_identity([array(code, row) for row in rows], ncols + extra)
    assert howell_rows(identity, ncols, ctx) == list_row_howell(_with_identity(rows, ncols + extra), ncols, ctx)


def test_signed_and_float_array_rows_are_read_by_value():
    # only unsigned arrays are packed from their bytes: the bytes of -100 in
    # a signed char would read as 156, a residue mod 169 in its own right
    ctx = ModulusContext(13, 2)
    rows = [[-100, 5, 120], [3, -1, 0]]
    want = list_row_howell(rows, 3, ctx)
    for code in "bhilqd":
        assert howell_rows([array(code, row) for row in rows], 3, ctx) == want


# ---------------------------------------------------------------------------
# annihilator duality
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_annihilator_reflexive(data):
    ctx = data.draw(st.sampled_from(small_contexts()))
    rank = data.draw(st.integers(min_value=1, max_value=3))
    nrows = data.draw(st.integers(min_value=0, max_value=3))
    rows = [
        [data.draw(st.integers(min_value=0, max_value=ctx.modulus - 1)) for _ in range(rank)]
        for _ in range(nrows)
    ]
    s = Submodule.span(rows, rank, ctx)
    ann = annihilator(s)
    N = ctx.modulus
    for g in s.generators:
        for y in ann.generators:
            assert sum(a * b for a, b in zip(g, y)) % N == 0
    assert annihilator(ann) == s
    assert s.cardinality() * ann.cardinality() == N**rank


# ---------------------------------------------------------------------------
# quotient invariants
# ---------------------------------------------------------------------------


def test_quotient_trivial_when_equal():
    s = Submodule.span([[1, 0], [0, 1]], 2, Z9)
    assert quotient_invariants(s, s) == []


def test_quotient_full_by_line_mod3():
    s = Submodule.span([[1, 0], [0, 1]], 2, Z3)
    t = Submodule.span([[1, 0]], 2, Z3)
    assert quotient_invariants(s, t) == [3]


def test_quotient_rejects_non_submodule():
    s = Submodule.span([[3, 0]], 2, Z9)
    t = Submodule.span([[0, 3]], 2, Z9)
    with pytest.raises(NotASubmodule):
        quotient_invariants(s, t)


def test_quotient_full_by_zero_mod9():
    s = Submodule.span([[1, 0], [0, 1]], 2, Z9)
    assert quotient_invariants(s, Submodule.zero(2, Z9)) == [9, 9]


def test_quotient_mixed_orders():
    s = Submodule.span([[1, 0], [0, 3]], 2, Z9)
    assert quotient_invariants(s, Submodule.zero(2, Z9)) == [3, 9]
    t = Submodule.span([[3, 0]], 2, Z9)
    assert quotient_invariants(s, t) == [3, 3]


def test_quotient_witnesses_generate():
    s = Submodule.span([[1, 0], [0, 1]], 2, Z9)
    t = Submodule.span([[3, 0], [0, 3]], 2, Z9)
    invs, wits = quotient_decomposition(s, t)
    assert invs == [3, 3]
    assert len(wits) == 2
    # the witnesses plus t must regenerate s
    regen = Submodule.span([*wits, *t.generators], 2, Z9)
    assert regen == s


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_quotient_invariants_match_enumeration(data):
    ctx = data.draw(st.sampled_from([Z3, Z9, Z4]))
    rank = 2
    s_rows = [
        [data.draw(st.integers(min_value=0, max_value=ctx.modulus - 1)) for _ in range(rank)]
        for _ in range(data.draw(st.integers(min_value=0, max_value=2)))
    ]
    s = Submodule.span(s_rows, rank, ctx)
    # build t inside s by scaling/selecting generators
    t_rows = []
    for g in s.generators:
        k = data.draw(st.integers(min_value=0, max_value=ctx.modulus - 1))
        t_rows.append([(k * e) % ctx.modulus for e in g])
    t = Submodule.span(t_rows, rank, ctx)
    got = quotient_invariants(s, t)
    s_set = set(s.vectors())
    t_set = set(t.vectors())
    assert got == brute_invariants(s_set, t_set, ctx)
    prod = 1
    for d in got:
        prod *= d
    assert prod == s.cardinality() // t.cardinality()
    for i in range(len(got) - 1):
        assert got[i + 1] % got[i] == 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_quotient_invariants_match_the_smith_route(data):
    # the Howell-order route of quotient_invariants against the Smith
    # diagonal of quotient_decomposition, including t = 0 and t = s
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(min_value=1, max_value=5))
    rank = data.draw(st.integers(min_value=1, max_value=6))
    ctx = ModulusContext(p, n)
    N = ctx.modulus
    # entries p^v * u reach every valuation, so the quotients mix factor sizes
    entry = st.builds(lambda v, u: p**v * u % N, st.integers(0, n), st.integers(0, N - 1))
    s_rows = data.draw(st.lists(st.lists(entry, min_size=rank, max_size=rank), max_size=rank + 1))
    s = Submodule.span(s_rows, rank, ctx)
    kind = data.draw(st.sampled_from(["zero", "equal", "inside"]))
    if kind == "zero":
        t = Submodule.zero(rank, ctx)
    elif kind == "equal":
        t = s
    else:
        # multiples of combinations of the generators of s
        t_rows = []
        for _ in range(data.draw(st.integers(0, len(s.generators) + 1))):
            coeffs = [data.draw(entry) for _ in s.generators]
            t_rows.append([sum(c * g[i] for c, g in zip(coeffs, s.generators)) % N for i in range(rank)])
        t = Submodule.span(t_rows, rank, ctx)
    assert quotient_invariants(s, t) == quotient_decomposition(s, t)[0]


def test_quotient_invariants_take_n_minus_one_spans_and_no_smith_reduction(monkeypatch):
    def no_smith(*args):
        raise AssertionError("quotient_invariants reached the Smith reduction")

    monkeypatch.setattr(zmod, "_smith_with_colbasis", no_smith)
    span = Submodule.span
    calls = []

    def counted(cls, *args):
        calls.append(1)
        return span(*args)

    for n in (1, 2, 3, 5):
        ctx = ModulusContext(3, n)
        N = ctx.modulus
        s = Submodule.span([[1, 0, 3], [0, 3, 1]], 3, ctx)
        # 3 times the sum of the two rows of s
        t = Submodule.span([[3, 9 % N, 12 % N]], 3, ctx)
        monkeypatch.setattr(zmod.Submodule, "span", classmethod(counted))
        calls.clear()
        got = quotient_invariants(s, t)
        monkeypatch.setattr(zmod.Submodule, "span", span)
        assert len(calls) == n - 1, n
        assert math.prod(got) == s.cardinality() // t.cardinality()


def test_submodule_coset_reduce_canonical():
    s = Submodule.span([[3, 0], [0, 3]], 2, Z9)
    reps = {s.coset_reduce((a, b)) for a in range(9) for b in range(9)}
    assert len(reps) == 81 // 9
    for v in s.vectors():
        assert s.coset_reduce(v) == (0, 0)


def test_submodule_rejects_vectors_of_the_wrong_length():
    s = Submodule.span([[1, 0]], 2, Z9)
    for v in ((1, 2, 3, 4), (4,), (), (1, 2, 3)):
        with pytest.raises(DimensionMismatch):
            s.coset_reduce(v)
        with pytest.raises(DimensionMismatch):
            s.contains(v)
    assert s.coset_reduce((1, 2)) == (0, 2) and s.contains((4, 0))


@pytest.mark.parametrize("other", [Submodule.zero(2, Z3), Submodule.zero(3, Z9)])
def test_quotient_decomposition_rejects_different_ambient_modules(other):
    # another modulus, or another rank over the same modulus, on both routes
    for quotient in (quotient_decomposition, quotient_invariants):
        with pytest.raises(DimensionMismatch, match="different ambient modules"):
            quotient(Submodule.zero(2, Z9), other)


# ---------------------------------------------------------------------------
# table-sized steps on packed rows against list rows
# ---------------------------------------------------------------------------


def list_row_reduce(hrows, vec, ctx):
    """Reference: the greedy reduction on lists of entries that the packed
    rows replaced, one list rebuilt per row operation."""
    N = ctx.modulus
    res = [int(e) % N for e in vec]
    for row in hrows:
        j = next(k for k, e in enumerate(row) if e)
        q = res[j] // row[j]
        if q:
            res = [(a - q * b) % N for a, b in zip(res, row)]
    return res


def list_row_quotient_decomposition(s, t):
    """Reference: quotient_decomposition with the containment check and the
    witness combination on lists of entries."""
    if any(any(list_row_reduce(s.generators, g, s.ctx)) for g in t.generators):
        raise NotASubmodule("second argument is not contained in the first")
    gens_s, N = s.generators, s.ctx.modulus
    r = len(gens_s)
    if r == 0:
        return [], []
    rel = [k[:r] for k in _left_kernel(gens_s + t.generators, s.ambient_rank, s.ctx)]
    rel += [[N if i == j else 0 for j in range(r)] for i in range(r)]
    diag, W = zmod._smith_with_colbasis(rel, r)
    factors = [i for i, d in enumerate(diag) if d > 1]
    witnesses = [tuple(sum(c * e for c, e in zip(W[i], col)) % N for col in zip(*gens_s)) for i in factors]
    return [diag[i] for i in factors], witnesses


@pytest.mark.parametrize("ctx, width", SLOT_WIDTH_CONTEXTS)
def test_table_sized_steps_match_list_rows(ctx, width):
    # rows as wide as the value tables of the p = 13 family (2 * 338 = 676
    # entries), at every slot width of _layout
    assert _layout(ctx.modulus, 676)[0] == width
    p, n, N = ctx.p, ctx.n, ctx.modulus
    rng = random.Random(f"table-sized {p} {n}")

    def entry():
        t = rng.random()
        if t < 0.3:
            return 0
        if t < 0.5:
            return p ** rng.randrange(n) * rng.randrange(1, p) % N
        return N - 1 if t < 0.6 else rng.randrange(N)

    rows = [[entry() for _ in range(676)] for _ in range(4)]
    s = Submodule.span(rows, 676, ctx)
    t = Submodule.span([[p * e % N for e in rows[0]], [(a + b) % N for a, b in zip(rows[1], rows[2])]], 676, ctx)
    zero = Submodule.zero(676, ctx)
    for inner, outer in ((t, s), (s, t), (zero, t), (s, s), (t, zero)):
        want = not any(any(list_row_reduce(outer.generators, g, ctx)) for g in inner.generators)
        assert inner.le(outer) == want
    assert t.le(s) and not s.le(t)
    # coset_reduce and contains, entries outside [0, N) included
    vectors = [[entry() for _ in range(676)] for _ in range(3)]
    vectors += [rows[3], [e - N for e in rows[1]], [e + 3 * N for e in rows[0]]]
    for v in vectors:
        for sub in (s, t, zero):
            want = tuple(list_row_reduce(sub.generators, v, ctx))
            assert sub.coset_reduce(v) == want and sub.contains(v) == (not any(want))
    assert s.contains(rows[3]) and s.contains([e - N for e in rows[1]])
    for sub, by in ((s, t), (s, zero), (t, zero), (s, s)):
        assert quotient_decomposition(sub, by) == list_row_quotient_decomposition(sub, by)
    assert quotient_decomposition(s, t)[0]
    # t is a proper submodule of s, so s is not one of t
    for quotient in (quotient_decomposition, quotient_invariants):
        with pytest.raises(NotASubmodule):
            quotient(t, s)
    with pytest.raises(NotASubmodule):
        list_row_quotient_decomposition(t, s)
