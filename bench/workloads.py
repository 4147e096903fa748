"""Workload definitions: seeded group specs, the items that run them, and output checks.

Every spec is generated here with plain integer arithmetic, independent of
cohomlab, so the program under test only ever sees the generated files. The
seed shuffles generator order and conjugates each spec by a random element of
GL2(Z/p^n); every expected value checked below is invariant under both.
"""

from __future__ import annotations

import json
import random

FAMILY_PRIMES = (3, 5, 7, 11, 13)

# Generators of the three large groups. GL2(Z/9) is the whole group (order
# 3888, trivial H1). The two p = 5 groups come from the level-2 sampler of
# `falsify_main_theorem(5, seed=0)`: order 3125 with H1 = [5, 5, 5] and
# trivial L/B1, and order 5000 with trivial H1.
GL2_Z9 = (3, 2, [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 0], [0, 1]]])
ORDER_3125 = (5, 2, [[[1, 0], [0, 6]], [[1, 1], [0, 1]], [[1, 0], [5, 1]]])
ORDER_5000 = (5, 2, [[[6, 20], [15, 16]], [[0, 19], [13, 0]], [[16, 5], [20, 21]]])

# The search runs as `cohomlab experiment main-theorem --p 3` does by default:
# sampling seed 0, 80 samples. Its cost depends on the sampling seed (2.3 s to
# 4.7 s over seeds 0..11, and 10.6 s to 20.2 s at p = 5 over seeds 0..7, on a
# 2-CPU x86-64 box), far more than any bound on the spread across seeds
# allows, so the seed is held fixed. At p = 5 one call takes about 19 s, so a
# run would hold only two passes, too few for a steady median on a shared
# 2-CPU machine.
SEARCH_P = 3
SEARCH_SEED = 0

WHY = {
    "family-conditions": "compute --local --conditions on the order-2p^2 family, p = 3..13: galoisdict does most of the work, matgrp little",
    "large-local": "compute on GL2(Z/9) and sampled p = 5 groups of order 3125 and 5000: closure, propagation over M^|G| and Howell spans dominate",
    "search-p3": "main-theorem search at p = 3, seed 0, 80 samples: sampling with Mat2.order, then cohom and zmod on about 90 small groups",
}


def _smallest_nonsquare(p: int) -> int:
    return next(m for m in range(2, p) if pow(m, (p - 1) // 2, p) == p - 1)


def family_spec(p: int):
    """Generators of the order-2p^2 example group over Z/p^2."""
    N = p * p
    m = _smallest_nonsquare(p)
    return p, 2, [[[1, 0], [0, N - 1]], [[1 + p, 0], [0, 1 + p]], [[1, m * p], [p, 1]]]


def _mul(x, y, N):
    return [
        [(x[0][0] * y[0][0] + x[0][1] * y[1][0]) % N, (x[0][0] * y[0][1] + x[0][1] * y[1][1]) % N],
        [(x[1][0] * y[0][0] + x[1][1] * y[1][0]) % N, (x[1][0] * y[0][1] + x[1][1] * y[1][1]) % N],
    ]


def disguise(spec, rng: random.Random, copies: int = 1) -> list:
    """Copies of a spec, each conjugated by its own random invertible matrix.

    The generators are shuffled once; copy i starts the shuffled list at
    generator i, so with one copy per generator each generator leads once.
    """
    p, n, gens = spec
    N = p**n
    gens = list(gens)
    rng.shuffle(gens)
    out = []
    for i in range(copies):
        while True:
            t = [[rng.randrange(N) for _ in range(2)] for _ in range(2)]
            det = (t[0][0] * t[1][1] - t[0][1] * t[1][0]) % N
            if det % p:
                break
        di = pow(det, -1, N)
        t_inv = [[t[1][1] * di % N, -t[0][1] * di % N], [-t[1][0] * di % N, t[0][0] * di % N]]
        order = gens[i:] + gens[:i]
        out.append({"p": p, "n": n, "generators": [_mul(_mul(t, g, N), t_inv, N) for g in order]})
    return out


def _family_expect(p: int) -> dict:
    return {
        "z1": [p, p, p * p],
        "b1": [p, p * p],
        "h1": [p],
        "h1loc": [p],
        "h1locViaRestrictions": [p],
        "localAgreement": True,
        "conditions": {
            "hasFixedPointOfExactOrderP": True,
            "detImageOrderMod_p": 2,
            "detKernelTrivialMod_p": True,
            "stableCyclicOrderP": 2,
            "stableCyclicOrderP2": 0,
            "isogenyConditionP3": False,
            "zetaConditionHolds": False,
        },
    }


def items(workload: str, seed: int) -> list:
    """The items of one pass: dicts with name, spec (or None), flags and expected output."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "family-conditions":
        # Which generator comes first changes how soon the stable-submodule
        # search rejects a vector, by up to a third of the pass, so every
        # generator leads once per prime.
        return [
            {"name": f"family-p{p}-{i}", "spec": spec, "flags": ["--local", "--conditions"], "expect": _family_expect(p)}
            for p in FAMILY_PRIMES
            for i, spec in enumerate(disguise(family_spec(p), rng, copies=3))
        ]
    if workload == "large-local":
        return [
            {
                "name": "gl2-z9",
                "spec": disguise(GL2_Z9, rng)[0],
                "flags": ["--local"],
                "expect": {"z1": [9, 9], "b1": [9, 9], "h1": [], "h1loc": [], "h1locViaRestrictions": [], "localAgreement": True},
            },
            {
                "name": "p5-order3125",
                "spec": disguise(ORDER_3125, rng)[0],
                "flags": ["--local"],
                "expect": {"z1": [5, 5, 5, 5, 25], "b1": [5, 25], "h1": [5, 5, 5], "h1loc": [], "h1locViaRestrictions": [], "localAgreement": True},
            },
            {
                "name": "p5-order5000",
                "spec": disguise(ORDER_5000, rng)[0],
                "flags": [],
                "expect": {"z1": [25, 25], "b1": [25, 25], "h1": [], "h1loc": []},
            },
        ]
    if workload == "search-p3":
        return [{"name": f"main-theorem-p{SEARCH_P}", "spec": None, "p": SEARCH_P, "seed": SEARCH_SEED}]
    raise ValueError(f"unknown workload {workload!r}")


def check(item: dict, text: str) -> str:
    """Empty string when the output of one item is correct, else the first problem found."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if item["spec"] is None:
        params = doc.get("parameters", {})
        if doc.get("passed") is not True:
            return "search verdict did not pass"
        if params.get("candidates") != 80:
            return f"search examined {params.get('candidates')} candidates, expected 80"
        if not isinstance(params.get("nontrivial"), int) or params["nontrivial"] < 1:
            return "search found no group with nontrivial locally trivial quotient"
        return ""
    for key, want in item["expect"].items():
        if key != "conditions" and doc.get(key) != want:
            return f"{key} is {doc.get(key)!r}, expected {want!r}"
    want_cond = item["expect"].get("conditions")
    if want_cond:
        cond = doc.get("conditions", {})
        for key, want in want_cond.items():
            got = cond.get(key)
            if key.startswith("stableCyclic"):
                got = len(got) if isinstance(got, list) else got
            if got != want:
                return f"conditions.{key} is {got!r}, expected {want!r}"
    return ""
