"""The mutation table: known wrong engines against the arbiters.

Each case makes one fault in the engine, by monkeypatching one function,
and runs every arbiter of the table on it. The arbiters named as catching
the mutant must fail, by a failed check or a raised self-check; those named
as missing it must still pass, so the table records which arbiter is blind
to which fault. A source mutant is the function's own source with one
fragment replaced, compiled in its module's namespace, so it follows the
code it mutates; a fragment that is no longer there fails the case.

| mutant | caught by | missed by |
| --- | --- | --- |
| contragredient action | oracle | local agreement, conjugation identity, witness checks |
| last class dropped | oracle | local agreement, conjugation identity |
| early stop on one kernel generator | conjugation identity | oracle, local agreement |
| last Howell row of each span dropped | oracle, conjugation identity | local agreement |
| one witness value off by one | witness cocycles | oracle, local agreement, witness checks |

The witness checks of h1loc_witnesses (local triviality and no coboundary)
miss a witness moved at one element; only the cocycle relation sees it.
"""

import inspect
import sys
import textwrap

import pytest

from cohomlab import cohom, zmod
from cohomlab.errors import CohomLabError
from cohomlab.experiments import verify_oracle_equivalence
from cohomlab.matgrp import Mat2, MatGroup, conjugate, make_example_group


def source_mutant(monkeypatch, owner, name: str, old: str, new: str) -> None:
    """Replace owner.name by its own source with old replaced by new."""
    target = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(target))
    assert source.count(old) == 1, f"{name} no longer holds {old!r}"
    namespace = dict(vars(sys.modules[target.__module__]))
    exec(compile(source.replace(old, new), f"<mutant of {name}>", "exec"), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def contragredient(monkeypatch):
    # (g^-1)^T is an action too, so the engine stays consistent under it
    def act(self, entries):
        a, b, c, d = entries
        N = self.ctx.modulus
        u = zmod.unit_inverse((a * d - b * c) % N, self.ctx)
        return ((d * u % N, -c * u % N), (-b * u % N, a * u % N))

    monkeypatch.setattr(cohom.ModuleAction, "_act_entries", act)


def last_class_dropped(monkeypatch):
    classes = MatGroup.__dict__["_class_representatives"]
    monkeypatch.setattr(MatGroup, "_class_representatives", property(lambda grp: classes.__get__(grp, MatGroup)[:-1]))


def early_stop_on_one_generator(monkeypatch):
    source_mutant(monkeypatch, cohom, "_propagate", "b1._contains_all(raw)", "b1._contains_all(raw[:1])")


def last_howell_row_dropped(monkeypatch):
    source_mutant(monkeypatch, zmod.Submodule, "span", "_slots(work[:r], size", "_slots(work[: max(r - 1, 0)], size")


def witness_value_off_by_one(monkeypatch):
    # the value at the last element, which is not the identity
    moved = "(lambda flat: (*flat[:-1], flat[-1] + 1))(b1_full.coset_reduce(w)))"
    source_mutant(monkeypatch, cohom, "h1loc_witnesses", "b1_full.coset_reduce(w))", moved)


def family(*primes):
    return [make_example_group(p).group for p in primes]


def oracle() -> bool:
    """The brute-force oracle (experiment oracle)."""
    return verify_oracle_equivalence().passed


def local_agreement() -> bool:
    """The two L/B^1 definitions on the p = 3..13 family."""
    engines = map(cohom.cohomology_engine, family(3, 5, 7, 11, 13))
    return all(list(cohom.h1_loc(e).h1loc_invariants) == cohom.h1_loc_via_restrictions(e) for e in engines)


def conjugation_identity() -> bool:
    """The report of H equals that of a conjugate, on the p = 11 and 13
    family, whose walks check for an early stop."""
    return all(
        cohom.h1_loc(cohom.cohomology_engine(conjugate(g, Mat2(0, 1, 1, 0, g.ctx))))
        == cohom.h1_loc(cohom.cohomology_engine(g))
        for g in family(11, 13)
    )


def witness_checks() -> bool:
    """The self-checks of h1loc_witnesses on the p = 3 and 5 family."""
    return all(cohom.h1loc_witnesses(cohom.cohomology_engine(g)) for g in family(3, 5))


def witness_cocycles() -> bool:
    """The cocycle relation on every witness of the p = 3 and 5 family."""
    return all(cohom.is_cocycle(w) for g in family(3, 5) for w in cohom.h1loc_witnesses(cohom.cohomology_engine(g)))


ARBITERS = {
    "oracle": oracle,
    "local agreement": local_agreement,
    "conjugation identity": conjugation_identity,
    "witness checks": witness_checks,
    "witness cocycles": witness_cocycles,
}

# mutant: (arbiters that catch it, arbiters that miss it)
TABLE = {
    contragredient: (["oracle"], ["local agreement", "conjugation identity", "witness checks"]),
    last_class_dropped: (["oracle"], ["local agreement", "conjugation identity"]),
    early_stop_on_one_generator: (["conjugation identity"], ["oracle", "local agreement"]),
    last_howell_row_dropped: (["oracle", "conjugation identity"], ["local agreement"]),
    witness_value_off_by_one: (["witness cocycles"], ["oracle", "local agreement", "witness checks"]),
}


def passes(arbiter) -> bool:
    """Whether the arbiter passes; a self-check it trips counts as a failure."""
    try:
        return arbiter()
    except (AssertionError, CohomLabError):
        return False


def test_every_arbiter_passes_on_the_engine():
    assert all(passes(arbiter) for arbiter in ARBITERS.values())


@pytest.mark.parametrize("mutant", TABLE, ids=lambda mutant: mutant.__name__)
def test_mutant_is_caught(monkeypatch, mutant):
    caught_by, missed_by = TABLE[mutant]
    mutant(monkeypatch)
    assert [name for name in caught_by if passes(ARBITERS[name])] == []
    assert [name for name in missed_by if not passes(ARBITERS[name])] == []
