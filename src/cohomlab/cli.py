"""Command-line entry point.

Two subcommands: `compute` reads a group specification file and reports the
cocycle, coboundary, and locally trivial quotient data for the group it
describes; `experiment` runs one of the named experiments. All output is
exact integers serialized as JSON or CSV, byte-identical across runs with
equal inputs (experiment verdicts except for their elapsed_ms field).

Exit codes: 0 pass, 1 property violation, 2 input error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from typing import Optional

from .cohom import cohomology_engine, h1_loc, h1_loc_via_restrictions, h1loc_witnesses
from .errors import BudgetExceeded, CapExceeded, CohomLabError, WrongLevel
from .experiments import (
    DEFAULT_BUDGET_MS,
    falsify_main_theorem,
    run_example6,
    verify_diagonal_triviality,
    verify_oracle_equivalence,
    verify_shape_lemma,
    verify_structure_props,
)
from .galoisdict import evaluate_main_theorem_conditions
from .matgrp import DEFAULT_CAP, Mat2, MatGroup, close_group
from .zmod import ModulusContext


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key, whose last value json would
    keep, is an input error."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"group spec repeats the key {key!r}")
        data[key] = value
    return data


def load_group_spec(path: str, cap: int) -> MatGroup:
    """Parse and validate a GroupSpecFile, then close its generators."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("group spec is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("group spec must be a JSON object")
    missing = {"p", "n", "generators"} - set(data)
    if missing:
        raise ValueError(f"group spec is missing keys: {sorted(missing)}")
    unknown = set(data) - {"p", "n", "generators"}
    if unknown:
        raise ValueError(f"group spec has unknown keys: {sorted(unknown)}")
    p, n, gens = data["p"], data["n"], data["generators"]
    ctx = ModulusContext(p, n)
    if not isinstance(gens, list):
        raise ValueError("generators must be a list of 2x2 integer arrays")
    mats = []
    for g in gens:
        rows_ok = (
            isinstance(g, list)
            and len(g) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in g)
            and all(isinstance(e, int) and not isinstance(e, bool) for row in g for e in row)
        )
        if not rows_ok:
            raise ValueError(f"generator is not a 2x2 integer array: {g!r}")
        if any(not 0 <= e < ctx.modulus for row in g for e in row):
            raise ValueError(f"generator entries must lie in [0, {ctx.modulus}): {g!r}")
        mats.append(Mat2(g[0][0], g[0][1], g[1][0], g[1][1], ctx))
    return close_group(mats, ctx, cap=cap)


def _emit(doc: dict, csv_rows, out: Optional[str], fmt: str) -> None:
    """Write doc as JSON, or the rows that csv_rows() returns as CSV."""
    if fmt == "csv":
        import csv  # only CSV output needs it, so JSON runs do not import it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(csv_rows())
        text = buf.getvalue()
    else:
        text = json.dumps(doc, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compute(args) -> int:
    if args.cap < 1:
        # a cap below 1 is malformed input, not a budget that ran out
        raise ValueError(f"closure cap must be at least 1, got {args.cap}")
    group = load_group_spec(args.spec, args.cap)
    engine = cohomology_engine(group)
    report = h1_loc(engine)
    doc = report.to_json_dict()
    doc["witnesses"] = [[list(v) for v in w.values] for w in h1loc_witnesses(engine)]
    violation = False
    if args.local:
        via = h1_loc_via_restrictions(engine)
        doc["h1locViaRestrictions"] = via
        doc["localAgreement"] = via == list(report.h1loc_invariants)
        if not doc["localAgreement"]:
            violation = True
    if args.conditions:
        doc["conditions"] = evaluate_main_theorem_conditions(group).to_json_dict()

    def rows():
        return [["field", "value"]] + [[key, json.dumps(value)] for key, value in doc.items()]

    _emit(doc, rows, args.out, args.format)
    return 1 if violation else 0


# experiment name -> (its function, the flags it reads besides --budget-ms, --out and --format)
EXPERIMENTS = {
    "example6": (run_example6, ("p", "m")),
    "diagonal": (verify_diagonal_triviality, ("p", "n")),
    "shape-lemma": (verify_shape_lemma, ("p",)),
    "structure-props": (verify_structure_props, ("p", "seed")),
    "main-theorem": (falsify_main_theorem, ("p", "seed")),
    "oracle": (verify_oracle_equivalence, ()),
}


def cmd_experiment(args) -> int:
    if args.budget_ms < 0:
        # a negative budget is malformed input, not a budget that ran out
        raise ValueError(f"wall-clock budget must be at least 0 ms, got {args.budget_ms}")
    run, reads = EXPERIMENTS[args.name]
    given = {flag: getattr(args, flag) for flag in ("p", "n", "m", "seed") if getattr(args, flag) is not None}
    unread = [flag for flag in given if flag not in reads]
    if unread:
        raise ValueError(f"experiment {args.name} does not read --{unread[0]}")
    if "p" in reads and "p" not in given:
        raise ValueError(f"experiment {args.name} requires --p")
    verdict = run(**given, budget_ms=args.budget_ms)
    _emit(verdict.to_json_dict(), verdict.to_csv_rows, args.out, args.format)
    return 0 if verdict.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a parser holds reference
    cycles, so one built per call of main stays in memory until the cyclic
    collector runs."""
    parser = argparse.ArgumentParser(
        prog="cohomlab",
        description="group cohomology laboratory for 2x2 matrix groups over Z/p^n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="report cocycle data for a group spec file")
    pc.add_argument("spec", help="path to a JSON file with keys p, n, generators")
    pc.add_argument("--local", action="store_true", help="cross-check via cyclic restrictions")
    pc.add_argument("--conditions", action="store_true", help="append the condition report (needs n >= 2)")
    pc.add_argument("--cap", type=int, default=DEFAULT_CAP, help=f"group closure cap (default {DEFAULT_CAP})")
    pc.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    pc.add_argument("--format", choices=("json", "csv"), default="json")
    pc.set_defaults(func=cmd_compute)

    pe = sub.add_parser("experiment", help="run a named experiment")
    pe.add_argument("name", choices=EXPERIMENTS)
    pe.add_argument("--p", type=int, default=None, help="prime parameter (every experiment but oracle)")
    pe.add_argument("--n", type=int, default=None, help="level parameter (diagonal only, default 2)")
    pe.add_argument("--m", type=int, default=None, help="override the nonsquare (example6 only)")
    pe.add_argument("--budget-ms", type=int, default=DEFAULT_BUDGET_MS, help="wall-clock budget in milliseconds")
    pe.add_argument("--seed", type=int, default=None, help="sampling seed (structure-props and main-theorem, default 0)")
    pe.add_argument("--out", default=None, help="write the verdict to this path instead of stdout")
    pe.add_argument("--format", choices=("json", "csv"), default="json")
    pe.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CapExceeded, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, WrongLevel, CohomLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
