"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

import cohomlab
from cohomlab import cli, cohom, zmod
from cohomlab.cli import main
from cohomlab.cohom import ModuleAction
from cohomlab.matgrp import Mat2, make_example_group


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def example_family_spec(tmp_path, p=3, m=2):
    """The order-2p^2 family over Z/p^2, with m a nonsquare mod p."""
    return write_spec(
        tmp_path,
        {
            "p": p,
            "n": 2,
            "generators": [
                [[1, 0], [0, p * p - 1]],
                [[1 + p, 0], [0, 1 + p]],
                [[1, m * p], [p, 1]],
            ],
        },
    )


# `compute --local --conditions` on the order-18 family spec. The witness is
# the Howell-reduced generator of L/B1 in canonical element order, so any
# change to how the spaces are spanned or reduced shows here.
FAMILY_18_GOLDEN = {
    "z1": [3, 3, 9],
    "b1": [3, 9],
    "h1": [3],
    "h1loc": [3],
    "witnesses": [
        [[0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [3, 0], [3, 0], [3, 0], [3, 0], [3, 0], [3, 0], [6, 0], [6, 0], [6, 0], [6, 0], [6, 0], [6, 0]]
    ],
    "h1locViaRestrictions": [3],
    "localAgreement": True,
    "conditions": {
        "hasFixedPointOfExactOrderP": True,
        "detImageOrderMod_p": 2,
        "detKernelTrivialMod_p": True,
        "stableCyclicOrderP": [[[0, 3]], [[3, 0]]],
        "stableCyclicOrderP2": [],
        "isogenyConditionP3": False,
        "zetaConditionHolds": False,
    },
}


# sha256 of `compute --local --conditions` stdout on the family spec at the
# larger primes, with the least nonsquare m; each output carries one witness
# of 2p^2 values.
FAMILY_SHA256 = {
    (5, 2): "9d1e66f4f0bdcf21b7f7bdeb885156e1fd4b734ee35cdfb77309a6bc07dc801e",
    (7, 3): "4e204f083c2ed2bc6f689a6dbc44c193cac08c70152e6a59131e8fbc22076120",
    (11, 2): "561cad533d2b846a3d2129e2ca4f520ee0a5e51912add588ae7decd07e6c9c57",
    (13, 2): "8f87028f2d6d66ecb18664363660229df7d5fb1adfedd111c4f0649e2ce94b87",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_example_family_full_flags(tmp_path, capsys):
    spec = example_family_spec(tmp_path)
    code, out, _ = run_cli(capsys, "compute", spec, "--local", "--conditions")
    assert code == 0
    doc = json.loads(out)
    assert doc["h1loc"] == [3]
    assert doc["h1locViaRestrictions"] == [3]
    assert doc["localAgreement"] is True
    assert doc["conditions"]["zetaConditionHolds"] is False
    assert doc["conditions"]["detImageOrderMod_p"] == 2
    assert len(doc["witnesses"]) == 1


def test_compute_trivial_group(tmp_path, capsys):
    spec = write_spec(tmp_path, {"p": 3, "n": 1, "generators": []})
    code, out, _ = run_cli(capsys, "compute", spec)
    assert code == 0
    doc = json.loads(out)
    assert doc == {"z1": [], "b1": [], "h1": [], "h1loc": [], "witnesses": []}


def test_compute_rejects_singular_generator(tmp_path, capsys):
    spec = write_spec(tmp_path, {"p": 3, "n": 1, "generators": [[[1, 1], [1, 1]]]})
    code, _, err = run_cli(capsys, "compute", spec)
    assert code == 2
    assert "error" in err


def test_compute_rejects_malformed_specs(tmp_path, capsys, monkeypatch):
    bad_docs = [
        {"p": 3, "n": 2},
        {"p": 4, "n": 1, "generators": []},
        {"p": 3, "n": 0, "generators": []},
        {"p": 3, "n": 1, "generators": [[[0, 1], [1]]]},
        {"p": 3, "n": 1, "generators": [[[0, 1], [1, "x"]]]},
        {"p": 3, "n": 1, "generators": [[[0, 1], [1, 7]]]},
        {"p": 3, "n": True, "generators": []},
        {"p": 2305843009213693951, "n": 1, "generators": []},
        {"p": 3, "n": 10**9, "generators": []},
        ["not", "an", "object"],
    ]
    for i, doc in enumerate(bad_docs):
        spec = write_spec(tmp_path, doc, name=f"bad{i}.json")
        code, _, err = run_cli(capsys, "compute", spec)
        assert code == 2, doc
        assert err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli(capsys, "compute", str(broken))[0] == 2
    # nesting deep enough to exhaust the parser's recursion is an input error
    broken.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run_cli(capsys, "compute", str(broken))
    assert (code, out) == (2, "") and "nested too deeply" in err
    assert run_cli(capsys, "compute", str(tmp_path / "missing.json"))[0] == 2
    # a closure cap below 1 is malformed input, not an exhausted budget
    spec = example_family_spec(tmp_path)
    for cap in ("0", "-1"):
        code, _, err = run_cli(capsys, "compute", spec, "--cap", cap)
        assert code == 2 and "at least 1" in err, cap
    # the cap is read from the command line alone, never the environment
    monkeypatch.setenv("COHOMLAB_CAP", "-3")
    assert run_cli(capsys, "compute", spec)[0] == 0


def test_compute_rejects_unknown_spec_keys(tmp_path, capsys):
    # a misspelt or extra key is an input error naming the keys, not ignored
    base = {"p": 3, "n": 2, "generators": [[[1, 1], [0, 1]]]}
    for extra, named in (({"extra": 1}, "['extra']"), ({"gens": [], "N": 9}, "['N', 'gens']")):
        spec = write_spec(tmp_path, {**base, **extra})
        code, out, err = run_cli(capsys, "compute", spec)
        assert (code, out) == (2, "")
        assert f"unknown keys: {named}" in err
    assert run_cli(capsys, "compute", write_spec(tmp_path, base))[0] == 0


def test_compute_rejects_repeated_spec_keys(tmp_path, capsys):
    # json keeps the last of two equal keys; a spec naming one twice is an
    # input error naming the key
    spec = tmp_path / "repeated.json"
    for text, named in (
        ('{"p": 3, "n": 2, "generators": [[[1, 1], [0, 1]]], "p": 5}', "'p'"),
        ('{"generators": [], "p": 3, "generators": [], "n": 1}', "'generators'"),
    ):
        spec.write_text(text)
        code, out, err = run_cli(capsys, "compute", str(spec))
        assert (code, out) == (2, "")
        assert f"repeats the key {named}" in err
    spec.write_text('{"p": 3, "n": 2, "generators": [[[1, 1], [0, 1]]]}')
    assert run_cli(capsys, "compute", str(spec))[0] == 0


def test_compute_conditions_need_level_two(tmp_path, capsys):
    spec = write_spec(tmp_path, {"p": 3, "n": 1, "generators": []})
    code, _, err = run_cli(capsys, "compute", spec, "--conditions")
    assert code == 2
    assert err


def test_compute_cap_exhaustion(tmp_path, capsys):
    spec = example_family_spec(tmp_path)
    code, _, err = run_cli(capsys, "compute", spec, "--cap", "5")
    assert code == 3
    assert err


def test_compute_cap_env_var(tmp_path, capsys, monkeypatch):
    spec = example_family_spec(tmp_path)
    # the environment does not set the cap: only --cap does
    monkeypatch.setenv("COHOMLAB_CAP", "5")
    assert run_cli(capsys, "compute", spec)[0] == 0
    assert run_cli(capsys, "compute", spec, "--cap", "5")[0] == 3


def test_compute_byte_identical_reruns(tmp_path, capsys):
    spec = example_family_spec(tmp_path)
    _, out1, _ = run_cli(capsys, "compute", spec, "--local", "--conditions")
    _, out2, _ = run_cli(capsys, "compute", spec, "--local", "--conditions")
    assert out1 == out2
    assert out1 == json.dumps(FAMILY_18_GOLDEN, indent=2) + "\n"


@pytest.mark.parametrize("p, m", sorted(FAMILY_SHA256))
def test_compute_family_output_pinned(tmp_path, capsys, p, m):
    spec = example_family_spec(tmp_path, p, m)
    code, out, _ = run_cli(capsys, "compute", spec, "--local", "--conditions")
    assert code == 0
    doc = json.loads(out)
    assert doc["h1loc"] == [p] and len(doc["witnesses"]) == 1 and len(doc["witnesses"][0]) == 2 * p * p
    assert hashlib.sha256(out.encode()).hexdigest() == FAMILY_SHA256[p, m]


# `compute` on large groups, with the flags it runs with in the benchmark:
# GL2(Z/9), and two p = 5 groups of level 2 with H1 = [5, 5, 5] and H1 = 0.
LARGE_COMPUTES = {
    "gl2-z9": ([[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 0], [0, 1]]], 3, 3888, ["--local"]),
    "order-3125": ([[[1, 0], [0, 6]], [[1, 1], [0, 1]], [[1, 0], [5, 1]]], 5, 3125, ["--local"]),
    "order-5000": ([[[6, 20], [15, 16]], [[0, 19], [13, 0]], [[16, 5], [20, 21]]], 5, 5000, []),
}


@pytest.mark.parametrize("name", sorted(LARGE_COMPUTES))
def test_compute_builds_no_matrix_per_element(tmp_path, capsys, monkeypatch, name):
    # Every Mat2 comes from __init__ or from Mat2._reduced; both are
    # counted while compute runs on the group.
    gens, p, order, flags = LARGE_COMPUTES[name]
    built, groups = [], []
    init, reduced, load = Mat2.__init__, Mat2._reduced.__func__, cli.load_group_spec
    monkeypatch.setattr(Mat2, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    monkeypatch.setattr(Mat2, "_reduced", classmethod(lambda cls, *args: built.append(1) or reduced(cls, *args)))
    monkeypatch.setattr(cli, "load_group_spec", lambda *args: groups.append(load(*args)) or groups[-1])
    spec = write_spec(tmp_path, {"p": p, "n": 2, "generators": gens})
    code, out, _ = run_cli(capsys, "compute", spec, *flags)
    assert code == 0 and json.loads(out)["h1loc"] == []
    assert len(groups[0]) == order
    assert "elements" not in vars(groups[0])
    assert 0 < len(built) < 50


@pytest.mark.parametrize("name", ["family-p5", "gl2-z9", "order-3125"])
def test_compute_packs_only_reduced_rows(tmp_path, capsys, monkeypatch, name):
    # _howell re-packs a row with an entry outside [0, N) as int(e) % N, so
    # a caller that skips a reduction would stay exact and only lose time;
    # a RuntimeError escapes that fallback and fails the run instead.
    pack = zmod._pack

    def reduced_only(row, lay):
        N = lay[5] & ((1 << lay[0]) - 1)  # lay[5] holds N in every slot
        if not all(0 <= e < N for e in row):
            raise RuntimeError(f"row with an entry outside [0, {N}) packed")
        return pack(row, lay)

    monkeypatch.setattr(zmod, "_pack", reduced_only)
    monkeypatch.setattr(cohom, "_pack", reduced_only)
    if name == "family-p5":
        spec = example_family_spec(tmp_path, 5)
    else:
        gens, p, _, _ = LARGE_COMPUTES[name]
        spec = write_spec(tmp_path, {"p": p, "n": 2, "generators": gens})
    code, out, _ = run_cli(capsys, "compute", spec, "--local")
    assert code == 0 and json.loads(out)["localAgreement"]
    with pytest.raises(RuntimeError, match="outside"):
        zmod.Submodule.span([[1, 9]], 2, zmod.ModulusContext(3, 2))


def test_compute_out_file_and_csv(tmp_path, capsys):
    spec = example_family_spec(tmp_path)
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "compute", spec, "--format", "csv", "--out", str(out_path))
    assert code == 0
    assert out == ""
    lines = out_path.read_text().splitlines()
    assert lines[0] == "field,value"
    assert any(line.startswith("h1loc,") for line in lines)


def test_experiment_pass_exit_zero(tmp_path, capsys):
    out_path = tmp_path / "verdict.json"
    code, _, _ = run_cli(capsys, "experiment", "example6", "--p", "5", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["name"] == "example6" and doc["passed"] is True


def test_experiment_diagonal_level_two(capsys):
    code, out, _ = run_cli(capsys, "experiment", "diagonal", "--p", "3", "--n", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_experiment_rejects_bad_inputs(capsys):
    assert run_cli(capsys, "experiment", "example6", "--p", "2")[0] == 2
    assert run_cli(capsys, "experiment", "no-such-experiment", "--p", "3")[0] == 2
    assert run_cli(capsys, "experiment", "example6")[0] == 2
    assert run_cli(capsys, "experiment", "shape-lemma", "--p", "7")[0] == 2
    assert run_cli(capsys, "experiment", "example6", "--p", "3", "--cap", "5")[0] == 2


@pytest.mark.parametrize(
    "flags", [["example6", "--p", "1000000000000000003"], ["diagonal", "--p", "3", "--n", "100000000"]]
)
def test_oversized_experiment_parameters_exit_at_once(flags):
    # ModulusContext refuses both before a trial division up to 10^9 or the
    # 3^(10^8) that an unbounded check would form; a separate process lets
    # the timeout stop a run that hangs
    src = os.path.dirname(os.path.dirname(os.path.abspath(cohomlab.__file__)))
    argv = [sys.executable, "-m", "cohomlab.cli", "experiment", *flags]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=10, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode in (2, 3) and proc.stdout == "" and proc.stderr.startswith("error: "), proc.stderr


def test_import_loads_neither_dataclasses_nor_inspect():
    # every cohomlab process pays its import; the records are NamedTuples
    # and slotted classes, so nothing pulls in dataclasses and, through it,
    # inspect, ast, dis and tokenize. -S leaves out the site hooks, which on
    # some installations import inspect on their own.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cohomlab.__file__)))
    code = "import sys, cohomlab.cli, cohomlab.experiments; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stdout + proc.stderr


def test_one_engine_per_group_and_action(tmp_path, capsys, monkeypatch):
    # every answer about a group and action reads the one Engine built for
    # the pair, so each pair is walked once
    walks, propagate = [], cohom._propagate
    monkeypatch.setattr(cohom, "_propagate", lambda group, action, b1: walks.append((group, action)) or propagate(group, action, b1))
    assert run_cli(capsys, "compute", example_family_spec(tmp_path), "--local")[0] == 0
    assert len(walks) == 1
    walks.clear()
    assert run_cli(capsys, "experiment", "oracle")[0] == 0
    assert len(walks) == len(set(walks)) == 6 + 50 + 14
    walks.clear()
    assert run_cli(capsys, "experiment", "example6", "--p", "3")[0] == 0
    family = make_example_group(3).group
    assert [pair for pair in walks if pair[0] == family] == [(family, ModuleAction.standard(family.ctx))]


def test_one_locally_trivial_cut_out_per_engine(tmp_path, capsys, monkeypatch):
    # cohomology_engine cuts L out once, and only when Z1 != B1; every answer
    # about L reads engine.loc after that
    cuts, cut = [], cohom._locally_trivial
    monkeypatch.setattr(cohom, "_locally_trivial", lambda engine: cuts.append(engine) or cut(engine))
    spec = example_family_spec(tmp_path)
    runs = [
        lambda: run_cli(capsys, "compute", spec, "--local", "--conditions")[0] == 0,
        lambda: run_cli(capsys, "experiment", "oracle")[0] == 0,
        lambda: run_cli(capsys, "experiment", "example6", "--p", "3")[0] == 0,
        lambda: cohomlab.falsify_main_theorem(3).passed,
    ]
    counts = []
    for run in runs:
        cuts.clear()
        assert run()
        counts.append(len(cuts))
        assert len({id(engine) for engine in cuts}) == len(cuts)
        assert all(engine.z1 != engine.b1 for engine in cuts)
    assert counts == [1, 20, 1, 35]


# every experiment with each flag it does not read (besides --budget-ms, --out
# and --format, which all of them read)
UNREAD_FLAGS = [
    ("example6", ["--p", "3", "--n", "2"]),
    ("example6", ["--p", "3", "--seed", "0"]),
    ("example6", ["--p", "3", "--n", "9", "--seed", "4"]),
    ("diagonal", ["--p", "3", "--m", "2"]),
    ("diagonal", ["--p", "3", "--seed", "0"]),
    ("shape-lemma", ["--p", "5", "--n", "2"]),
    ("shape-lemma", ["--p", "5", "--m", "2"]),
    ("shape-lemma", ["--p", "5", "--seed", "1"]),
    ("structure-props", ["--p", "3", "--n", "2"]),
    ("structure-props", ["--p", "3", "--m", "2"]),
    ("main-theorem", ["--p", "3", "--n", "3"]),
    ("main-theorem", ["--p", "3", "--m", "2"]),
    ("oracle", ["--p", "3"]),
    ("oracle", ["--n", "2"]),
    ("oracle", ["--m", "2"]),
    ("oracle", ["--seed", "0"]),
]


@pytest.mark.parametrize("name, flags", UNREAD_FLAGS)
def test_experiment_rejects_flags_it_does_not_read(capsys, name, flags):
    code, out, err = run_cli(capsys, "experiment", name, *flags)
    assert code == 2 and out == ""
    assert re.fullmatch(rf"error: experiment {name} does not read --(n|m|p|seed)\n", err)


def test_experiment_budget_exhaustion(capsys):
    code, _, err = run_cli(capsys, "experiment", "main-theorem", "--p", "3", "--budget-ms", "0")
    assert code == 3
    assert err


def test_negative_experiment_budget_is_an_input_error(capsys):
    # a negative budget is malformed input, like --cap 0; a budget of 0 ms
    # is a budget that runs out at once (test_experiment_budget_exhaustion)
    for budget in ("-5", "-1"):
        code, out, err = run_cli(capsys, "experiment", "main-theorem", "--p", "3", "--budget-ms", budget)
        assert (code, out) == (2, "") and err == f"error: wall-clock budget must be at least 0 ms, got {budget}\n"


def test_budget_message_names_the_generator_set_in_progress(capsys):
    code, out, err = run_cli(capsys, "experiment", "main-theorem", "--p", "3", "--budget-ms", "1")
    assert code == 3
    assert out == ""
    assert re.search(r"budget of 1 ms; stopped at generator set \d+ of the sampling$", err.strip())


def test_budget_message_names_the_candidate_in_progress(capsys, monkeypatch):
    from cohomlab import experiments
    from cohomlab.matgrp import make_example_group

    # with no sampled groups the budget runs out at the first candidate
    monkeypatch.setattr(experiments, "sample_level2_groups", lambda *args, **kwargs: [])
    code, out, err = run_cli(capsys, "experiment", "main-theorem", "--p", "3", "--budget-ms", "0")
    assert code == 3
    assert out == ""
    spec = json.dumps(make_example_group(3).group.to_spec_dict())
    assert err.strip().endswith(f"budget of 0 ms; stopped at candidate 0 of 1: {spec}")


def test_experiment_reruns_identical_modulo_elapsed(capsys):
    def normalized():
        code, out, _ = run_cli(capsys, "experiment", "main-theorem", "--p", "3", "--seed", "4")
        assert code == 0
        doc = json.loads(out)
        doc["elapsed_ms"] = 0
        return json.dumps(doc)

    assert normalized() == normalized()


def test_experiment_csv_format(capsys):
    code, out, _ = run_cli(capsys, "experiment", "example6", "--p", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "experiment,check,expected,actual,ok"
    assert len(lines) >= 15
    assert all(line.split(",")[0] == "example6" for line in lines[1:])


def test_compute_rejects_generators_that_are_not_a_list(tmp_path, capsys):
    spec = write_spec(tmp_path, {"p": 3, "n": 1, "generators": {"a": [[1, 0], [0, 1]]}})
    code, out, err = run_cli(capsys, "compute", spec)
    assert (code, out) == (2, "") and "generators must be a list" in err


def test_compute_local_disagreement_exits_one_with_the_report(tmp_path, capsys, monkeypatch):
    # the two L/B1 definitions disagree: a property violation, reported in full
    monkeypatch.setattr(cli, "h1_loc_via_restrictions", lambda engine: [9])
    code, out, _ = run_cli(capsys, "compute", example_family_spec(tmp_path), "--local")
    doc = json.loads(out)
    assert code == 1
    assert (doc["h1loc"], doc["h1locViaRestrictions"], doc["localAgreement"]) == ([3], [9], False)


def test_compute_conditions_beyond_the_line_budget_exits_three(tmp_path, capsys):
    # <(1 + p) I> is scalar mod p, so each of the p + 1 lines mod p is
    # stable, and at p = 65521 their lifts to (Z/p^2)^2 number p(p + 1), a
    # scan of about 1.6 h, so it is refused before it starts
    p = 65521
    spec = write_spec(tmp_path, {"p": p, "n": 2, "generators": [[[1 + p, 0], [0, 1 + p]]]})
    code, out, err = run_cli(capsys, "compute", spec, "--conditions", "--cap", "70000")
    assert (code, out) == (3, "")
    assert f"the {p * (p + 1)} free lines" in err


def test_compute_conditions_lifts_only_stable_lines(tmp_path, capsys):
    # <diag(-1, 1)> fixes 2 of the p + 1 lines mod p, so the scan mod p^2
    # checks their 2p lifts, not the p(p + 1) lines, and finds the 2 again
    p = 65521
    spec = write_spec(tmp_path, {"p": p, "n": 2, "generators": [[[p * p - 1, 0], [0, 1]]]})
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "compute", spec, "--conditions")
    assert code == 0 and time.perf_counter() - start < 2.0
    conditions = json.loads(out)["conditions"]
    assert conditions["stableCyclicOrderP"] == [[[0, p]], [[p, 0]]]
    assert conditions["stableCyclicOrderP2"] == [[[0, 1]], [[1, 0]]]
