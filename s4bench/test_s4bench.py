"""Tests of the benchmark itself: known-answer rules, the certificate
check, the tracer and the agreement of BENCHMARK.json with the runner."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Case  # noqa: E402

E, O, U = ref.EMBEDS, ref.OBSTRUCTED, ref.UNKNOWN


@pytest.mark.parametrize(
    "summands, verdict",
    [
        ([(5, 2), (5, 3)], E),  # mirror pair, p odd
        ([(8, 3), (8, 5)], O),  # mirror pair, p even
        ([(7, 2), (7, 2)], O),  # the mirror of L(7,2) is L(7,3), another space
        ([(5, 2), (5, 2)], E),  # L(5,2) is its own mirror (2^2 = -1 mod 5)
        ([(5, 2)], O),
        ([(5, 2), (5, 2), (5, 3), (5, 3)], E),
        ([(3, 1), (3, 1)], O),
    ],
)
def test_lens_sum_rule(summands, verdict):
    assert ref.lens_sum_verdict(summands) == verdict


@pytest.mark.parametrize(
    "strands, verdict",
    [
        ((3, -3, 3), E),  # Y(a,-a,a)
        ((-3, 3, -3), E),  # its mirror
        ((2, -2, 3, -3), E),  # Y(a,-a,b,-b), b odd
        ((2, -2, 4, -4), O),  # both even
        ((3, -2, 2, -2), E),  # Y(a+1,-a,a,-a)
        ((1, -2, -2, -2), E),  # Rolfsen twist of Y(2,-2,2)
        ((3, -5, -8), U),  # open family, l = 2
        ((1, -3, -2), E),  # two honest strands: S^3
        ((-2, -2, 1), E),  # S^1 x S^2
        ((2, -2, 1), O),  # L(4, *)
    ],
)
def test_pretzel_rule(strands, verdict):
    assert ref.pretzel_verdict(strands) == verdict


@pytest.mark.parametrize(
    "r, fibres, verdict",
    [
        (0, [(3, 1)], E),  # S^3
        (1, [(2, 1)], E),  # e = -1/2: S^3
        (0, [(4, 1), (4, -1)], E),  # S^1 x S^2
        (2, [(3, 1)], O),  # L(5, *)
    ],
)
def test_small_seifert_rule(r, fibres, verdict):
    assert ref.small_seifert_verdict(r, fibres) == verdict


def test_lens_certificate_check():
    # L(3,1) + L(3,2): chains (-3) and (-2,-2)
    rows = [(1, 1, 1), (1, -1, 0), (0, 1, -1)]
    assert ref.check_lens_certificate(rows, ((3, 1), (3, 2)))
    assert ref.check_lens_certificate(rows[::-1], ((3, 2), (3, 1)))
    assert not ref.check_lens_certificate(rows, ((3, 1), (3, 1)))
    assert not ref.check_lens_certificate([(1, 1, 1), (1, 1, 0), (0, 1, -1)], ((3, 1), (3, 2)))
    assert not ref.check_lens_certificate(rows[:2], ((3, 1), (3, 2)))


def _fake_cli(status, code, rows=None):
    def cli_main(argv):
        report = {"status": status, "obstructions": []}
        if rows is not None:
            report["obstructions"].append({"name": "double_subset", "certificate": [[{"subset_rows": rows}]]})
        print(json.dumps(report))
        return code

    return cli_main


def test_run_case_classifies_outcomes():
    case = Case("lens(3,1)+lens(3,2)", (), frozenset({E}), "two", {"double_subset": ((3, 1), (3, 2))})
    good_rows = [[1, 1, 1], [1, -1, 0], [0, 1, -1]]
    ok = run.run_case(_fake_cli(E, 0, good_rows), case)
    assert (ok.failed, ok.right, ok.false_claim) == (False, True, False)
    bad_cert = run.run_case(_fake_cli(E, 0, [[1, 1, 1], [1, 1, 0], [0, 1, -1]]), case)
    assert (bad_cert.right, bad_cert.false_claim) == (False, True)
    wrong = run.run_case(_fake_cli(O, 1), case)
    assert (wrong.right, wrong.false_claim) == (False, True)
    unknown = run.run_case(_fake_cli(U, 2), case)
    assert (unknown.right, unknown.false_claim) == (False, False)
    assert run.run_case(_fake_cli(E, 1), case).failed  # exit code disagrees
    assert run.run_case(_fake_cli("CONFLICT", 70), case).failed

    def crash(argv):
        raise RecursionError

    assert run.run_case(crash, case).failed


def test_per_input_takes_the_fastest_pass_and_keeps_failures():
    first = run.Pass({0: run.Outcome(0.003, "", True, False), 1: run.Outcome(0.002, "", True, False)}, 0.005, 0.005)
    second = run.Pass({0: run.Outcome(0.001, "", True, False), 1: run.Outcome(0.004, "RecursionError", False, False)}, 0.005, 0.005)
    out = run.per_input([first, second])
    assert (out[0].seconds, out[1].seconds) == (0.001, 0.002)
    assert not out[0].failed and out[0].right
    assert out[1].failed and not out[1].right


def _bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "s4embed" or name.startswith("s4embed.")
        for attr, value in vars(module).items()
    }


def test_tracer_patches_every_binding_and_restores_them():
    import s4embed.cli
    import s4embed.intlinalg

    before = _bindings()
    original = s4embed.intlinalg.signature_triple
    with Tracer() as tracer:
        bound = [v for (_, attr), v in _bindings().items() if attr == "signature_triple"]
        assert bound and all(v is not original for v in bound)
        case = WORKLOADS["pretzel_grid"](1)[0]
        outcome = run.run_case(s4embed.cli.main, case)
    assert not outcome.failed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    rows = tracer.per_function()
    assert rows["classify.full_report"]["calls"] == 1
    for row in rows.values():
        assert 0 <= row["self_s"] <= row["busy_s"] + 1e-9


def test_workloads_are_seeded():
    for make in WORKLOADS.values():
        a, b, c = make(1), make(1), make(2)
        assert [x.expr for x in a] == [x.expr for x in b]
        assert [x.expr for x in a] != [x.expr for x in c]
        # every seed presents the same manifolds, each under the same key
        assert {x.key: x.kind for x in a} == {x.key: x.kind for x in c}
        assert sorted(x.key for x in a) == list(range(len(a)))


def test_benchmark_json_matches_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert f"limit {run.LIMIT_MS[w['name']]} ms" in w["why"]
    passes = [run.Pass({0: run.Outcome(0.001, "", True, False)}, 0.001, 0.001)]
    e2e = run.end_to_end("pretzel_grid", passes, 0.05)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    layer = run.per_layer(Tracer(), passes, passes)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == v["unit"] for k, v in {**e2e, **layer}.items())
    assert set(LAYERS) <= {name.split(".")[0] for name in layer}
