"""Tests for the benchmark's own output checks.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

import checks
import mixes
import run

sys.path.insert(0, str(run.SRC))

from invsemi import core  # noqa: E402
from invsemi import verify as invsemi_verify  # noqa: E402
from invsemi.cli import main as cli_main  # noqa: E402


def cli(argv: list) -> str:
    rc, _, out, err = run.run_op(cli_main, argv, None)
    assert rc == 0, err
    return out


# --- maps and closed forms ----------------------------------------------------------


def test_compose_is_left_to_right():
    f, g = (1, 0, 0), (2, 2, 1)
    assert checks.compose(f, g) == (2, 2, 2)  # x(fg) = (xf)g
    assert checks.compose(g, f) == (0, 0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_family_sizes_match_closed_forms(n):
    for k in range(1, n + 1):
        for ys in itertools.combinations(range(n), k):
            for name in ("omegabar", "sbar", "tbar", "fix"):
                assert len(checks.family(n, ys, name)) == checks.family_size(n, k, name)


def test_definitional_l_and_r():
    ys = (0,)
    members = checks.family(3, ys)
    # same image {0, 2}, different kernels
    assert checks.l_below(members, (0, 2, 2), (0, 0, 2))
    assert not checks.r_below(members, (0, 2, 2), (0, 0, 2))


# --- profile packing -----------------------------------------------------------------

SIZES = (1, 2, 3, checks.W)


def _profiles(max_len: int):
    for length in range(0, max_len + 1):
        for sizes in itertools.product(SIZES, repeat=length):
            for rest in (False, True):
                if sizes or rest:
                    yield sizes, rest


def _packs_by_assignment(p, q) -> bool:
    """Definition: each explicit q fiber goes to a p bin or, if of size 1, to p's tail of unit bins."""
    (ps, pr), (qs, qr) = p, q
    tail_targets = [i for i, c in enumerate(ps) if c is checks.W]
    if qr and not pr and not tail_targets:
        return False
    targets = list(range(len(ps))) + (["rest"] if pr else [])
    for choice in itertools.product(targets, repeat=len(qs)):
        loads: dict = {}
        ok = True
        for s, t in zip(qs, choice):
            if t == "rest":
                ok = ok and s == 1
            else:
                loads[t] = checks._add(loads.get(t, 0), s)
        if ok and all(checks._fits(load, ps[t]) for t, load in loads.items()):
            return True
    return False


def test_j_feasible_matches_assignment_search():
    small = list(_profiles(3))
    for p in small:
        for q in small:
            assert checks.j_feasible(p, q) == _packs_by_assignment(p, q), (p, q)


def test_d_feasible_matches_permutation_search():
    small = list(_profiles(3))
    for p, q in itertools.product(small, repeat=2):
        (ps, pr), (qs, qr) = p, q
        if pr != qr or not pr and len(ps) != len(qs):
            continue
        # pad the explicit lists with unit fibers from the tails
        width = max(len(ps), len(qs))
        pp, qq = list(ps) + [1] * (width - len(ps)), list(qs) + [1] * (width - len(qs))
        want = any(all(a == qq[j] for a, j in zip(pp, perm)) for perm in itertools.permutations(range(width)))
        assert checks.d_feasible(p, q) == want, (p, q)


def test_hard_packings_are_infeasible_and_fit_by_total():
    for p_text, q_text in mixes.HARD_PACKINGS:
        p, q = checks.parse_profile(p_text), checks.parse_profile(q_text)
        assert not checks.j_feasible(p, q)
        assert sum(q[0]) <= sum(p[0])  # total load fits, so no quick refusal


def test_cover_and_matching_validators():
    p, q = checks.parse_profile("[3 w]+rest1"), checks.parse_profile("[2 1 1]+rest1")
    good = {"blocks": [[0], [1]], "to_rest": [2], "rest_to_rest": True, "rest_to_block": None}
    assert checks.cover_errors(p, q, good) == []
    overfull = dict(good, blocks=[[0, 1, 2], []], to_rest=[])
    assert checks.cover_errors(checks.parse_profile("[3 3]+rest1"), q, overfull)
    assert checks.cover_errors(p, q, dict(good, to_rest=[]))  # index 2 unplaced
    assert checks.cover_errors(p, q, dict(good, rest_to_rest=False))  # tail unrouted
    assert checks.cover_errors(p, q, dict(good, rest_to_block=0))  # tail routed twice
    m = {"0": None, "1": 0}
    a, b = checks.parse_profile("[1 2]+rest1"), checks.parse_profile("[2]+rest1")
    assert checks.matching_errors(a, b, m) == []
    assert checks.matching_errors(a, b, {"0": 0, "1": 0})


def test_profile_check_accepts_the_cli_and_rejects_a_flipped_verdict():
    for argv in [op[1] for op in mixes.packing_round(3) if op[0] == "easy"][:20]:
        out = cli(argv)
        assert checks.check_output(argv, out) == [], argv
    argv = mixes.profile_argv("[w 1 1]", "[w w 1]")
    doc = json.loads(cli(argv))
    doc["pack_q_into_p"] = None
    assert checks.check_output(argv, json.dumps(doc))


# --- family commands and lookups ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "--n", "4", "--y", "1,3", "--family", "tbar"],
        ["eggbox", "--n", "4", "--y", "2", "--format", "json"],
        ["ideals", "--n", "4", "--y", "0,1"],
        ["kernel", "--n", "4", "--y", "3"],
    ],
)
def test_family_checks_accept_the_cli_and_reject_a_dropped_member(argv):
    out = cli(argv)
    assert checks.check_output(argv, out) == []
    if argv[0] == "enum":
        lines = out.splitlines()
        tampered = "\n".join(lines[:-1]) + "\n"
    else:
        doc = json.loads(out)
        members = doc["d_classes"][0]["cells"][0][0]["elements"] if argv[0] == "eggbox" else (
            doc["ideals"][-1]["members"] if argv[0] == "ideals" else doc["members"]
        )
        members.pop()
        tampered = json.dumps(doc)
    assert checks.check_output(argv, tampered)


def test_green_check_rejects_wrong_verdicts_and_witnesses():
    argv = ["green", "--n", "4", "--y", "0", "--rel", "L", "--f", "[0 1 2 3]", "--g", "[0 3 2 1]", "--witness"]
    out = cli(argv)
    assert checks.check_output(argv, out) == []
    assert checks.check_output(argv, out.replace("related=true", "related=false"))
    bad = out.replace("l_f_below_g=[0 3 2 1]", "l_f_below_g=[0 1 2 3]")
    assert bad != out and checks.check_output(argv, bad)
    # unrelated by image; a "related" verdict must be caught without witnesses
    argv = ["green", "--n", "5", "--y", "0", "--rel", "D", "--f", "[0 0 0 0 0]", "--g", "[0 1 2 3 4]"]
    out = cli(argv)
    assert checks.check_output(argv, out) == []
    assert checks.check_output(argv, out.replace("related=false", "related=true"))


def test_classify_check_rejects_a_bad_witness():
    argv = ["classify", "--n", "4", "--y", "0,1", "--f", "[1 0 0 3]"]
    doc = json.loads(cli(argv))
    assert checks.check_output(argv, json.dumps(doc)) == []
    doc["regularity"]["witness_unit"] = "[0 1 2 3]"
    assert checks.check_output(argv, json.dumps(doc))


def test_queries_round_answers_correctly_below_n5():
    ops = [op for op in mixes.queries_round(5) if op[1][0] != "profile" and op[1][2] == "4"]
    assert len(ops) >= 30
    assert run.output_errors("queries", 5, ops, _one_round(ops)) == []


def test_verify_check_accepts_a_small_battery():
    out = cli(["verify", "--max-n", "2", "--seed", "3"])
    assert checks.check_verify(out, 3, 2, False) == []
    assert checks.check_verify(out, 4, 2, False)  # wrong seed in the config


# --- a broken composition is caught -------------------------------------------------------


def _one_round(ops: list) -> dict:
    first = {}
    for _, argv in ops:
        rc, _, out, err = run.run_op(cli_main, argv, None)
        first[tuple(argv)] = (rc, out, err)
    return {"first": first, "changed": set()}


def test_flip_compose_mutation_is_caught(monkeypatch):
    monkeypatch.setenv("INVSEMI_MUTATE", "flip-compose")
    try:
        rc, _, out, _ = run.run_op(cli_main, ["verify", "--max-n", "3", "--seed", "1"], None)
        assert rc == 1
        assert any("checks not passing" in e for e in checks.check_verify(out, 1, 3, False))
        # the CLI's other commands read the mutation only through the verify
        # runner, so apply it the same way before replaying the query mix
        invsemi_verify._apply_env_mutation()
        ops = [op for op in mixes.queries_round(1) if op[1][0] == "green" and op[1][2] == "4"]
        errors = run.output_errors("queries", 1, ops, _one_round(ops))
        assert len(errors) >= len(ops) // 3
    finally:
        core._set_mutation(None)


# --- the benchmark definition ---------------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(mixes.ROUNDS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_percentiles_fall_inside_their_classes():
    """Ranks from the slowest: p50 among the lookups, the tail among the whole-family ops.

    The tail percentile leaves at least ten answered calls above it.
    """
    ops = mixes.queries_round(1)
    answered = sum(1 for cls, _ in ops if cls != "beyond_cap")
    family = sum(1 for cls, _ in ops if cls == "family")
    tail_rank = (100 - mixes.TAIL_PERCENTILE["queries"]) / 100 * answered
    assert 10 <= tail_rank <= family - 3
    assert family + 10 <= answered / 2 <= answered - 10
    ops = mixes.packing_round(1)
    hard = sum(1 for cls, _ in ops if cls == "hard")
    tail_rank = (100 - mixes.TAIL_PERCENTILE["packing"]) / 100 * len(ops)
    assert 10 <= tail_rank < hard - 1
