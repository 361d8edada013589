"""Command-line surface: output shapes, exit codes, determinism."""

import ast
import collections
import dataclasses
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from invsemi import Context, Transformation, classify, cli, compose, parse_transformation, semigroup, verify
from invsemi.cli import build_parser, main
from invsemi.core import fibers, indented_json
from invsemi.errors import BudgetError
from invsemi.ideals import ideals_all
from invsemi.semigroup import DEFAULT_ENUM_BUDGET, FAMILIES, enumerate_family
from invsemi.verify import VerifyConfig, pool_size, run_verify


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "invsemi", *argv],
        capture_output=True,
        text=True,
    )


def test_enum_header_and_listing(capsys):
    assert main(["enum", "--n", "3", "--y", "0,1", "--family", "omegabar"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "count=6"
    assert out[1:] == ["[0 1 0]", "[0 1 1]", "[0 1 2]", "[1 0 0]", "[1 0 1]", "[1 0 2]"]


def test_enum_fix_singleton(capsys):
    assert main(["enum", "--n", "2", "--y", "0,1", "--family", "fix"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["count=1", "[0 1]"]


def test_enum_bad_y_exits_2():
    assert main(["enum", "--n", "3", "--y", "3", "--family", "omegabar"]) == 2


@pytest.mark.parametrize(
    "cmd, n, y, size",
    [("enum", 7, "0", "117,649"), ("eggbox", 7, "0", "117,649"), ("ideals", 7, "0", "117,649"),
     ("kernel", 9, "0,1,2,3,4", "75,000")],  # the kernel at (9,{0..4}): 5! 5^4 members
    ids=["enum", "eggbox", "ideals", "kernel"],
)
def test_family_commands_past_budget_exit_3(cmd, n, y, size, monkeypatch, capsys):
    # the members are counted first: past the cap the generator's product is never entered
    def entered(*args):
        raise AssertionError("a tuple was built past the cap")

    monkeypatch.setattr(semigroup.itertools, "product", entered)
    assert main([cmd, "--n", str(n), "--y", y]) == 3
    err = capsys.readouterr().err
    assert f"omegabar scan over n={n} Y={{{y}}} yields up to {size} members, past the budget 46,656" in err


def test_kernel_of_a_point_answers_at_n12(capsys):
    # one member at every n: the cap counts members, not points
    assert main(["kernel", "--n", "12", "--y", "0", "--format", "text"]) == 0
    assert capsys.readouterr().out == "size=1 t=0\n  [0 0 0 0 0 0 0 0 0 0 0 0]\n"


def test_enum_lists_the_permutations_at_n7(capsys):
    # Y = X: omegabar is the 7! = 5,040 permutations, within the cap though 7^7 maps are not
    assert main(["enum", "--n", "7", "--y", "0,1,2,3,4,5,6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "count=5040"
    assert out[1:] == ["[" + " ".join(map(str, p)) + "]" for p in itertools.permutations(range(7))]


def test_classify_member(capsys):
    assert main(["classify", "--n", "3", "--y", "0,1", "--f", "[0 1 0]"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["membership"] == {
        "tbar": True,
        "omegabar": True,
        "sbar": True,
        "fix": True,
        "unit": False,
    }
    assert doc["profile"] == "[1 1]"
    assert doc["image_deficit"] == 0
    reg = doc["regularity"]
    assert reg["is_regular"] and reg["is_unit_regular"]
    assert reg["witness_unit"] == "[0 1 2]"
    assert reg["certifying_transversal"] == [0, 1]


def test_classify_past_enumeration_cap(capsys):
    # n = 7 is beyond the enumeration budget; the witnesses are built, not searched
    ctx, f = Context(7, (0, 2)), parse_transformation("[2 5 0 5 6 0 1]")
    assert main(["classify", "--n", "7", "--y", "0,2", "--f", str(f)]) == 0
    reg = json.loads(capsys.readouterr().out)["regularity"]
    assert reg["is_regular"] and reg["is_unit_regular"]
    u = parse_transformation(reg["witness_unit"])
    p = parse_transformation(reg["witness_pre_inverse"])
    assert classify(ctx, u).is_unit_of_omegabar and classify(ctx, p).in_omegabar
    assert compose(f, compose(u, f)) == f
    assert compose(f, compose(p, f)) == f
    t = set(reg["certifying_transversal"])
    assert set(ctx.y_set) <= t
    assert all(len(t.intersection(b)) == 1 for b in fibers(f).values())


def test_classify_unit(capsys):
    assert main(["classify", "--n", "3", "--y", "0,1", "--f", "[0 1 2]"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["membership"]["unit"] is True


def test_classify_nonmember_nulls_with_reason(capsys):
    assert main(["classify", "--n", "3", "--y", "0,1", "--f", "[0 0 2]"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["membership"]["omegabar"] is False
    assert doc["profile"] is None
    assert doc["regularity"] is None
    assert "not a member" in doc["reason"]


def test_classify_text(capsys):
    flags = ["tbar=true", "omegabar={0}", "sbar={0}", "fix={0}", "unit=false"]
    assert main(["classify", "--n", "3", "--y", "0,1", "--f", "[0 1 0]", "--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines() == [line.format("true") for line in flags] + [
        "profile=[1 1]",
        "image_deficit=0",
        "is_regular=true",
        "is_unit_regular=true",
    ]
    assert main(["classify", "--n", "3", "--y", "0,1", "--f", "[0 0 2]", "--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines() == [line.format("false") for line in flags] + [
        "reason=not a member: Y is not carried onto Y",
    ]


def test_classify_parse_error_exits_2():
    assert main(["classify", "--n", "3", "--y", "0,1", "--f", "[0 1 9]"]) == 2


def test_green_related_with_oracle(capsys):
    assert main(["green", "--n", "3", "--y", "0,1", "--rel", "L",
                 "--f", "[0 1 0]", "--g", "[1 0 0]"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["related=true", "oracle=true", "agree=true"]


def test_green_witness_lines(capsys):
    assert main(["green", "--n", "3", "--y", "0,1", "--rel", "L",
                 "--f", "[0 1 0]", "--g", "[1 0 0]", "--witness"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "l_f_below_g=[1 0 1]" in out
    assert "l_g_below_f=[1 0 0]" in out


def test_green_witness_r_and_j(capsys):
    ctx, f, g = Context(3, (0, 1)), parse_transformation("[0 1 0]"), parse_transformation("[0 1 2]")
    assert main(["green", "--n", "3", "--y", "0,1", "--rel", "R",
                 "--f", str(f), "--g", str(g), "--witness"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["related=false", "oracle=false", "agree=true", "r_f_below_g=[0 1 0]", "r_g_below_f=None"]
    h = parse_transformation(out[3].split("=", 1)[1])
    assert classify(ctx, h).in_omegabar and compose(g, h) == f
    g = parse_transformation("[1 0 2]")
    assert main(["green", "--n", "3", "--y", "0,1", "--rel", "J",
                 "--f", str(f), "--g", str(g), "--witness"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "related=false",
        "oracle=false",
        "agree=true",
        "j_f_below_g=['[1 0 1]', '[0 1 0]']",
        "j_g_below_f=None",
    ]
    h, h2 = map(parse_transformation, ast.literal_eval(out[3].split("=", 1)[1]))
    assert classify(ctx, h).in_omegabar and classify(ctx, h2).in_omegabar
    assert compose(compose(h, g), h2) == f


def test_green_json(capsys):
    ctx, f, g = Context(3, (0, 1)), parse_transformation("[0 1 0]"), parse_transformation("[1 0 0]")
    assert main(["green", "--n", "3", "--y", "0,1", "--rel", "L",
                 "--f", str(f), "--g", str(g), "--witness", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == (
        '{\n  "rel": "L",\n  "f": "[0 1 0]",\n  "g": "[1 0 0]",\n  "related": true,\n'
        '  "oracle": true,\n  "witnesses": {\n    "l_f_below_g": "[1 0 1]",\n'
        '    "l_g_below_f": "[1 0 0]"\n  }\n}\n'
    )
    w = json.loads(out)["witnesses"]
    h, h2 = parse_transformation(w["l_f_below_g"]), parse_transformation(w["l_g_below_f"])
    assert classify(ctx, h).in_omegabar and classify(ctx, h2).in_omegabar
    assert compose(h, g) == f and compose(h2, f) == g


def test_green_d_middle_past_enumeration_cap(capsys):
    ctx = Context(7, (0, 2))
    f, g = parse_transformation("[2 5 0 5 6 0 1]"), parse_transformation("[0 3 2 4 4 5 3]")
    assert main(["green", "--n", "7", "--y", "0,2", "--rel", "D", "--witness",
                 "--f", str(f), "--g", str(g)]) == 0
    kv = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert kv["related"] == "true"
    m = parse_transformation(kv["d_middle"])
    # a member with f's image and g's kernel; its fibers over Y are then g's too
    assert classify(ctx, m).in_omegabar
    assert m.image() == f.image()
    assert list(fibers(m).values()) == list(fibers(g).values())


def test_green_unrelated(capsys):
    assert main(["green", "--n", "3", "--y", "0,1", "--rel", "J",
                 "--f", "[0 1 2]", "--g", "[0 1 0]"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "related=false"


def test_green_reflexive_h(capsys):
    assert main(["green", "--n", "3", "--y", "0,1", "--rel", "H",
                 "--f", "[0 1 0]", "--g", "[0 1 0]"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "related=true"


def test_green_nonmember_exits_2():
    assert main(["green", "--n", "3", "--y", "0,1", "--rel", "L",
                 "--f", "[0 0 2]", "--g", "[1 0 0]"]) == 2


def test_eggbox_text(capsys):
    assert main(["eggbox", "--n", "3", "--y", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "D-class 0: image-deficit=1 size=2 grid=1x1" in out
    assert "order: D1<=D0" in out


def test_eggbox_dot_clusters(capsys):
    assert main(["eggbox", "--n", "3", "--y", "0,1", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert out.count("subgraph cluster") == 2


def test_eggbox_json(capsys):
    assert main(["eggbox", "--n", "3", "--y", "0,1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["d_classes"]) == 2


def test_ideals_json(capsys):
    assert main(["ideals", "--n", "3", "--y", "0,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 2
    assert [i["size"] for i in doc["ideals"]] == [4, 6]
    assert [i["t"] for i in doc["ideals"]] == [0, 1]


def test_family_cli_outputs_match_recorded_digests(capsys):
    # SHA-256 of stdout of enum (all four families, text and json), ideals and
    # kernel (json and text) on two contexts at n = 6 and two at n = 5,
    # recorded from the code that validated every enumerated member and
    # rendered a member once for each ideal holding it; the enum json rows
    # from the code that printed through the standard library's JSON encoder
    recorded = json.loads((Path(__file__).parent / "data" / "family_cli_sha256.json").read_text())
    assert len(recorded) == 4 * (4 + 4 + 4)
    for row in recorded:
        assert main(row["argv"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == row["sha256"], row["argv"]


def test_json_writer_equals_stdlib_on_family_pin_documents(monkeypatch, capsys):
    # every document the family pins print as json goes through the one writer,
    # which must give json.dumps's bytes for it
    printed = []

    def checked(doc):
        text = indented_json(doc)
        assert text == json.dumps(doc, indent=2)
        printed.append(doc)
        return text

    monkeypatch.setattr(cli, "indented_json", checked)
    recorded = json.loads((Path(__file__).parent / "data" / "family_cli_sha256.json").read_text())
    rows = [row for row in recorded if row["argv"][-1] == "json"]
    for row in rows:
        assert main(row["argv"]) == 0
        capsys.readouterr()
    assert len(printed) == len(rows) == 4 * (4 + 2)


def _every_context(max_n):
    """Every (n, Y) with n <= max_n, by n, then |Y|, then Y lexicographically, with Y as a CLI argument."""
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            for ys in itertools.combinations(range(n), k):
                yield n, ys, ",".join(map(str, ys))


def test_family_cli_outputs_on_every_context_match_recorded_digest(capsys):
    # one SHA-256 over the stdout of enum (all four families), ideals and kernel, text
    # and json, on every context with n <= 5, then ideals and kernel on every context
    # at n = 6; recorded from the code that built a Transformation for each member
    # and formatted each ideal's members through a lookup by image tuple
    recorded = json.loads((Path(__file__).parent / "data" / "family_all_contexts_sha256.json").read_text())
    digest, calls = hashlib.sha256(), 0
    for n, _, y in _every_context(6):
        argvs = [["enum", "--n", str(n), "--y", y, "--family", fam] for fam in FAMILIES] if n <= 5 else []
        argvs += [[cmd, "--n", str(n), "--y", y] for cmd in ("ideals", "kernel")]
        for argv in argvs:
            for fmt in ("text", "json"):
                assert main([*argv, "--format", fmt]) == 0
                digest.update(capsys.readouterr().out.encode())
                calls += 1
    assert calls == recorded["calls"] == 4 * 57 * 2 + 2 * 2 * 57 + 2 * 2 * 63
    assert digest.hexdigest() == recorded["sha256"]


def test_family_commands_build_no_map_per_member(monkeypatch, capsys):
    # enum, ideals and kernel print from the generated image tuples: with every way of
    # building a Transformation made to raise, they still print their pinned output
    def refuse(*args):
        raise AssertionError("a Transformation was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("invsemi"):
            for attr in ("_trusted", "_trusted_all"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(Transformation, "__post_init__", refuse)
    for build in (lambda: enumerate_family(Context(3, (0, 1))), lambda: parse_transformation("[0 1 0]")):
        with pytest.raises(AssertionError, match="a Transformation was built"):
            build()
    members = ["[0 1 0]", "[0 1 1]", "[1 0 0]", "[1 0 1]"]
    everything = ["[0 1 0]", "[0 1 1]", "[0 1 2]", "[1 0 0]", "[1 0 1]", "[1 0 2]"]
    pinned = {
        ("enum", "--n", "3", "--y", "0,1"): ["count=6", *everything],
        ("ideals", "--n", "3", "--y", "0,1", "--format", "text"): [
            "count=2", "ideal 0: size=4 t=0", *(f"  {m}" for m in members),
            "ideal 1: size=6 t=1", *(f"  {m}" for m in everything),
        ],
        ("kernel", "--n", "3", "--y", "0,1", "--format", "text"): ["size=4 t=0", *(f"  {m}" for m in members)],
    }
    for argv, lines in pinned.items():
        assert main(list(argv)) == 0
        assert capsys.readouterr().out.splitlines() == lines, argv
    assert main(["ideals", "--n", "3", "--y", "0,1"]) == 0
    assert [d["members"] for d in json.loads(capsys.readouterr().out)["ideals"]] == [members, everything]


def test_ideals_cli_cuts_the_library_chain_n_le_5(capsys):
    # the CLI cuts the deficit chain from formatted image tuples; the library cuts it
    # from the enumerated maps: on every context with n <= 5 they give the same ideals
    for n, ys, y in _every_context(5):
        assert main(["ideals", "--n", str(n), "--y", y]) == 0
        printed = [d["members"] for d in json.loads(capsys.readouterr().out)["ideals"]]
        assert printed == [[str(f) for f in ideal] for ideal in ideals_all(enumerate_family(Context(n, ys)))], y


def test_kernel_json(capsys):
    assert main(["kernel", "--n", "3", "--y", "0,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == 4
    assert doc["members"] == ["[0 1 0]", "[0 1 1]", "[1 0 0]", "[1 0 1]"]


def test_profile_text_verdicts(capsys):
    assert main(["profile", "[w 1 1]", "[w w 1]"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["d=false", "j_into_p=true", "j_into_q=true", "j=true"]


def test_profile_json(capsys):
    assert main(["profile", "[w 1 1]", "[w w 1]", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d"] is None
    assert doc["pack_q_into_p"] is not None
    assert doc["pack_p_into_q"] is not None


def test_profile_cli_outputs_match_recorded_digest(capsys):
    # SHA-256 of the concatenated stdout of `profile p q` over every ordered
    # pair of 24 profiles with one or two sizes from {1, 2, w}, with and
    # without a rest tail, json then text; pairs whose index sets cannot be
    # in bijection ask for --j only.  Pins how w and +rest1 are printed.
    recorded = json.loads((Path(__file__).parent / "data" / "profile_cli_sha256.json").read_text())
    pool = [
        "[" + " ".join(sizes) + "]" + tail
        for k in (1, 2)
        for sizes in itertools.product("12w", repeat=k)
        for tail in ("", "+rest1")
    ]
    digest = hashlib.sha256()
    for p, q in itertools.product(pool, repeat=2):
        rest = p.endswith("+rest1")
        comparable = rest == q.endswith("+rest1") and (rest or p.count(" ") == q.count(" "))
        for fmt in ("json", "text"):
            assert main(["profile", p, q, "--format", fmt] + ([] if comparable else ["--j"])) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == recorded["sha256"]


def test_profile_rejects_invalid_cover(monkeypatch):
    # the independent check of every printed cover is a raise, not an
    # assert, so it also runs under python -O
    monkeypatch.setattr("invsemi.cli.cover_is_valid", lambda p, q, cover: False)
    with pytest.raises(RuntimeError, match="invalid cover"):
        main(["profile", "[w 1 1]", "[w w 1]", "--format", "json"])


def test_profile_budget_exits_3():
    nine = "[" + " ".join(["1"] * 9) + "]"
    assert main(["profile", nine, nine]) == 3


def test_enum_output_reparses(capsys):
    assert main(["enum", "--n", "3", "--y", "0,1"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    for line in lines:
        assert main(["classify", "--n", "3", "--y", "0,1", "--f", line]) == 0
        capsys.readouterr()


def test_main_reuses_one_parser(capsys):
    assert build_parser() is build_parser()

    def out_of(*argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    green = ["green", "--n", "3", "--y", "0,1", "--rel", "L", "--f", "[0 1 0]", "--g", "[1 0 0]"]
    bare = out_of(*green)
    assert "l_f_below_g=" in out_of(*green, "--witness")
    assert out_of(*green) == bare
    assert "below" not in bare

    profile = ["profile", "[w 1 1]", "[w w 1]"]
    assert out_of(*profile, "--d").splitlines() == ["d=false"]
    assert out_of(*profile).splitlines() == ["d=false", "j_into_p=true", "j_into_q=true", "j=true"]

    before = out_of(*profile)
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--n", "3", "--y", "0,1"])
    assert exc.value.code == 2
    assert "--f" in capsys.readouterr().err
    assert out_of(*profile) == before


def _given(opt):
    """The tokens that give one option a value other than its default."""
    if opt.kind is cli.SWITCH:
        return [opt.flag]
    return [opt.flag, {int: "3", str: "[0 1 0]"}.get(opt.kind) or opt.kind[-1]]


def _well_formed_lines():
    """Each command with its required options alone, with each other option
    given, with every option in table and in reverse order, and hand-made
    lines for repeats, positionals between options and odd but valid values."""
    for name, (_, _, positionals, options) in cli.COMMANDS.items():
        pos = ["[w 1 1]", "[w w 1]"][: len(positionals)]
        required = [t for opt in options if opt.required for t in _given(opt)]
        yield [name, *pos, *required]
        for opt in options:
            if not opt.required:
                yield [name, *required, *_given(opt), *pos]
        yield [name, *pos, *(t for opt in options for t in _given(opt))]
        yield [name, *(t for opt in reversed(options) for t in _given(opt)), *pos]
    yield ["enum", "--n", "3", "--y", "0", "--n", "4", "--format", "json", "--format", "text"]
    yield ["green", "--witness", "--n", "3", "--y", "0,1", "--rel", "L", "--f", "[0 1 0]",
           "--g", "[1 0 0]", "--witness", "--rel", "J"]
    yield ["profile", "--d", "[w 1 1]", "--format", "json", "[w w 1]", "--j"]
    yield ["profile", "[w 1 1]", "--j", "[w w 1]", "--d", "--j"]
    yield ["verify", "--sample-n5", "--max-n", "2", "--out", "r.json", "--seed", "7", "--jobs", "2"]
    yield ["enum", "--n", "3", "--y", ""]
    yield ["classify", "--f", "[1 0 0]", "--y", "0,1", "--n", "\u0663"]  # ARABIC-INDIC DIGIT THREE


@pytest.mark.parametrize("argv", list(_well_formed_lines()), ids=" ".join)
def test_reader_matches_argparse_on_well_formed_lines(argv):
    # both come from one table; the reader must give argparse's namespace exactly
    read = cli._read(argv)
    assert read is not None
    assert vars(read) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv, stream, text",
    [
        (["-h"], None, "usage: invsemi [-h]"),
        (["green", "-h"], None, "usage: invsemi green [-h]"),
        ([], 2, "invsemi: error: the following arguments are required: command"),
        (["nosuchcommand"], 2, "invsemi: error: argument command: invalid choice: 'nosuchcommand'"),
        (["verify", "--bogus"], 2, "invsemi: error: unrecognized arguments: --bogus"),
        (["classify", "--n", "3", "--y", "0,1"], 2,
         "invsemi classify: error: the following arguments are required: --f"),
        (["green", "--n", "3", "--y", "0,1", "--rel", "X", "--f", "[0 1 0]", "--g", "[1 0 0]"], 2,
         "invsemi green: error: argument --rel: invalid choice: 'X'"),
        (["enum", "--n", "x", "--y", "0,1"], 2, "invsemi enum: error: argument --n: invalid int value: 'x'"),
        (["enum", "--n", "3", "--y"], 2, "invsemi enum: error: argument --y: expected one argument"),
        (["profile", "[w 1 1]", "[w w 1]", "[1]"], 2, "invsemi: error: unrecognized arguments: [1]"),
    ],
)
def test_reader_leaves_help_and_usage_errors_to_argparse(argv, stream, text, capsys):
    # exit code 0 prints help on stdout; exit code 2 prints the usage error on stderr
    assert cli._read(argv) is None
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == (stream or 0)
    assert text in (err if stream else out)


@pytest.mark.parametrize(
    "argv, attrs, code, err",
    [
        (["enum", "--n", "3", "--y", "0,1", "--fam", "fix"], {"family": "fix"}, 0, ""),
        (["enum", "--n=3", "--y", "0,1"], {"n": 3}, 0, ""),
        (["enum", "--n", " +3", "--y", "0,1"], {"n": 3}, 0, ""),
        (["verify", "--max-n", "1", "--jobs", "-3"], {"jobs": -3}, 2, "error: jobs must be at least 1, got -3\n"),
        (["profile", "-1", "[1]"], {"p": "-1"}, 2,
         "error: expected profile like '[w 1 1]' or '[w]+rest1', got '-1'\n"),
    ],
)
def test_reader_leaves_abbreviations_joined_values_and_dashes_to_argparse(argv, attrs, code, err, capsys):
    # argparse reads these lines; main runs them as it did before the reader
    assert cli._read(argv) is None
    assert vars(build_parser().parse_args(argv)).items() >= attrs.items()
    assert main(argv) == code
    assert capsys.readouterr().err == err


def test_cli_import_and_well_formed_lines_leave_argparse_out():
    # argparse is imported only to print help or a usage error
    r = subprocess.run(
        [sys.executable, "-c", "import invsemi.cli, sys; sys.exit('argparse' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr or "argparse imported with invsemi.cli"
    r = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "invsemi", "profile", "[w 1 1]", "[w w 1]", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0 and '"p": "[w 1 1]"' in r.stdout
    imported = {line.rpartition("|")[2].strip() for line in r.stderr.splitlines()}
    assert "invsemi.cli" in imported and "argparse" not in imported
    r = run_cli("green", "--help")
    assert r.returncode == 0 and r.stdout.startswith("usage: invsemi green [-h]")


def test_usage_error_exits_2():
    r = run_cli("classify", "--n", "3", "--y", "0,1")
    assert r.returncode == 2
    r = run_cli("nosuchcommand")
    assert r.returncode == 2


def test_verify_max_n_1_passes():
    r = run_cli("verify", "--max-n", "1", "--seed", "7", "--format", "text")
    assert r.returncode == 0
    assert "0 failed" in r.stdout


def test_verify_deterministic_bytes():
    a = run_cli("verify", "--max-n", "2", "--seed", "7")
    b = run_cli("verify", "--max-n", "2", "--seed", "7")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_verify_jobs_do_not_change_output():
    a = run_cli("verify", "--max-n", "2", "--seed", "7", "--jobs", "1")
    b = run_cli("verify", "--max-n", "2", "--seed", "7", "--jobs", "3")
    assert a.stdout == b.stdout


def test_verify_pool_size_is_clamped():
    cpus = os.cpu_count() or 1
    assert pool_size(1, 10) == 1
    assert pool_size(10_000, 3) == min(3, cpus)
    assert pool_size(10_000, 10_000) == cpus
    for bad in (0, -1):
        with pytest.raises(ValueError):
            pool_size(bad, 10)


def test_cli_import_leaves_multiprocessing_out():
    # only a pooled verify needs a process pool; every other command skips its import
    r = subprocess.run(
        [sys.executable, "-c", "import invsemi.cli, sys; sys.exit('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr or "multiprocessing imported with invsemi.cli"


def test_verify_jobs_below_one_exits_2():
    assert main(["verify", "--max-n", "1", "--jobs", "0"]) == 2
    assert main(["verify", "--max-n", "1", "--jobs", "-3"]) == 2


def test_verify_max_n_past_enumeration_cap_exits_3(capsys):
    # refused before any context is listed, so a large value returns at once
    assert main(["verify", "--max-n", "40"]) == 3
    assert "error: max_n=40 exceeds the enumeration budget 46,656: tbar over n=40 Y=X has 40^40 members" in (
        capsys.readouterr().err
    )
    with pytest.raises(BudgetError, match="enumeration budget"):
        run_verify(VerifyConfig(max_n=7))


def test_verify_max_n_below_one_exits_2(capsys):
    assert main(["verify", "--max-n", "0"]) == 2
    assert main(["verify", "--max-n", "-3"]) == 2
    assert "max_n must be at least 1" in capsys.readouterr().err
    with pytest.raises(ValueError, match="max_n"):
        run_verify(VerifyConfig(max_n=0))


def test_verify_mutant_detected():
    env = dict(os.environ, INVSEMI_MUTATE="flip-compose")
    r = subprocess.run(
        [sys.executable, "-m", "invsemi", "verify", "--max-n", "3", "--seed", "7",
         "--format", "text"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 1
    failing = [line.split()[1] for line in r.stdout.splitlines() if line.startswith("FAIL")]
    assert failing == ["green.L", "green.R", "green.D_compositions", "witness.L", "witness.R", "witness.J"]


def test_only_the_mutation_switch_reads_the_environment():
    # the one environment variable is INVSEMI_MUTATE, read by verify; every
    # other setting is an argument
    def readers(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from ((where, "import") for a in node.names if a.name in ("environ", "getenv"))
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            yield where, node.attr
        for child in ast.iter_child_nodes(node):
            yield from readers(child, where)

    src = Path(cli.__file__).parent
    found = {(path.name, *hit) for path in src.glob("*.py") for hit in readers(ast.parse(path.read_text()), None)}
    assert found == {("verify.py", "_apply_env_mutation", "environ")}


def test_kernel_check_catches_a_bigger_ideal(monkeypatch):
    # kernel reads the closed form; the check holds it against the intersection
    # of all ideals
    monkeypatch.setattr(verify, "kernel", lambda ctx: ideals_all(enumerate_family(ctx))[1])
    checked, ex = verify._check_kernel(verify._CtxData(Context(3, (0,))), random.Random(0))
    assert checked == 1
    assert ex["detail"] == "kernel differs from the intersection of all ideals"


def test_units_check_catches_a_unit_without_inverse(monkeypatch):
    real = verify.units

    def skewed(ctx):
        us = list(real(ctx))
        assert str(us[4]) == "[0 3 1 2]"
        us[4] = parse_transformation("[0 1 1 1]")  # a member, but not a bijection
        return tuple(us)

    monkeypatch.setattr(verify, "units", skewed)
    checked, ex = verify._check_count_units(verify._CtxData(Context(4, (0,))), random.Random(0))
    # the inverse of [0 2 3 1] was [0 3 1 2], and the units come in order
    assert (checked, ex["unit"], ex["detail"]) == (6, "[0 2 3 1]", "no two-sided inverse among units")


def test_down_set_check_draws_recorded_subsets(monkeypatch):
    real = verify.j_of_f
    drawn = []

    def recording(members, subset):
        drawn.append(tuple(map(str, subset)))
        return real(members, subset)

    monkeypatch.setattr(verify, "j_of_f", recording)
    want = {
        (4, (0,)): [
            ("[0 1 1 3]",), ("[0 1 0 1]",), ("[0 0 0 0]", "[0 3 1 0]"),
            ("[0 0 1 3]", "[0 1 0 2]"), ("[0 1 1 2]", "[0 2 1 3]"), ("[0 0 1 3]", "[0 3 1 0]"),
        ],
        (5, (0, 1)): [
            ("[0 1 0 2 0]",), ("[1 0 1 3 4]", "[1 0 1 4 0]"), ("[0 1 2 2 1]",),
            ("[0 1 2 4 0]", "[1 0 1 1 1]"), ("[1 0 2 1 4]",), ("[1 0 1 0 1]", "[1 0 3 3 2]"),
        ],
    }  # fmt: skip
    for (n, ys), subsets in want.items():
        drawn.clear()
        rng = verify._rng_for(7, "ideal.down_sets", n, ys)
        assert verify._check_ideal_down_sets(verify._CtxData(Context(n, ys)), rng) == (6, None)
        assert drawn == subsets


def test_transversal_check_catches_a_non_least_certificate(monkeypatch):
    real = verify.is_unit_regular

    def skewed(ctx, f):
        rep = real(ctx, f)
        if f.images == (0, 1, 1):
            return dataclasses.replace(rep, certifying_transversal=frozenset({0, 2}))
        return rep

    monkeypatch.setattr(verify, "is_unit_regular", skewed)
    data = verify._CtxData(Context(3, (0,)))
    ex = verify._check_transversals(data, random.Random(0))[1]
    assert ex["f"] == "[0 1 1]" and ex["t"] == "[0, 2]"
    assert ex["detail"] == "certificate is not the least transversal containing Y"
    # reg.unit_regular leaves the certificate to core.transversals
    assert verify._check_unit_regular(data, random.Random(0))[1] is None


def test_pre_inverse_check_catches_an_escaped_map(monkeypatch):
    real = verify.pre_inverses
    stray = parse_transformation("[0 0 0]")  # carries Y into Y, not injective on Y

    monkeypatch.setattr(verify, "pre_inverses", lambda ctx, f, family: real(ctx, f, family) + (stray,))
    ex = verify._check_pre_inverse(verify._CtxData(Context(3, (0, 1))), random.Random(0))[1]
    assert ex["g"] == "[0 0 0]"
    assert ex["detail"] == "pre-inverse escaped sbar"


def test_eggbox_check_catches_a_wrong_idempotent_flag(monkeypatch):
    real = verify.eggbox

    def flipped(members):
        # D-class 1 (deficit 2) at (4,{1}): cell (1, 2) holds no idempotent; claim one
        box = real(members)
        grid = box.d_classes[1]
        cells = [list(row) for row in grid.cells]
        assert str(cells[1][2].elements[0]) == "[2 1 1 3]" and not cells[1][2].has_idempotent
        cells[1][2] = dataclasses.replace(cells[1][2], has_idempotent=True)
        grids = list(box.d_classes)
        grids[1] = dataclasses.replace(grid, cells=tuple(map(tuple, cells)))
        return dataclasses.replace(box, d_classes=tuple(grids))

    monkeypatch.setattr(verify, "eggbox", flipped)
    rows = verify._run_context((7, 4, (1,)))
    failing = {label: ex for label, status, _, ex in rows if status != "pass"}
    # every row and column still holds an idempotent, so only the squares catch it
    assert list(failing) == ["eggbox.grid"]
    assert failing["eggbox.grid"]["detail"] == "idempotent flag vs squares"


def test_run_context_enumerates_each_family_once(monkeypatch):
    # every builder and check of a context reads the context's one enumeration of each family
    real, calls = enumerate_family, collections.Counter()

    def counting(ctx, family="omegabar", budget=DEFAULT_ENUM_BUDGET):
        calls[family] += 1
        return real(ctx, family, budget)

    for name, module in list(sys.modules.items()):
        if name.startswith("invsemi") and getattr(module, "enumerate_family", None) is real:
            monkeypatch.setattr(module, "enumerate_family", counting)
    for n, ys in ((4, (0,)), (5, (0, 1))):
        calls.clear()
        rows = verify._run_context((7, n, ys))
        assert [status for _, status, _, _ in rows] == ["pass"] * len(verify.CTX_CHECKS), (n, ys)
        assert calls == collections.Counter(FAMILIES), (n, ys)


def test_flag_table_is_indexed_by_images():
    # the table spreads the flags of each restriction to Y; here each map's flags are read off the definitions
    for n in range(1, 5):
        for ys in itertools.chain.from_iterable(itertools.combinations(range(n), r) for r in range(1, n + 1)):
            ctx = Context(n, ys)
            data = verify._CtxData(ctx)
            for imgs in itertools.product(range(n), repeat=n):
                assert data.flags(imgs) == verify._definitional_flags(ctx, imgs), (ys, imgs)


def test_membership_check_catches_a_wrong_classify(monkeypatch):
    real = verify.classify

    def wrong(ctx, f):
        flags = real(ctx, f)
        if f.images == (0, 2, 1):
            return dataclasses.replace(flags, is_unit_of_omegabar=False)
        return flags

    monkeypatch.setattr(verify, "classify", wrong)
    rows = verify._run_context((7, 3, (0,)))
    failing = {label: ex for label, status, _, ex in rows if status != "pass"}
    # the other checks read the definitional flags, not classify
    assert list(failing) == ["core.membership"]
    ex = failing["core.membership"]
    assert ex["f"] == "[0 2 1]"
    assert (ex["got"], ex["want"]) == ("(True, True, True, True, False)", "(True, True, True, True, True)")


def test_verify_report_file(tmp_path):
    out, out_text = tmp_path / "report.json", tmp_path / "report-text.json"
    r = run_cli("verify", "--max-n", "2", "--seed", "7", "--format", "json", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["summary"]["fail"] == 0
    # the file is the JSON stdout, byte for byte, whatever --format prints
    assert out.read_bytes() == r.stdout.encode()
    assert run_cli("verify", "--max-n", "2", "--seed", "7", "--format", "text", "--out", str(out_text)).returncode == 0
    assert out_text.read_bytes() == out.read_bytes()
    # the CLI writes the file; the library's run_verify only returns the report
    with pytest.raises(TypeError):
        VerifyConfig(report_path=str(out))
