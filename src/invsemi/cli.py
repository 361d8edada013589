"""Command-line surface over the library.

Exit codes: 0 success, 1 verification failures, 2 bad arguments or domain
errors, 3 resource budget exceeded.  All output is deterministic for a given
command line; the verify report in particular is byte-identical across runs
with the same seed and bounds.
"""

from __future__ import annotations

import collections
import functools
import sys
from itertools import compress
from types import SimpleNamespace

from .core import (
    Context,
    classify,
    format_all,
    image_deficit,
    indented_json,
    parse_transformation,
    parse_y,
)
from .errors import BudgetError, DimensionError, DomainError
from .extnat import (
    cover_is_valid,
    d_condition,
    j_condition,
    parse_profile,
    profile_of,
)
from .ideals import _deficit_cuts, _kernel_images
from .regularity import is_unit_regular
from .semigroup import (
    GreenOracle,
    RELATIONS,
    _family_images,
    eggbox,
    eggbox_dot,
    eggbox_json,
    eggbox_text,
    enumerate_family,
    green_related,
    d_middle_witness,
    j_below_witness,
    l_below_witness,
    r_below_witness,
)
from .verify import VerifyConfig, exit_code_for, render_report_json, render_report_text, run_verify

ORACLE_CROSS_CHECK_LIMIT = 4  # n above this skips the exhaustive oracle in `green`


def _ctx_of(args) -> Context:
    return Context(args.n, parse_y(args.y))


def cmd_enum(args) -> int:
    ctx = _ctx_of(args)
    texts = format_all(_family_images(ctx, args.family))
    if args.format == "json":
        doc = {
            "n": ctx.n,
            "y": list(ctx.y_set),
            "family": args.family,
            "count": len(texts),
            "elements": texts,
        }
        print(indented_json(doc))
    else:
        lines = [f"count={len(texts)}", *texts]
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_classify(args) -> int:
    ctx = _ctx_of(args)
    f = parse_transformation(args.f)
    flags = classify(ctx, f)
    doc: dict = {
        "f": str(f),
        "n": ctx.n,
        "y": list(ctx.y_set),
        "membership": {
            "tbar": flags.in_tbar,
            "omegabar": flags.in_omegabar,
            "sbar": flags.in_sbar,
            "fix": flags.in_fix,
            "unit": flags.is_unit_of_omegabar,
        },
        "profile": None,
        "image_deficit": None,
        "regularity": None,
        "reason": None,
    }
    if flags.in_omegabar:
        doc["profile"] = str(profile_of(ctx, f))
        doc["image_deficit"] = image_deficit(ctx, f)
        rep = is_unit_regular(ctx, f)
        doc["regularity"] = {
            "is_regular": rep.is_regular,
            "is_unit_regular": rep.is_unit_regular,
            "witness_pre_inverse": str(rep.witness_pre_inverse),
            "witness_unit": str(rep.witness_unit),
            "certifying_transversal": sorted(rep.certifying_transversal),
        }
    else:
        doc["reason"] = "not a member: Y is not carried onto Y"
    if args.format == "text":
        for key in ("tbar", "omegabar", "sbar", "fix", "unit"):
            print(f"{key}={str(doc['membership'][key]).lower()}")
        if doc["reason"]:
            print(f"reason={doc['reason']}")
        else:
            print(f"profile={doc['profile']}")
            print(f"image_deficit={doc['image_deficit']}")
            reg = doc["regularity"]
            print(f"is_regular={str(reg['is_regular']).lower()}")
            print(f"is_unit_regular={str(reg['is_unit_regular']).lower()}")
    else:
        print(indented_json(doc))
    return 0


def cmd_green(args) -> int:
    ctx = _ctx_of(args)
    f = parse_transformation(args.f)
    g = parse_transformation(args.g)
    rel = args.rel
    related = green_related(ctx, rel, f, g)
    doc: dict = {
        "rel": rel,
        "f": str(f),
        "g": str(g),
        "related": related,
        "oracle": None,
        "witnesses": None,
    }
    if ctx.n <= ORACLE_CROSS_CHECK_LIMIT:
        doc["oracle"] = GreenOracle(enumerate_family(ctx)).related(rel, f, g)
    if args.witness:
        w: dict = {}
        if rel in ("L", "H"):
            a = l_below_witness(ctx, f, g)
            b = l_below_witness(ctx, g, f)
            w["l_f_below_g"] = str(a) if a else None
            w["l_g_below_f"] = str(b) if b else None
        if rel in ("R", "H"):
            a = r_below_witness(ctx, f, g)
            b = r_below_witness(ctx, g, f)
            w["r_f_below_g"] = str(a) if a else None
            w["r_g_below_f"] = str(b) if b else None
        if rel == "J":
            a = j_below_witness(ctx, f, g)
            b = j_below_witness(ctx, g, f)
            w["j_f_below_g"] = [str(a[0]), str(a[1])] if a else None
            w["j_g_below_f"] = [str(b[0]), str(b[1])] if b else None
        if rel == "D":
            middle = d_middle_witness(ctx, f, g)
            w["d_middle"] = str(middle) if middle else None
        doc["witnesses"] = w
    if args.format == "json":
        print(indented_json(doc))
    else:
        print(f"related={str(related).lower()}")
        if doc["oracle"] is not None:
            print(f"oracle={str(doc['oracle']).lower()}")
            print(f"agree={str(doc['oracle'] == related).lower()}")
        if doc["witnesses"] is not None:
            for key, val in doc["witnesses"].items():
                print(f"{key}={val}")
    return 0


def cmd_eggbox(args) -> int:
    box = eggbox(enumerate_family(_ctx_of(args)))
    if args.format == "dot":
        sys.stdout.write(eggbox_dot(box))
    elif args.format == "json":
        print(indented_json(eggbox_json(box)))
    else:
        sys.stdout.write(eggbox_text(box))
    return 0


def _ideal_docs(cuts: list[list[str]]) -> list[dict]:
    """One document per ideal, given as its members' bracket forms, the t-th of largest deficit t; none warns.

    ``cmd_ideals`` formats the family's image tuples once and cuts each ideal from that list by
    the masks of ``_deficit_cuts``, as ``ideals_all`` does; ``cmd_kernel`` formats the kernel's.
    """
    return [{"size": len(members), "t": t, "members": members, "warning": None} for t, members in enumerate(cuts)]


def cmd_ideals(args) -> int:
    ctx = _ctx_of(args)
    images = _family_images(ctx, "omegabar")
    texts = format_all(images)
    found = [list(compress(texts, cut)) for cut in _deficit_cuts(ctx, images)]
    doc = {
        "n": ctx.n,
        "y": list(ctx.y_set),
        "count": len(found),
        "ideals": _ideal_docs(found),
    }
    if args.format == "text":
        lines = [f"count={len(found)}"]
        for i, d in enumerate(doc["ideals"]):
            lines.append(f"ideal {i}: size={d['size']} t={d['t']}")
            lines.extend(f"  {m}" for m in d["members"])
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        print(indented_json(doc))
    return 0


def cmd_kernel(args) -> int:
    ctx = _ctx_of(args)
    doc = {"n": ctx.n, "y": list(ctx.y_set), **_ideal_docs([format_all(_kernel_images(ctx))])[0]}
    if args.format == "text":
        lines = [f"size={doc['size']} t={doc['t']}", *(f"  {m}" for m in doc["members"])]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        print(indented_json(doc))
    return 0


def _cover_doc(p, q) -> dict | None:
    """q packed into p by j_condition, checked independently by cover_is_valid."""
    cover = j_condition(p, q)
    if cover is None:
        return None
    if not cover_is_valid(p, q, cover):
        raise RuntimeError(f"j_condition returned an invalid cover of {q} into {p}: {cover}")
    return {
        "blocks": [sorted(b) for b in cover.blocks],
        "to_rest": sorted(cover.to_rest),
        "rest_to_rest": cover.rest_to_rest,
        "rest_to_block": cover.rest_to_block,
    }


def cmd_profile(args) -> int:
    p = parse_profile(args.p)
    q = parse_profile(args.q)
    want_d = args.d or not (args.d or args.j)
    want_j = args.j or not (args.d or args.j)
    doc: dict = {"p": str(p), "q": str(q)}
    if want_d:
        m = d_condition(p, q)
        doc["d"] = None if m is None else {str(k): v for k, v in m.items()}
    if want_j:
        doc["pack_q_into_p"] = _cover_doc(p, q)
        doc["pack_p_into_q"] = _cover_doc(q, p)
    if args.format == "json":
        print(indented_json(doc))
    else:
        if want_d:
            print(f"d={str(doc['d'] is not None).lower()}")
        if want_j:
            fwd_ok = doc["pack_q_into_p"] is not None
            bwd_ok = doc["pack_p_into_q"] is not None
            print(f"j_into_p={str(fwd_ok).lower()}")
            print(f"j_into_q={str(bwd_ok).lower()}")
            print(f"j={str(fwd_ok and bwd_ok).lower()}")
    return 0


def cmd_verify(args) -> int:
    cfg = VerifyConfig(
        max_n=args.max_n,
        sample_n5=args.sample_n5,
        seed=args.seed,
        jobs=args.jobs,
        report_path=args.out,
    )
    report = run_verify(cfg)
    if args.format == "text":
        sys.stdout.write(render_report_text(report))
    else:
        sys.stdout.write(render_report_json(report))
    return exit_code_for(report)


# One option: its flag, its kind (int, str, a tuple of choices, or SWITCH for a flag
# that stores True), its default, whether it is required, and its help.  Its dest is
# the flag's name with "-" read as "_", as argparse derives it.
Opt = collections.namedtuple("Opt", "flag kind default required help", defaults=(None, False, None))
SWITCH = "switch"
_CTX = (
    Opt("--n", int, required=True, help="ambient set size"),
    Opt("--y", str, required=True, help="distinguished subset, e.g. '0,1'"),
)


def _format(*choices: str) -> Opt:
    return Opt("--format", choices, choices[0])  # the first choice is the default


# The grammar, declared once: command -> (function, help, positionals as (name, help), options).
# ``_read`` reads a well-formed line off it; ``build_parser`` builds argparse from it for the rest.
COMMANDS = {
    "enum": (cmd_enum, "list a family of maps", (), (
        *_CTX, Opt("--family", ("tbar", "omegabar", "sbar", "fix"), "omegabar"), _format("text", "json"))),
    "classify": (cmd_classify, "membership, profile and regularity of one map", (), (
        *_CTX, Opt("--f", str, required=True, help="map in bracket form, e.g. '[1 0 0]'"),
        _format("json", "text"))),
    "green": (cmd_green, "test one Green relation between two members", (), (
        *_CTX, Opt("--rel", RELATIONS, required=True), Opt("--f", str, required=True),
        Opt("--g", str, required=True), Opt("--witness", SWITCH, False, help="emit divisibility witnesses"),
        _format("text", "json"))),
    "eggbox": (cmd_eggbox, "D-classes laid out as R-by-L grids", (), (*_CTX, _format("text", "dot", "json"))),
    "ideals": (cmd_ideals, "all two-sided ideals", (), (*_CTX, _format("json", "text"))),
    "kernel": (cmd_kernel, "the least ideal", (), (*_CTX, _format("json", "text"))),
    "profile": (cmd_profile, "compare two symbolic fiber profiles", (
        ("p", "profile literal, e.g. '[w 1 1]' or '[w]+rest1'"), ("q", None)), (
        Opt("--d", SWITCH, False, help="only the bijection test"),
        Opt("--j", SWITCH, False, help="only the packing tests"), _format("text", "json"))),
    "verify": (cmd_verify, "run the self-verification suite", (), (
        Opt("--max-n", int, 4), Opt("--sample-n5", SWITCH, False), Opt("--seed", int, 0), Opt("--jobs", int, 1),
        Opt("--out", str, help="also write the JSON report here"), _format("json", "text"))),
}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives, read off ``COMMANDS``.

    Only exact flags with separate values, and ints in decimal digits, are read.  Help,
    every usage error and any other line give None, and the caller leaves them to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, positionals, options = COMMANDS[argv[0]]
    by_flag = {opt.flag: opt for opt in options}
    given, values = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        opt = by_flag.get(token)
        if opt is None:
            if token.startswith("-"):
                return None
            values.append(token)
            continue
        if opt.kind is SWITCH:
            given[opt] = True
            continue
        value = next(tokens, "-")  # a flag with no token left reads "-", and no value may start with "-"
        if opt.kind is int and value.isdecimal():
            value = int(value)
        elif value.startswith("-") or opt.kind is int or (opt.kind is not str and value not in opt.kind):
            return None
        given[opt] = value
    if len(values) != len(positionals) or any(opt.required and opt not in given for opt in options):
        return None
    dests = {opt.flag[2:].replace("-", "_"): given.get(opt, opt.default) for opt in options}
    dests.update(zip((name for name, _ in positionals), values))
    return SimpleNamespace(command=argv[0], func=func, **dests)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for help and usage errors, built from ``COMMANDS`` on the first call and
    shared by every later one: each ``parse_args`` returns a fresh namespace, so calls share no state.
    """
    import argparse  # a well-formed line is read without it

    parser = argparse.ArgumentParser(
        prog="invsemi",
        description="transformations of a finite set that stabilize a distinguished subset",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_, positionals, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for pos, pos_help in positionals:
            sp.add_argument(pos, help=pos_help)
        for opt in options:
            kind = ({"action": "store_true"} if opt.kind is SWITCH
                    else {"type": opt.kind} if opt.kind in (int, str) else {"choices": opt.kind})
            sp.add_argument(opt.flag, default=opt.default, required=opt.required, help=opt.help, **kind)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (DomainError, DimensionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
