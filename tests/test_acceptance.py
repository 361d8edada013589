"""Acceptance gate: eleven exact checks, one pass/fail line each.

Every check is tolerance-zero: set equalities, count equalities, boolean
agreement on every inspected pair.  Time limits are asserted where the
check is a sweep.  Run with -v to see one line per criterion.
"""

import hashlib
import itertools
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

from invsemi import (
    Context,
    Transformation,
    classify,
    compose,
    image_deficit,
    parse_profile,
)
from invsemi.extnat import d_condition, j_condition
from invsemi.ideals import ideals_all, is_ideal, j_of_f, kernel
from invsemi.regularity import is_regular_oracle, is_unit_regular
from invsemi.semigroup import (
    GreenOracle,
    d_related,
    eggbox,
    enumerate_family,
    green_related,
    j_below_witness,
    j_related,
    l_below_witness,
    r_below_witness,
    units,
)
from invsemi.verify import VerifyConfig, render_report_json, run_verify

RECORDED_SEED7 = Path(__file__).parent / "data" / "verify_seed7.json"
RECORDED_SAMPLE_N5 = Path(__file__).parent / "data" / "verify_sample_n5_sha256.json"


def all_contexts(max_n):
    for n in range(1, max_n + 1):
        for r in range(1, n + 1):
            for ys in itertools.combinations(range(n), r):
                yield Context(n, ys)


def report(name, elapsed=None):
    tail = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"PASS {name}{tail}")


def test_criterion_01_counting():
    t0 = time.monotonic()
    for ctx in all_contexts(4):
        n, k = ctx.n, len(ctx.y_set)
        got = len(enumerate_family(ctx, "omegabar"))
        assert got == math.factorial(k) * n ** (n - k), ctx
        # independent brute-force filter over all n^n maps
        raw = sum(
            1
            for imgs in itertools.product(range(n), repeat=n)
            if classify(ctx, Transformation(imgs)).in_omegabar
        )
        assert raw == got, ctx
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report("criterion 1: counting formula, n<=4, all Y", elapsed)


def test_criterion_02_regular_set_equals_injective_on_y():
    t0 = time.monotonic()
    for ctx in all_contexts(4):
        enum = enumerate_family(ctx)
        oracle_regular = {f.images for f in enum if is_regular_oracle(ctx, f)}
        sbar = {f.images for f in enum if classify(ctx, f).in_sbar}
        assert oracle_regular == sbar, ctx
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report("criterion 2: regular elements = injective-on-Y members, n<=4", elapsed)


def test_criterion_03_unit_regularity():
    t0 = time.monotonic()
    for ctx in all_contexts(4):
        us = units(ctx)
        elems = enumerate_family(ctx).elements
        for f in elems:
            rep = is_unit_regular(ctx, f)
            assert rep.is_unit_regular, (ctx, f)
            u = rep.witness_unit
            assert compose(f, compose(u, f)).images == f.images, (ctx, f)
            # the constructed witnesses are the first ones a search finds
            assert u == next(v for v in us if compose(f, compose(v, f)) == f), (ctx, f)
            p = rep.witness_pre_inverse
            assert p == next(g for g in elems if compose(f, compose(g, f)) == f), (ctx, f)
            t = rep.certifying_transversal
            assert ctx.y_frozen <= t
            assert ctx.n - len(t) == ctx.n - len(f.image()), (ctx, f)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report("criterion 3: all members unit-regular with agreeing certificate, n<=4", elapsed)


def test_criterion_04_green_agreement():
    t0 = time.monotonic()
    rels = ("L", "R", "H", "D", "J")
    for ctx in all_contexts(4):
        oracle = GreenOracle(enumerate_family(ctx))
        elems = oracle.elements
        for f, g in itertools.product(elems, repeat=2):
            for rel in rels:
                assert green_related(ctx, rel, f, g) == oracle.related(rel, f, g), (
                    ctx, rel, f, g,
                )
    # n = 5 sampled: 512 seeded pairs per context, both small-Y shapes
    pairs_checked = 0
    for ys in ((0,), (0, 1)):
        ctx = Context(5, ys)
        oracle = GreenOracle(enumerate_family(ctx))
        elems = oracle.elements
        rng = random.Random(f"acceptance-green-{ys}")
        for _ in range(512):
            f = elems[rng.randrange(len(elems))]
            g = elems[rng.randrange(len(elems))]
            for rel in rels:
                assert green_related(ctx, rel, f, g) == oracle.related(rel, f, g)
            pairs_checked += 1
    assert pairs_checked >= 1000
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report("criterion 4: five relations match the oracle, n<=4 all pairs + n=5 sampled", elapsed)


def test_criterion_05_d_equals_j():
    t0 = time.monotonic()
    for ctx in all_contexts(4):
        elems = enumerate_family(ctx).elements
        for f, g in itertools.product(elems, repeat=2):
            assert d_related(ctx, f, g) == j_related(ctx, f, g), (ctx, f, g)
    elapsed = time.monotonic() - t0
    report("criterion 5: D = J exhaustively, n<=4", elapsed)


def _witness_pair_check(ctx, oracle, f, g):
    w = l_below_witness(ctx, f, g)
    assert (w is not None) == oracle.l_below(f, g), (ctx, "L", f, g)
    if w is not None:
        assert compose(w, g).images == f.images
    w = r_below_witness(ctx, f, g)
    assert (w is not None) == oracle.r_below(f, g), (ctx, "R", f, g)
    if w is not None:
        assert compose(g, w).images == f.images
    pair = j_below_witness(ctx, f, g)
    assert (pair is not None) == oracle.j_below(f, g), (ctx, "J", f, g)
    if pair is not None:
        h, h2 = pair
        assert compose(h, compose(g, h2)).images == f.images
        assert classify(ctx, h).in_omegabar and classify(ctx, h2).in_omegabar


def test_criterion_06_witness_soundness():
    t0 = time.monotonic()
    for ctx in all_contexts(3):
        oracle = GreenOracle(enumerate_family(ctx))
        elems = oracle.elements
        for f, g in itertools.product(elems, repeat=2):
            _witness_pair_check(ctx, oracle, f, g)
    for ctx in (c for c in all_contexts(4) if c.n == 4):
        oracle = GreenOracle(enumerate_family(ctx))
        elems = oracle.elements
        rng = random.Random(f"acceptance-witness-{ctx.y_set}")
        for _ in range(300):
            f = elems[rng.randrange(len(elems))]
            g = elems[rng.randrange(len(elems))]
            _witness_pair_check(ctx, oracle, f, g)
    elapsed = time.monotonic() - t0
    report("criterion 6: witnesses recompose, absences oracle-confirmed", elapsed)


def test_criterion_07_ideals():
    t0 = time.monotonic()
    # every nonempty subset's down-set is an ideal, at n = 3, every Y
    for ctx in (c for c in all_contexts(3) if c.n == 3):
        members = enumerate_family(ctx)
        elems, m = members.elements, len(members)
        for mask in range(1, 1 << m):
            subset = [elems[i] for i in range(m) if mask >> i & 1]
            down = j_of_f(members, subset)
            assert is_ideal(members, down.members), (ctx, subset)
    # every ideal is a fixed point of the down-set closure
    for ctx in all_contexts(4):
        members = enumerate_family(ctx)
        found = ideals_all(members)
        assert len(found) == ctx.n - len(ctx.y_set) + 1, ctx
        for ideal in found:
            assert j_of_f(members, ideal.members).as_set() == ideal.as_set(), ctx
    elapsed = time.monotonic() - t0
    report("criterion 7: down-sets are ideals; ideals are fixed points; chain count", elapsed)


def test_criterion_08_kernel():
    t0 = time.monotonic()
    for ctx in all_contexts(4):
        bottom, family = kernel(ctx), enumerate_family(ctx)
        want = {f.images for f in family if f.image() == ctx.y_frozen}
        assert bottom.as_set() == want, ctx
        box = eggbox(family)
        members = {
            e.images
            for row in box.d_classes[-1].cells
            for cell in row
            for e in cell.elements
        }
        assert members == set(bottom.as_set()), ctx
        for ideal in ideals_all(family):
            assert bottom.as_set() <= ideal.as_set(), ctx
    elapsed = time.monotonic() - t0
    report("criterion 8: kernel = image-equals-Y set = bottom D-class, n<=4", elapsed)


def test_criterion_09_profile_separations():
    p, q = parse_profile("[w 1 1]"), parse_profile("[w w 1]")
    assert d_condition(p, q) is None
    assert j_condition(p, q) is not None
    assert j_condition(q, p) is not None
    a, b = parse_profile("[w]+rest1"), parse_profile("[w w]+rest1")
    assert d_condition(a, b) is None
    assert j_condition(a, b) is not None
    assert j_condition(b, a) is not None
    report("criterion 9: profile pairs mutually J-divisible but not D-related")


def test_criterion_10_pre_inverse_containment():
    from invsemi.regularity import pre_inverses

    t0 = time.monotonic()
    for ctx in all_contexts(4):
        for f in enumerate_family(ctx, "sbar"):
            for g in pre_inverses(ctx, f, "tbar"):
                assert classify(ctx, g).in_sbar, (ctx, f, g)
        for f in enumerate_family(ctx, "fix"):
            for g in pre_inverses(ctx, f, "tbar"):
                assert classify(ctx, g).in_fix, (ctx, f, g)
    elapsed = time.monotonic() - t0
    report("criterion 10: pre-inverses stay in the starting family, n<=4", elapsed)


def test_criterion_11_verify_determinism():
    t0 = time.monotonic()
    runs = [
        subprocess.run(
            [sys.executable, "-m", "invsemi", "verify", "--seed", "7"],
            capture_output=True,
            text=True,
        )
        for _ in range(2)
    ]
    for r in runs:
        assert r.returncode == 0, r.stdout[-2000:]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.encode() == runs[1].stdout.encode()
    # and byte-identical to the committed report, so a refactor cannot drift
    assert runs[0].stdout.encode() == RECORDED_SEED7.read_bytes()
    elapsed = time.monotonic() - t0
    report("criterion 11: two seeded runs byte-identical", elapsed)


def test_verify_sample_n5_matches_recorded_digest():
    # the two sampled n = 5 contexts draw from the rng streams, which the n <= 4
    # report above does not reach
    recorded = json.loads(RECORDED_SAMPLE_N5.read_text())
    text = render_report_json(run_verify(VerifyConfig(**recorded["config"])))
    assert hashlib.sha256(text.encode()).hexdigest() == recorded["sha256"]
