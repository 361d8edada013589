"""The verify battery's definitional shortcuts against the computations they replace,
and its fixed corpora against planted defects."""

import itertools
import random

import pytest

from invsemi import Context, core, extnat, verify
from invsemi.errors import BudgetError
from invsemi.core import product
from invsemi.ideals import ideals_all, is_ideal
from invsemi.semigroup import enumerate_family


def _contexts(max_n):
    return [Context(n, ys) for n in range(1, max_n + 1) for r in range(1, n + 1) for ys in itertools.combinations(range(n), r)]


def test_row_based_ideal_test_agrees_with_is_ideal():
    # every nonempty subset up to n = 3; further out, each deficit cut, once
    # with a drawn member removed and once with a drawn outsider added
    cases = []
    for ctx in _contexts(3):
        elems = enumerate_family(ctx).elements
        cases += [(ctx, [f for i, f in enumerate(elems) if mask >> i & 1]) for mask in range(1, 1 << len(elems))]
    rng = random.Random(0)
    for ctx in (Context(4, (0,)), Context(4, (1, 3)), Context(5, (0,))):
        for cut in ideals_all(enumerate_family(ctx)):
            members = list(cut.members)
            outside = [f for f in enumerate_family(ctx).elements if f.images not in cut.as_set()]
            i = rng.randrange(len(members))
            cases += [(ctx, members), (ctx, members[:i] + members[i + 1 :])]
            cases += [(ctx, members + [rng.choice(outside)])] if outside else []
    datas = {}
    for ctx, subset in filter(lambda case: case[1], cases):
        data = datas.setdefault(ctx, verify._CtxData(ctx))
        assert data.ideal_holds(subset) == is_ideal(data.enum(), subset), (str(ctx), [str(f) for f in subset])


def test_narrowed_searches_give_the_scanned_witness_and_draws_are_the_randrange_stream():
    cases = [(ctx, None) for ctx in _contexts(3)] + [(Context(4, (0, 2)), 300), (Context(5, (0,)), 300)]
    for ctx, count in cases:
        elems = enumerate_family(ctx).elements
        if count is None:
            pairs = itertools.product(elems, repeat=2)
        else:
            rng = random.Random(f"witness:{ctx}")
            pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(count)]
        for f, g in pairs:
            left = next((h.images for h in elems if product(h.images, g.images) == f.images), None)
            right = next((h.images for h in elems if product(g.images, h.images) == f.images), None)
            assert verify._least_factor(ctx, "L", f, g) == left, (str(ctx), str(f), str(g))
            assert verify._least_factor(ctx, "R", f, g) == right, (str(ctx), str(f), str(g))
    # the sampled pairs: rng.choice and elems[rng.randrange(m)] consume the same _randbelow(m)
    data = verify._CtxData(Context(4, (0, 2)))
    elems = data.enum().elements
    for seed, arity in itertools.product(range(4), (1, 2, 3)):
        rng, ref = random.Random(seed), random.Random(seed)
        got = list(verify._pair_iter(data, data.enum(), rng, 3, 25, arity))
        assert got == [tuple(elems[ref.randrange(len(elems))] for _ in range(arity)) for _ in range(25)], (seed, arity)
        assert rng.random() == ref.random()  # and leave the generator in the same state


def test_least_factor_solves_the_flipped_product_under_the_mutation():
    # under flip-compose, product(h, g) is g then h: each side solves the other's equation
    core._set_mutation("flip-compose")
    try:
        for ctx in _contexts(3):
            elems = enumerate_family(ctx).elements
            for f, g in itertools.product(elems, repeat=2):
                left = next((h.images for h in elems if product(h.images, g.images) == f.images), None)
                right = next((h.images for h in elems if product(g.images, h.images) == f.images), None)
                assert verify._least_factor(ctx, "L", f, g) == left, (str(ctx), str(f), str(g))
                assert verify._least_factor(ctx, "R", f, g) == right, (str(ctx), str(f), str(g))
    finally:
        core._set_mutation(None)


def _length_blind_d_condition(p, q):
    if not (p.rest_ones or q.rest_ones) and len(p.sizes) != len(q.sizes):
        return None
    return extnat.d_condition(p, q)


def _unbudgeted_j_condition(p, q):
    try:
        return extnat.j_condition(p, q)
    except BudgetError:
        return None


# one defect in a name a fixed corpus calls, and the (checked, detail) its global check reports
@pytest.mark.parametrize("label, name, defect, checked, detail", [
    ("parse.roundtrip", "parse_profile", lambda text: extnat.parse_profile("[1]" if text == "[x]" else text),
     18, "bad profile '[x]' accepted"),
    ("profile.d_fixed", "d_condition", lambda p, q: {i: i for i in range(len(p.sizes))},
     1, "finite permutation matching wrong"),
    ("profile.d_fixed", "d_condition", _length_blind_d_condition,
     5, "length mismatch not rejected"),
    ("profile.j_fixed", "j_condition", _unbudgeted_j_condition, 15, "budget not enforced"),
    ("profile.separation", "n_value", lambda p, ambient: extnat.n_value(p, ambient) + 1,
     4, "two small fibers expected"),
], ids=["parse_profile", "d_condition-matching", "d_condition-length", "j_condition", "n_value"])
def test_fixed_corpora_catch_a_defect(monkeypatch, label, name, defect, checked, detail):
    check = dict(verify.GLOBAL_CHECKS)[label]
    assert check(random.Random(0))[1] is None
    monkeypatch.setattr(verify, name, defect)
    assert check(random.Random(0)) == (checked, {"detail": detail})
