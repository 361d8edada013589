"""Two-sided ideals: down-set closure, enumeration, threshold sets, kernel."""

import itertools
import random

import pytest

from invsemi import (
    Context,
    DomainError,
    OMEGA,
    compose,
    identity,
    n_value,
    parse_profile,
    parse_transformation,
    verify,
)
from invsemi.ideals import IdealSet, ideals_all, is_ideal, j_classes, j_of_f, j_st, kernel
from invsemi.extnat import j_condition
from invsemi.semigroup import GreenOracle, eggbox, enumerate_family

T = parse_transformation
C31 = Context(3, (0, 1))
E31 = enumerate_family(C31)
BOTTOM4 = ["[0 1 0]", "[0 1 1]", "[1 0 0]", "[1 0 1]"]


def test_j_of_f_frozen():
    got = [str(f) for f in j_of_f(E31, [T("[0 1 0]")])]
    assert got == BOTTOM4
    # generated by the identity, or by everything: the whole family
    assert len(j_of_f(E31, [identity(3)])) == 6
    assert len(j_of_f(E31, E31.elements)) == 6


def test_j_of_f_contains_generators():
    elems = E31.elements
    for f in elems:
        assert f.images in j_of_f(E31, [f]).as_set()


def test_j_of_f_rejects_bad_input():
    with pytest.raises(ValueError):
        j_of_f(E31, [])
    with pytest.raises(DomainError):
        j_of_f(E31, [T("[0 0 2]")])


@pytest.mark.parametrize(
    "build",
    [
        eggbox,
        ideals_all,
        j_classes,
        lambda members: j_of_f(members, [identity(3)]),
        lambda members: j_st(members, 0, 0),  # a threshold that cuts nothing
        lambda members: is_ideal(members, [identity(3)]),
    ],
    ids=["eggbox", "ideals_all", "j_classes", "j_of_f", "j_st", "is_ideal"],
)
def test_builders_reject_another_family(build):
    # the egg-box and the ideals describe omegabar; a tbar enumeration is refused, not read
    with pytest.raises(ValueError, match="need the omegabar family, got 'tbar'"):
        build(enumerate_family(C31, "tbar"))


def test_is_ideal_frozen():
    assert is_ideal(E31, [T(s) for s in BOTTOM4])
    assert not is_ideal(E31, [identity(3)])
    assert is_ideal(E31, E31.elements)


def _is_ideal_cubic(ctx, subset):
    # the two-sided definition itself: h f h2 inside for all members h, h2
    inside = {f.images for f in subset}
    elems = enumerate_family(ctx).elements
    return all(
        compose(compose(h, f), h2).images in inside
        for f in subset
        for h in elems
        for h2 in elems
    )


def test_is_ideal_agrees_with_cubic_definition_n_le_3():
    for n in (1, 2, 3):
        for r in range(1, n + 1):
            for ys in itertools.combinations(range(n), r):
                ctx = Context(n, ys)
                members = enumerate_family(ctx)
                for k in range(1, len(members) + 1):
                    for subset in itertools.combinations(members.elements, k):
                        want = _is_ideal_cubic(ctx, subset)
                        assert is_ideal(members, subset) == want, (ctx, subset)


@pytest.mark.parametrize(
    "ys, literals, left_closed",
    [
        # closed under h f only: images stay inside {0, 1}
        ((0,), ["[0 0 0]", "[0 0 1]", "[0 1 0]", "[0 1 1]"], True),
        # closed under f h only: kernel {0}{1 2} with image Y
        ((0, 1), ["[0 1 1]", "[1 0 0]"], False),
    ],
)
def test_is_ideal_rejects_one_sided_ideal(ys, literals, left_closed):
    ctx = Context(3, ys)
    subset = [T(s) for s in literals]
    inside = {f.images for f in subset}
    members = enumerate_family(ctx)
    hf = all(compose(h, f).images in inside for f in subset for h in members)
    fh = all(compose(f, h).images in inside for f in subset for h in members)
    assert (hf, fh) == (left_closed, not left_closed)
    assert not is_ideal(members, subset)


def test_down_set_is_ideal_every_subset_n3():
    elems = E31.elements
    m = len(elems)
    for mask in range(1, 1 << m):
        subset = [elems[i] for i in range(m) if mask >> i & 1]
        down = j_of_f(E31, subset)
        assert is_ideal(E31, down.members)
        if is_ideal(E31, subset):
            assert down.as_set() == {f.images for f in subset}


def test_j_of_f_equals_triple_product_closure():
    # independent oracle: the union of principal ideals, by raw products
    elems = E31.elements
    for f in elems:
        down = j_of_f(E31, [f])
        raw = {
            compose(h, compose(f, h2)).images
            for h in elems
            for h2 in elems
        }
        assert down.as_set() == frozenset(raw)


def test_ideals_all_frozen_counts():
    assert [len(i) for i in ideals_all(E31)] == [4, 6]
    assert [len(i) for i in ideals_all(enumerate_family(Context(4, (0, 1))))] == [8, 28, 32]
    assert [len(i) for i in ideals_all(enumerate_family(Context(2, (0, 1))))] == [2]


def test_ideals_are_the_oracle_down_sets_n_le_5():
    # the deficit chain against the down-sets of the oracle's J-order, read off
    # the Cayley graphs without image deficits
    for n in range(1, 6):
        for r in range(1, n + 1):
            for ys in itertools.combinations(range(n), r):
                members = enumerate_family(Context(n, ys))
                found = [ideal.as_set() for ideal in ideals_all(members)]
                down_sets = GreenOracle(members).j_down_sets()
                assert len(found) == len(down_sets) == n - r + 1, ctx
                assert set(found) == set(down_sets), ctx
                assert all(a < b for a, b in zip(found, found[1:])), ctx  # smallest first


def _out_of_y_chain(members):
    # nested, n - |Y| + 1 of them, but not ideals: "at most t points of X\Y map outside Y"
    ctx = members.ctx

    def outside(f):
        return sum(f.images[x] not in ctx.y_frozen for x in range(ctx.n) if x not in ctx.y_frozen)

    elems = members.elements
    k = len(ctx.y_set)
    return tuple(
        IdealSet(ctx=ctx, members=tuple(f for f in elems if outside(f) <= t)) for t in range(ctx.n - k + 1)
    )


def test_ideal_check_catches_an_out_of_y_chain(monkeypatch):
    ctx = Context(6, (0, 1))
    monkeypatch.setattr(verify, "ideals_all", _out_of_y_chain)
    checked, ex = verify._check_ideal_enumerate(verify._CtxData(ctx), random.Random(0))
    assert ex is not None and ex["detail"] == "ideals differ from the oracle's J down-sets"


def test_every_ideal_is_its_own_down_set():
    for ideal in ideals_all(E31):
        assert j_of_f(E31, ideal.members).as_set() == ideal.as_set()
        assert is_ideal(E31, ideal.members)


def test_j_st_frozen():
    got = [str(f) for f in j_st(E31, 2, 0)]
    assert got == BOTTOM4
    assert len(j_st(E31, 2, 1)) == 6
    empty = j_st(E31, 0, 0)
    assert len(empty) == 0
    assert empty.warning is not None
    # an empty set is not an ideal; the degenerate cut reports that
    assert "not an ideal" in empty.warning


def test_j_st_range_check():
    with pytest.raises(ValueError):
        j_st(E31, 2, 5)
    with pytest.raises(ValueError):
        j_st(E31, 2, -1)
    with pytest.raises(ValueError):
        j_st(enumerate_family(Context(3, (0,))), 1, True)  # a bool is not a threshold


def test_j_st_accepts_omega_threshold():
    assert len(j_st(E31, OMEGA, 1)) == 6


def test_kernel_frozen():
    assert [str(f) for f in kernel(C31)] == BOTTOM4
    # a group is its own kernel
    assert len(kernel(Context(2, (0, 1)))) == 2
    # |Y| = 1 leaves only the constant map
    assert [str(f) for f in kernel(Context(4, (0,)))] == ["[0 0 0 0]"]


def test_kernel_is_least_ideal_and_closed_form():
    for n in (1, 2, 3, 4):
        for r in range(1, n + 1):
            ctx = Context(n, tuple(range(r)))
            bottom = kernel(ctx)
            members = enumerate_family(ctx)
            found = ideals_all(members)
            assert bottom.as_set() == found[0].as_set()
            for ideal in found:
                assert bottom.as_set() <= ideal.as_set()
            want = {
                f.images for f in members if f.image() == ctx.y_frozen
            }
            assert bottom.as_set() == want


def test_kernel_is_bottom_egg_box_class():
    for ys in ((0,), (0, 1)):
        ctx = Context(3, ys)
        box = eggbox(enumerate_family(ctx))
        members = {
            e.images
            for row in box.d_classes[-1].cells
            for cell in row
            for e in cell.elements
        }
        assert members == set(kernel(ctx).as_set())


def test_kernel_is_single_j_class():
    classes = j_classes(E31)
    bottom = kernel(C31).as_set()
    assert any({f.images for f in cls} == set(bottom) for cls in classes)


def test_profile_level_kernel_shadow():
    # a profile with no small fiber packs every profile: each block takes
    # one index and an omega capacity absorbs any finite or omega load
    targets = [
        parse_profile("[1 1]"),
        parse_profile("[2 1]"),
        parse_profile("[w 1 1]"),
        parse_profile("[w w]"),
    ]
    for q in targets:
        p = parse_profile("[" + " ".join(["w"] * len(q.sizes)) + "]")
        assert n_value(p, OMEGA) == 0
        assert j_condition(p, q) is not None
