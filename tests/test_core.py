"""Transformations, composition, membership flags, kernels."""

import copy
import dataclasses
import itertools
import json
import pickle
import random

import pytest

from invsemi import (
    Context,
    DimensionError,
    DomainError,
    Transformation,
    carries_y,
    classify,
    compose,
    identity,
    image_deficit,
    j_of_f,
    l_related,
    parse_transformation,
    parse_y,
    profile_of,
    restrict_to_y,
    transformation_from_json,
    transformation_to_json,
)
from invsemi import core
from invsemi.core import fibers, indented_json, product
from invsemi.semigroup import FAMILIES, enumerate_family

T = parse_transformation
C31 = Context(3, (0, 1))


def test_transformation_validation():
    Transformation((0, 1, 2))
    with pytest.raises(DomainError):
        Transformation((0, 3))
    with pytest.raises(DomainError):
        Transformation((0, -1))
    with pytest.raises(DomainError):
        Transformation(())
    with pytest.raises(DomainError):
        Transformation((True, False))  # bools are not points


def test_context_validation():
    assert Context(3, (1, 0)).y_set == (0, 1)  # normalized sorted
    with pytest.raises(DomainError):
        Context(3, ())
    with pytest.raises(DomainError):
        Context(3, (3,))
    with pytest.raises(DomainError):
        Context(0, (0,))
    with pytest.raises(DomainError):
        Context(2, (True,))
    with pytest.raises(DomainError):
        Context(True, (0,))


def test_context_validates_every_given_element():
    # each element is checked before duplicates are merged, so a bool equal to
    # a point, or a non-integer, is refused wherever it stands
    for ys in ((1, True), (True, 1), (2, "a")):
        with pytest.raises(DomainError):
            Context(3, ys)
    assert Context(3, (2, 1, 2)).y_set == (1, 2)
    assert Context(3, iter((2, 0))).y_set == (0, 2)  # any iterable is read once


def test_format_all_matches_format_transformation():
    for n in range(1, 7):
        for ys in {(0,), (n - 1,), tuple(range(0, n, 2))}:
            for family in FAMILIES:
                fs = enumerate_family(Context(n, ys), family).elements
                assert core.format_all([f.images for f in fs]) == list(map(core.format_transformation, fs)), (n, ys, family)
    rng = random.Random(22)
    for n in range(7, 13):  # past n = 10 the images take two digits and the fallback runs
        fs = [Transformation(tuple(rng.randrange(n) for _ in range(n))) for _ in range(50)]
        want = list(map(core.format_transformation, fs))
        assert core.format_all([f.images for f in fs]) == want
        assert core.format_all(tuple(f.images for f in fs)) == want
    assert core.format_all([]) == [] and core.format_all(()) == []


def test_context_derived_sets_survive_copies():
    ctx = Context(3, (0, 1))
    assert repr(ctx) == "Context(n=3, y_set=(0, 1))"
    for twin in (pickle.loads(pickle.dumps(ctx)), copy.deepcopy(ctx)):
        assert twin == ctx and hash(twin) == hash(ctx)
        assert twin.y_frozen == frozenset({0, 1})
    moved = dataclasses.replace(ctx, y_set=(2,))
    assert moved.y_frozen == frozenset({2})


def test_compose_left_to_right():
    # x(fg) = (xf)g
    assert compose(T("[1 0 2]"), T("[0 1 0]")).images == (1, 0, 0)
    f = T("[0 1 0]")
    assert compose(identity(3), f).images == f.images
    assert compose(f, identity(3)).images == f.images
    assert compose(f, f).images == f.images  # idempotent


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionError):
        compose(T("[0 1]"), T("[0 1 2]"))


def test_product_equals_compose_n_le_3():
    for n in (1, 2, 3):
        maps = [Transformation(imgs) for imgs in itertools.product(range(n), repeat=n)]
        for f, g in itertools.product(maps, repeat=2):
            assert product(f.images, g.images) == compose(f, g).images


def test_product_flips_under_mutation():
    a, b = (1, 0, 2), (0, 1, 0)
    assert product(a, b) == (1, 0, 0)
    core._set_mutation("flip-compose")
    try:
        assert product(a, b) == (1, 0, 1)  # x (a b) = a[b[x]]
        assert compose(T("[1 0 2]"), T("[0 1 0]")).images == (1, 0, 1)
    finally:
        core._set_mutation(None)
    assert product(a, b) == (1, 0, 0)


def test_product_is_the_definition_n_le_3():
    # x (a b) = b[a[x]]; flipped, a[b[x]]; n = 1 included, where an itemgetter returns a scalar
    for n in (1, 2, 3):
        maps = list(itertools.product(range(n), repeat=n))
        pairs = list(itertools.product(maps, repeat=2))
        for a, b in pairs:
            assert product(a, b) == tuple(b[a[x]] for x in range(n))
        core._set_mutation("flip-compose")
        try:
            for a, b in pairs:
                assert product(a, b) == tuple(a[b[x]] for x in range(n))
        finally:
            core._set_mutation(None)


def test_classify_flags():
    fl = classify(C31, T("[0 1 0]"))
    assert (fl.in_tbar, fl.in_omegabar, fl.in_sbar, fl.in_fix) == (True, True, True, True)
    assert not fl.is_unit_of_omegabar

    fl = classify(C31, T("[1 0 2]"))
    assert not fl.in_fix
    assert fl.in_sbar
    assert fl.is_unit_of_omegabar

    fl = classify(C31, T("[0 0 2]"))
    assert fl.in_tbar
    assert not fl.in_omegabar


def test_classify_chain_exhaustive():
    # fix => sbar => omegabar => tbar on every map, n <= 3, every Y
    for n in (1, 2, 3):
        for r in range(1, n + 1):
            for ys in itertools.combinations(range(n), r):
                ctx = Context(n, ys)
                for imgs in itertools.product(range(n), repeat=n):
                    fl = classify(ctx, Transformation(imgs))
                    assert not fl.in_fix or fl.in_sbar
                    assert not fl.in_sbar or fl.in_omegabar
                    assert not fl.in_omegabar or fl.in_tbar


def test_carries_y_is_classify_omegabar_exhaustive():
    for n in (1, 2, 3):
        for r in range(1, n + 1):
            for ys in itertools.combinations(range(n), r):
                ctx = Context(n, ys)
                for imgs in itertools.product(range(n), repeat=n):
                    f = Transformation(imgs)
                    assert carries_y(ctx, f) == classify(ctx, f).in_omegabar
    with pytest.raises(DimensionError, match="map on 2 points in a context with n=3"):
        carries_y(C31, T("[0 1]"))


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda f: l_related(C31, f, f), "[0 0 2] does not carry Y onto Y in context n=3 Y={0,1}"),
        (lambda f: j_of_f(enumerate_family(C31), [f]), "[0 0 2] does not carry Y onto Y in context n=3 Y={0,1}"),
        (lambda f: profile_of(C31, f), "[0 0 2] does not carry Y onto Y; profile undefined"),
    ],
    ids=["l_related", "j_of_f", "profile_of"],
)
def test_member_guard_messages(call, text):
    with pytest.raises(DomainError) as exc:
        call(T("[0 0 2]"))
    assert str(exc.value) == text


def test_restrict_to_y():
    assert restrict_to_y(C31, T("[1 0 0]")).images == (1, 0)
    assert restrict_to_y(C31, T("[0 1 2]")).images == (0, 1)
    # re-indexing by sorted position of Y
    assert restrict_to_y(Context(4, (1, 3)), T("[0 3 2 1]")).images == (1, 0)
    with pytest.raises(DomainError):
        restrict_to_y(C31, T("[2 1 0]"))  # 0 leaves Y


def test_fibers():
    assert list(fibers(T("[0 1 0]")).values()) == [[0, 2], [1]]
    assert list(fibers(identity(3)).values()) == [[0], [1], [2]]
    # blocks come in order of least element, each keyed by its image point
    assert list(fibers(T("[1 0 1]")).items()) == [(1, [0, 2]), (0, [1])]
    assert list(fibers(T("[2 0 2 1]")).items()) == [(2, [0, 2]), (0, [1]), (1, [3])]


def test_injective_iff_surjective_finite():
    for n in (1, 2, 3):
        for imgs in itertools.product(range(n), repeat=n):
            f = Transformation(imgs)
            injective = len(set(imgs)) == n
            surjective = f.image() == frozenset(range(n))
            assert injective == surjective


def test_kernel_refinement_on_fibers():
    # g's fibers refine f's (each inside one of f's) exactly when f is constant
    # on every g-fiber; on kernels, mutual refinement is plain equality
    maps = [Transformation(imgs) for imgs in itertools.product(range(3), repeat=3)]
    kernels = {f: frozenset(map(frozenset, fibers(f).values())) for f in maps}
    for f in maps:
        assert sorted(x for block in kernels[f] for x in block) == [0, 1, 2]
    for f, g in itertools.product(maps, repeat=2):
        refined = all(any(a <= b for b in kernels[f]) for a in kernels[g])
        assert refined == all(len({f.images[x] for x in block}) == 1 for block in fibers(g).values())
        mutual = refined and all(any(a <= b for b in kernels[g]) for a in kernels[f])
        assert mutual == (kernels[f] == kernels[g])


def test_parse_format_roundtrip():
    for text in ("[0]", "[1 0 0]", "[0 1 2 3]"):
        assert str(T(text)) == text
    with pytest.raises(ValueError):
        T("1 0 0")
    with pytest.raises(ValueError):
        T("[a b]")
    with pytest.raises(DomainError):
        T("[0 9]")


def test_json_mirror():
    f = T("[1 0 0]")
    obj = transformation_to_json(f)
    assert obj == {"n": 3, "images": [1, 0, 0]}
    assert transformation_from_json(obj).images == f.images
    assert transformation_from_json('{"n": 3, "images": [1, 0, 0]}').images == f.images
    with pytest.raises(DomainError):
        transformation_from_json('{"images": [true, false]}')
    with pytest.raises(DomainError):
        transformation_from_json('{"n": true, "images": [0]}')
    with pytest.raises(DimensionError):
        transformation_from_json('{"n": 2, "images": [0]}')


def test_parse_y():
    assert parse_y("0,1") == (0, 1)
    assert parse_y("2") == (2,)
    with pytest.raises(ValueError):
        parse_y("0,x")


def test_image_deficit():
    assert image_deficit(C31, T("[0 1 0]")) == 0
    assert image_deficit(C31, T("[0 1 2]")) == 1


def test_carries_y_and_image_deficit_are_the_set_definitions_n_le_4():
    for n in range(1, 5):
        maps = [Transformation(imgs) for imgs in itertools.product(range(n), repeat=n)]
        for r in range(1, n + 1):
            for ys in itertools.combinations(range(n), r):
                ctx = Context(n, ys)
                for f in maps:
                    assert carries_y(ctx, f) == ({f.images[y] for y in ys} == set(ys))
                    assert image_deficit(ctx, f) == len({v for v in f.images if v not in ys})
    for call in (carries_y, image_deficit, classify):
        with pytest.raises(DimensionError, match="map on 2 points in a context with n=3"):
            call(C31, T("[0 1]"))
        with pytest.raises(DimensionError, match="map on 4 points in a context with n=3"):
            call(C31, T("[0 1 2 3]"))


JSON_CORPUS = [
    [],
    {},
    [[]],
    [{}],
    {"a": [], "b": {}, "c": [[], {}]},
    (),
    (1, (2, ()), ["x"]),
    [[[["deep"]]]],
    "",
    'quote " and backslash \\ and slash /',
    "control \x00 \x01 \x1f \t \n \r \x7f",
    "non-ASCII: é ω ∞ 𝔖 \u2028",
    [True, 1, False, 0, None],
    {"t": True, "one": 1, "f": False, "zero": 0, "none": None},
    # a dict's str, bool and None values are written in place; the rest recurse
    {"s": "x", "t": True, "f": False, "none": None, "i": 1, "zero": 0, "l": [], "d": {}},
    {"outer": {"s": "é", "t": True, "none": None, "inner": {"f": False, "empty": "", "l": [], "d": {}, "i": -3}}},
    [{"elements": ["[0 1]", "[1 0]"], "idempotent": True}, {"elements": [], "idempotent": False, "warning": None}],
    [-1, -(2**70), 2**64, 2**64 + 1, 10**30],
    ["[0 1 2]", "[1 0 2]", 3, ["[2 2 2]"]],
    {"é": "ω", "": "", 'k"ey': {"nested": [1, "two", [3, [4]]]}},
    0,
    -7,
    True,
    None,
]


@pytest.mark.parametrize("doc", JSON_CORPUS, ids=range(len(JSON_CORPUS)))
def test_indented_json_is_the_stdlib_encoder(doc):
    assert indented_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [1.5, [0.0], {"x": float("inf")}, {1, 2}, [frozenset()], {1: "int key"}])
def test_indented_json_rejects_other_types(doc):
    with pytest.raises(TypeError):
        indented_json(doc)


def test_associativity_exhaustive_small():
    ctx = Context(3, (0,))
    from invsemi import enumerate_family

    elems = enumerate_family(ctx, "omegabar").elements
    for f, g, h in itertools.product(elems, repeat=3):
        assert compose(compose(f, g), h).images == compose(f, compose(g, h)).images


def test_associativity_random_n6():
    # composition is associative on 10^4 random triples of self-maps of 6 points
    rng = random.Random(20260815)
    for _ in range(10_000):
        f, g, h = (
            Transformation(tuple(rng.randrange(6) for _ in range(6))) for _ in range(3)
        )
        assert compose(compose(f, g), h).images == compose(f, compose(g, h)).images
