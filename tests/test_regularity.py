"""Regular and unit-regular elements, pre-inverse sets, containment facts."""

import itertools

import pytest

from invsemi import (
    Context,
    DomainError,
    classify,
    compose,
    identity,
    parse_transformation,
)
from invsemi.core import fibers, product
from invsemi.regularity import (
    is_regular,
    is_regular_oracle,
    is_unit_regular,
    pre_inverses,
)
from invsemi.semigroup import FAMILIES, enumerate_family, units

T = parse_transformation
C31 = Context(3, (0, 1))


def test_pre_inverses_frozen():
    got = [str(g) for g in pre_inverses(C31, T("[0 1 0]"))]
    assert got == ["[0 1 0]", "[0 1 1]", "[0 1 2]"]
    # exactly the members acting as the identity on Y
    want = [str(f) for f in enumerate_family(C31) if classify(C31, f).in_fix]
    assert got == want


def test_pre_inverse_defining_equation():
    f = T("[0 1 0]")
    for g in pre_inverses(C31, f):
        assert compose(f, compose(g, f)).images == f.images


def test_idempotent_has_identity_pre_inverse():
    assert identity(3).images in {g.images for g in pre_inverses(C31, T("[0 1 0]"))}


def test_unit_pre_inverse_contains_inverse():
    u = T("[1 0 2]")
    inv = next(v for v in units(C31) if compose(u, v).images == identity(3).images)
    assert inv.images in {g.images for g in pre_inverses(C31, u)}


def test_pre_inverses_rejects_nonmember():
    with pytest.raises(DomainError):
        pre_inverses(C31, T("[0 0 2]"))
    with pytest.raises(DomainError):
        is_regular_oracle(C31, T("[0 0 2]"))


def _scan_reference(ctx, f, family):
    """The brute force the search replaced: multiply out every member g, keep f g f = f."""
    fi = f.images
    return tuple(g for g in enumerate_family(ctx, family) if product(fi, product(g.images, fi)) == fi)


def test_pointwise_search_equals_the_scan():
    for n in range(1, 5):
        for r in range(1, n + 1):
            for ys in itertools.combinations(range(n), r):
                ctx = Context(n, ys)
                for family in FAMILIES:
                    for f in enumerate_family(ctx, family):
                        assert pre_inverses(ctx, f, family) == _scan_reference(ctx, f, family), (ctx, family, f)


def test_is_regular_frozen():
    assert is_regular(C31, T("[0 1 0]"))
    with pytest.raises(DomainError):
        is_regular(C31, T("[0 0 2]"))


def test_everything_regular_at_finite_n():
    for n in (1, 2, 3, 4):
        for r in range(1, n + 1):
            ctx = Context(n, tuple(range(r)))
            enum = enumerate_family(ctx)
            for f in enum:
                assert is_regular(ctx, f)
                assert is_regular_oracle(ctx, f)
                assert pre_inverses(ctx, f)


def test_regular_set_is_the_injective_on_y_set():
    # oracle-regular members coincide with the classify-level flag
    for ys in ((0,), (0, 1), (0, 1, 2)):
        ctx = Context(3, ys)
        enum = enumerate_family(ctx)
        got = {f.images for f in enum if is_regular_oracle(ctx, f)}
        want = {f.images for f in enum if classify(ctx, f).in_sbar}
        assert got == want


def test_is_unit_regular_frozen():
    rep = is_unit_regular(C31, T("[0 1 0]"))
    assert rep.is_regular and rep.is_unit_regular
    assert str(rep.witness_unit) == "[0 1 2]"
    assert sorted(rep.certifying_transversal) == [0, 1]
    assert str(rep.witness_pre_inverse) == "[0 1 0]"


def test_unit_regular_report_consistency():
    for f in enumerate_family(C31):
        rep = is_unit_regular(C31, f)
        assert rep.is_unit_regular and rep.is_regular
        u = rep.witness_unit
        assert classify(C31, u).is_unit_of_omegabar
        assert compose(f, compose(u, f)).images == f.images
        t = rep.certifying_transversal
        assert C31.y_frozen <= t
        assert all(len(t.intersection(b)) == 1 for b in fibers(f).values())
        # the certifying equation: as many points outside T as outside Xf
        assert C31.n - len(t) == C31.n - len(f.image())


def test_unit_is_unit_regular_via_inverse():
    u = T("[1 0 2]")
    rep = is_unit_regular(C31, u)
    assert rep.is_unit_regular
    assert compose(u, compose(rep.witness_unit, u)).images == u.images


def test_pre_inverse_containment():
    # pre-inverses of injective-on-Y members, searched in the bigger family
    # of Y-preserving maps, never leave the injective-on-Y family; same for
    # the pointwise-fixing family
    for n in (2, 3):
        for r in range(1, n + 1):
            ctx = Context(n, tuple(range(r)))
            for f in enumerate_family(ctx, "sbar"):
                for g in pre_inverses(ctx, f, "tbar"):
                    assert classify(ctx, g).in_sbar
            for f in enumerate_family(ctx, "fix"):
                for g in pre_inverses(ctx, f, "tbar"):
                    assert classify(ctx, g).in_fix


def test_fix_family_regular_within_itself():
    # every pointwise-fixing map has a pre-inverse among pointwise-fixing maps
    for n in (2, 3, 4):
        ctx = Context(n, (0,))
        fix = enumerate_family(ctx, "fix")
        for f in fix:
            assert any(
                compose(f, compose(g, f)).images == f.images for g in fix
            )
