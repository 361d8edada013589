"""Two-sided ideals of the Y-onto-Y family.

The down-set of any nonempty subset under two-sided divisibility is an
ideal, and every ideal arises that way.  Over a finite Y that order is the
image-deficit order, a chain, so the ideals are the deficit chain: the
n - |Y| + 1 cuts of the members of deficit at most t.  The family is a
monoid, so a subset I is an ideal as soon as SI and IS lie inside I: the
products h f h2 then stay inside too, and the definitional test needs no
pair (h, h2).  The threshold sets j_st carve members by two numbers: how
many fibers over Y are smaller than Y itself, and how many image points
fall outside Y.  Over a finite Y the first threshold is degenerate (every
fiber of a bijection on Y is a singleton), which j_st reports through a
warning instead of pretending the cut is interesting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Context, Transformation, _trusted_all, identity, image_deficit, product
from .extnat import as_extnat, n_value, profile_of
from .semigroup import _generate, _images, _require_member, enumerate_family


@dataclass(frozen=True, slots=True)
class IdealSet:
    """A subset of the family, sorted, with an optional warning."""

    ctx: Context
    members: tuple[Transformation, ...]
    warning: str | None = None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def as_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(f.images for f in self.members)


def _checked_subset(ctx: Context, subset) -> tuple[Transformation, ...]:
    fs = tuple(subset)
    if not fs:
        raise ValueError("need a nonempty subset")
    for f in fs:
        _require_member(ctx, f)
    return tuple(sorted(fs, key=lambda f: f.images))


def _by_deficit(ctx: Context) -> list[list[Transformation]]:
    """The members by image deficit 0..n-|Y|, each bucket in lexicographic order, from one enumeration."""
    ny = len(ctx.y_set)
    buckets: list[list[Transformation]] = [[] for _ in range(ctx.n - ny + 1)]
    for f in enumerate_family(ctx, "omegabar").elements:
        buckets[len(set(f.images)) - ny].append(f)
    return buckets


def _cut(ctx: Context, t: int) -> tuple[Transformation, ...]:
    """The members of image deficit at most t, in lexicographic order."""
    bound = t + len(ctx.y_set)
    return tuple(f for f in enumerate_family(ctx, "omegabar").elements if len(set(f.images)) <= bound)


def j_of_f(ctx: Context, subset) -> IdealSet:
    """The divisibility down-set of a nonempty subset: all f below some g.

    Over a finite Y two-sided divisibility is the image-deficit order, so f
    lies below some g exactly when its deficit is at most the largest
    deficit among the g.
    """
    gens = _checked_subset(ctx, subset)
    return IdealSet(ctx=ctx, members=_cut(ctx, max(image_deficit(ctx, g) for g in gens)))


def is_ideal(ctx: Context, subset, by=None) -> bool:
    """Definitional check: h f and f h stay inside, for every h in ``by``.

    ``by`` defaults to every member.  That is the two-sided definition (h f h2
    inside for all h, h2) because the family is a monoid: h f h2 = (h f) h2,
    and h2 = 1 or h = 1 gives back h f and f h.  A generating set of the
    family is enough for ``by``: every member is a product of generators, so
    if I a and a I lie inside I for each generator a, so do I h and h I, one
    factor at a time.  The products are taken on image tuples.  Elements of
    ``by`` must be members, as those of ``subset`` must.
    """
    fs = [f.images for f in _checked_subset(ctx, subset)]
    inside = set(fs)
    if by is None:
        by = enumerate_family(ctx, "omegabar").elements
    else:
        by = tuple(by)
        for h in by:
            _require_member(ctx, h)
    elems = [h.images for h in by]
    return all(product(h, f) in inside and product(f, h) in inside for f in fs for h in elems)


def j_classes(ctx: Context) -> tuple[tuple[Transformation, ...], ...]:
    """Partition of the family under mutual two-sided divisibility.

    Over a finite Y that is equality of image deficits, a member's image size
    less |Y|; classes come in order of their first member.
    """
    return tuple(sorted(map(tuple, _by_deficit(ctx)), key=lambda c: c[0].images))


def ideals_all(ctx: Context) -> tuple[IdealSet, ...]:
    """Every ideal: the deficit chain, smallest first.

    Each cut is the one below it merged with the next deficit bucket, one sort
    of their concatenation that Timsort does by merging the two sorted runs,
    so the cuts share their members.
    """
    out: list[IdealSet] = []
    members: list[Transformation] = []
    for bucket in _by_deficit(ctx):
        members += bucket
        members.sort(key=_images)
        out.append(IdealSet(ctx=ctx, members=tuple(members)))
    return tuple(out)


def j_st(ctx: Context, s: int | float, t: int) -> IdealSet:
    """Members with at most s small fibers over Y and image deficit at most t."""
    s_val = as_extnat(s)
    if not isinstance(t, int) or isinstance(t, bool) or not 0 <= t <= ctx.n - len(ctx.y_set):
        raise ValueError(f"deficit threshold t must lie in 0..{ctx.n - len(ctx.y_set)}, got {t!r}")
    # every member's profile over a finite Y is all ones, like the identity's
    small = n_value(profile_of(ctx, identity(ctx.n)), len(ctx.y_set))
    members = _cut(ctx, t) if small <= s_val else ()
    warning = None
    if not members:
        warning = (
            "empty threshold set: over a finite Y every fiber of a member is a "
            "singleton, so the small-fiber count is |Y| for |Y| >= 2 and the "
            "threshold s admits nothing below that; an empty set is not an ideal"
        )
    return IdealSet(ctx=ctx, members=members, warning=warning)


def kernel(ctx: Context) -> IdealSet:
    """The least ideal: the members whose image is exactly Y, in lexicographic order.

    Over a finite Y those are the members of image deficit 0, which lie below
    every member under two-sided divisibility: the maps into Y that are
    bijective on Y, generated directly.  The verify battery compares this with
    the intersection of all ideals.
    """
    return IdealSet(ctx=ctx, members=_trusted_all(list(_generate(ctx, "omegabar", [ctx.y_set] * ctx.n))))
