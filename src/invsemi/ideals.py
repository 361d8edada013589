"""Two-sided ideals of the Y-onto-Y family.

The down-set of any nonempty subset under two-sided divisibility is an
ideal, every ideal arises that way, and all of them can be listed by brute
force over down-sets of J-classes.  The family is a monoid, so a subset I
is an ideal as soon as SI and IS lie inside I: the products h f h2 then stay
inside too, and the definitional test needs no pair (h, h2).  The threshold
sets j_st carve members by two numbers: how many fibers over Y are smaller
than Y itself, and how many image points fall outside Y.  Over a finite Y
the first threshold is degenerate (every fiber of a bijection on Y is a
singleton), which j_st reports through a warning instead of pretending the
cut is interesting.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .core import Context, Transformation, identity, image_deficit, product
from .extnat import as_extnat, n_value, profile_of
from .semigroup import _generate, _require_member, enumerate_family, j_below_holds

_images = attrgetter("images")


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


def j_of_f(ctx: Context, subset) -> IdealSet:
    """The divisibility down-set of a nonempty subset: all f below some g.

    Over a finite Y two-sided divisibility is the image-deficit order, so f
    lies below some g exactly when its deficit is at most the largest
    deficit among the g.
    """
    gens = _checked_subset(ctx, subset)
    bound = max(image_deficit(ctx, g) for g in gens)
    members = tuple(f for f in enumerate_family(ctx, "omegabar").elements if image_deficit(ctx, f) <= bound)
    return IdealSet(ctx=ctx, members=members)


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
    ny = len(ctx.y_set)
    classes: dict[int, list[Transformation]] = {}
    for f in enumerate_family(ctx, "omegabar").elements:
        classes.setdefault(len(set(f.images)) - ny, []).append(f)
    return tuple(tuple(c) for c in classes.values())


def ideals_all(ctx: Context) -> tuple[IdealSet, ...]:
    """Every ideal, by brute force over down-sets of J-classes, smallest first.

    Each class is already in lexicographic order, so an ideal's members are
    the merge of its classes: one sort of their concatenation, which Timsort
    does by merging the sorted runs.
    """
    classes = j_classes(ctx)
    reps = [c[0] for c in classes]
    k = len(classes)
    below = [[j_below_holds(ctx, reps[i], reps[j]) for j in range(k)] for i in range(k)]
    out: list[IdealSet] = []
    for mask in range(1, 1 << k):
        chosen = [i for i in range(k) if mask >> i & 1]
        closed = all(
            i in chosen
            for j in chosen
            for i in range(k)
            if below[i][j]
        )
        if not closed:
            continue
        members = tuple(sorted([f for i in chosen for f in classes[i]], key=_images))
        out.append(IdealSet(ctx=ctx, members=members))
    out.sort(key=lambda s: (len(s.members), list(map(_images, s.members))))
    return tuple(out)


def j_st(ctx: Context, s: int | float, t: int) -> IdealSet:
    """Members with at most s small fibers over Y and image deficit at most t."""
    s_val = as_extnat(s)
    if not isinstance(t, int) or isinstance(t, bool) or not 0 <= t <= ctx.n - len(ctx.y_set):
        raise ValueError(f"deficit threshold t must lie in 0..{ctx.n - len(ctx.y_set)}, got {t!r}")
    # every member's profile over a finite Y is all ones, like the identity's
    small = n_value(profile_of(ctx, identity(ctx.n)), len(ctx.y_set))
    members = tuple(
        f
        for f in enumerate_family(ctx, "omegabar").elements
        if small <= s_val and image_deficit(ctx, f) <= t
    )
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
    return IdealSet(ctx=ctx, members=tuple(_generate(ctx, "omegabar", [ctx.y_set] * ctx.n)))
