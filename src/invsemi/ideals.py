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
warning instead of pretending the cut is interesting.  Every builder but
``kernel`` reads the omegabar enumeration it is given and enumerates nothing.
The cuts are ``_deficit_cuts``' masks, with which the CLI cuts its formatted family.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .core import Context, Transformation, _images, _trusted_all, identity, product
from .extnat import as_extnat, n_value, profile_of
from .semigroup import SemigroupEnum, _generate, _omegabar, _require_member


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
    return fs


def _deficit_cuts(ctx: Context, images) -> list[bytes]:
    """The deficit chain as byte masks over members' image tuples: the t-th keeps those of deficit at most t."""
    sizes = bytes(map(len, map(set, images)))  # one translate per mask: sizes up to b read 1, larger ones 0
    return [sizes.translate(b"\1" * (b + 1) + bytes(255 - b)) for b in range(len(ctx.y_set), ctx.n + 1)]


def _cut(family: SemigroupEnum, t: int) -> tuple[Transformation, ...]:
    """The members of image deficit at most t, in lexicographic order."""
    ctx, members = _omegabar(family)
    return tuple(compress(members, _deficit_cuts(ctx, map(_images, members))[t]))


def j_of_f(family: SemigroupEnum, subset) -> IdealSet:
    """The divisibility down-set of a nonempty subset: all f below some g.

    Over a finite Y two-sided divisibility is the image-deficit order, so f
    lies below some g exactly when its deficit is at most the largest
    deficit among the g.
    """
    ctx = family.ctx
    gens = _checked_subset(ctx, subset)
    return IdealSet(ctx=ctx, members=_cut(family, max(len(g.image()) for g in gens) - len(ctx.y_set)))


def is_ideal(family: SemigroupEnum, subset) -> bool:
    """Definitional check: h f and f h stay inside, for every member h.

    That is the two-sided definition (h f h2 inside for all h, h2) because the
    family is a monoid: h f h2 = (h f) h2, and h2 = 1 or h = 1 gives back h f
    and f h.  The products are taken on image tuples.
    """
    ctx, members = _omegabar(family)
    fs = [f.images for f in _checked_subset(ctx, subset)]
    inside, elems = set(fs), [h.images for h in members]
    return all(product(h, f) in inside and product(f, h) in inside for f in fs for h in elems)


def j_classes(family: SemigroupEnum) -> tuple[tuple[Transformation, ...], ...]:
    """Partition of the family under mutual two-sided divisibility.

    Over a finite Y that is equality of image deficits, a member's image size
    less |Y|; classes come in order of their first member.
    """
    ctx, members = _omegabar(family)
    sizes = list(map(len, map(set, map(_images, members))))
    classes = [tuple(compress(members, map(size.__eq__, sizes))) for size in range(len(ctx.y_set), ctx.n + 1)]
    return tuple(sorted(classes, key=lambda c: c[0].images))


def ideals_all(family: SemigroupEnum) -> tuple[IdealSet, ...]:
    """Every ideal of an omegabar enumeration: the deficit chain, smallest first.

    Each ideal is the members cut by its mask from ``_deficit_cuts``, so it is
    already in lexicographic order and the ideals share their members.
    """
    ctx, members = _omegabar(family)
    cuts = _deficit_cuts(ctx, map(_images, members))
    return tuple(IdealSet(ctx=ctx, members=tuple(compress(members, cut))) for cut in cuts)


def j_st(family: SemigroupEnum, s: int | float, t: int) -> IdealSet:
    """Members with at most s small fibers over Y and image deficit at most t."""
    ctx = _omegabar(family)[0]  # a wrong family fails whatever s and t are
    s_val = as_extnat(s)
    if not isinstance(t, int) or isinstance(t, bool) or not 0 <= t <= ctx.n - len(ctx.y_set):
        raise ValueError(f"deficit threshold t must lie in 0..{ctx.n - len(ctx.y_set)}, got {t!r}")
    # every member's profile over a finite Y is all ones, like the identity's
    small = n_value(profile_of(ctx, identity(ctx.n)), len(ctx.y_set))
    members = _cut(family, t) if small <= s_val else ()
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
    return IdealSet(ctx=ctx, members=_trusted_all(_kernel_images(ctx)))


def _kernel_images(ctx: Context) -> list[tuple[int, ...]]:
    """The image tuples of the kernel's members, in lexicographic order: every point into Y, bijective on Y."""
    return list(_generate(ctx, "omegabar", [ctx.y_set] * ctx.n))
