"""Naturals extended by a single countable infinity, and fiber-size profiles.

An extended natural is a nonnegative int or ``OMEGA``, which is
``math.inf`` and is written ``w`` in text form.  Python's own arithmetic
gives what the calculus needs: addition absorbs, w + k = w, and the order
is total with w on top.  ``as_extnat`` is the one validating entry point;
past it, sizes are used as plain numbers.

A FiberProfile records, per index, the size of one fiber of a map restricted
to the distinguished subset.  The optional ``rest_ones`` flag means "plus
countably many further fibers of size 1", which is how profiles over an
infinite subset are written down at desk scale: only the interesting fiber
sizes are listed and the tail of singletons is kept symbolic.

Two comparisons on profiles drive the symbolic calculus (over a finite Y
every member's profile is all ones, so the finite predicates skip them):

  d_condition(p, q)   is there a size-preserving bijection of index sets?
  j_condition(p, q)   can q's fibers be packed into p's capacities, blockwise?

The packing question is one-sided; the symmetric closure of it is strictly
coarser than the bijection question once profiles carry infinite entries,
which is the separation the profile calculus exists to exhibit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .core import carries_y
from .errors import BudgetError, DimensionError, DomainError

# Input limit: profiles with more explicit indices than this are refused
# (exit 3 from the CLI).  Within it the packing search is bounded-time.
MAX_EXPLICIT_INDICES = 8

OMEGA = math.inf


def as_extnat(x: object) -> int | float:
    """x itself when it is a nonnegative int (not a bool) or OMEGA; DomainError otherwise."""
    if isinstance(x, int) and not isinstance(x, bool) and x >= 0:
        return x
    if isinstance(x, float) and x == OMEGA:
        return x
    raise DomainError(f"cannot interpret {x!r} as an extended natural")


@dataclass(frozen=True, slots=True)
class FiberProfile:
    """Indexed fiber sizes, each at least 1, plus an optional tail of 1s."""

    sizes: tuple[int | float, ...]
    rest_ones: bool = False

    def __post_init__(self) -> None:
        sizes = tuple(as_extnat(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        for s in sizes:
            if s < 1:
                raise DomainError(f"fiber size must be at least 1, got {s}")

    def __str__(self) -> str:
        return format_profile(self)


@dataclass(frozen=True, slots=True)
class IndexedCover:
    """A packing of one profile's fibers into another's capacities.

    ``blocks[i]`` lists the right-profile indices absorbed by left index i;
    empty blocks are allowed.  The remaining fields route material through
    the symbolic rest parts: ``to_rest`` holds size-1 right indices absorbed
    one-per-slot by the left rest, ``rest_to_rest`` matches the two rest
    tails one-to-one, and ``rest_to_block`` names the explicit left index
    swallowing the right rest tail when the left profile has no rest.
    """

    blocks: tuple[frozenset[int], ...]
    to_rest: frozenset[int] = frozenset()
    rest_to_rest: bool = False
    rest_to_block: int | None = None

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for b in self.blocks:
            if b & seen:
                raise DomainError("cover blocks must be pairwise disjoint")
            seen |= b
        if self.to_rest & seen:
            raise DomainError("an index cannot be in a block and in the rest part")
        if self.rest_to_rest and self.rest_to_block is not None:
            raise DomainError("rest tail routed two ways at once")


def d_condition(p: FiberProfile, q: FiberProfile) -> dict[int, int | None] | None:
    """Size-preserving bijection between the index sets, or None.

    Returned dict sends each explicit index of p to the matching explicit
    index of q, or to None when it matches into q's rest tail (size 1 only).
    Explicit q indices missing from the values are size-1 entries matched
    into p's rest tail.  Raises DimensionError when the index sets cannot be
    in bijection at all (one finite, one not, or finite of different sizes).
    """
    if p.rest_ones != q.rest_ones:
        raise DimensionError("profiles index sets of different cardinality (rest flags differ)")
    if not p.rest_ones and len(p.sizes) != len(q.sizes):
        raise DimensionError(
            f"profiles index {len(p.sizes)} and {len(q.sizes)} fibers; no bijection exists"
        )
    used = [False] * len(q.sizes)
    out: dict[int, int | None] = {}
    for i, s in enumerate(p.sizes):
        hit = next((j for j, t in enumerate(q.sizes) if not used[j] and t == s), None)
        if hit is not None:
            used[hit] = True
            out[i] = hit
        elif p.rest_ones and s == 1:
            out[i] = None
        else:
            return None
    for j, u in enumerate(used):
        if not u and not (q.rest_ones and q.sizes[j] == 1):
            return None
    return out


def matching_is_valid(p: FiberProfile, q: FiberProfile, m: dict[int, int | None]) -> bool:
    """Check a claimed d-matching without trusting how it was produced."""
    if p.rest_ones != q.rest_ones:
        return False
    if set(m) != set(range(len(p.sizes))):
        return False
    picked = [j for j in m.values() if j is not None]
    if len(picked) != len(set(picked)):
        return False
    for i, j in m.items():
        if j is None:
            if not (p.rest_ones and p.sizes[i] == 1):
                return False
        else:
            if not 0 <= j < len(q.sizes) or q.sizes[j] != p.sizes[i]:
                return False
    leftover = set(range(len(q.sizes))) - set(picked)
    return all(q.rest_ones and q.sizes[j] == 1 for j in leftover)


def j_condition(p: FiberProfile, q: FiberProfile) -> IndexedCover | None:
    """Pack all of q's fibers into p's capacities, or None when impossible.

    Each explicit index of p is a bin of capacity p.sizes[i]; a valid cover
    assigns every explicit index of q to some bin with blockwise sums within
    capacity.  Rest tails: q's tail needs either p's tail (matched 1-to-1)
    or an explicit infinite bin; p's tail additionally absorbs explicit
    size-1 entries of q, one per slot.  The cover returned is the first in
    index order: entries by index, each tried in the bins by index.  Within
    the index cap the answer comes in bounded time (see ``_pack``).
    """
    k, m = len(p.sizes), len(q.sizes)
    if k > MAX_EXPLICIT_INDICES or m > MAX_EXPLICIT_INDICES:
        raise BudgetError(
            f"profile comparison beyond {MAX_EXPLICIT_INDICES} explicit indices ({k} vs {m})"
        )
    rest_to_rest = False
    rest_to_block: int | None = None
    if q.rest_ones:
        if p.rest_ones:
            rest_to_rest = True
        else:
            rest_to_block = next((i for i, s in enumerate(p.sizes) if s == OMEGA), None)
            if rest_to_block is None:
                return None
    # With a rest tail on the left, explicit 1s on the right go there: each
    # occupies one of infinitely many free slots and can never hurt packing.
    to_rest = frozenset(j for j in range(m) if p.rest_ones and q.sizes[j] == 1)
    entries = [(j, q.sizes[j]) for j in range(m) if j not in to_rest]

    assign = _pack(entries, list(p.sizes))
    if assign is None:
        return None
    blocks = tuple(
        frozenset(j for j, b in assign.items() if b == i) for i in range(k)
    )
    return IndexedCover(
        blocks=blocks, to_rest=to_rest, rest_to_rest=rest_to_rest, rest_to_block=rest_to_block
    )


def _pack(entries: list[tuple[int, float]], caps: list[float]) -> dict[int, int] | None:
    """First assignment of entries (index, size) to bins of capacity caps, or None.

    Sizes and capacities are extended naturals: an omega entry fits only
    an omega bin, and an omega bin takes any load and keeps its infinite
    room.  The answer is the first assignment in index order, the one a
    depth-first search over the entries by index, trying the bins by index,
    reaches first.  It is built without backtracking: each entry in turn
    goes to the first bin that leaves the later entries packable, as
    ``_packable`` decides.
    """
    sizes = [s for _, s in entries]
    free = list(caps)
    failed: set[tuple] = set()
    if not _packable(sorted(sizes, reverse=True), free, failed):
        return None
    assign: dict[int, int] = {}
    for d, (j, s) in enumerate(entries):
        later = sorted(sizes[d + 1 :], reverse=True)
        # the entries from d on are packable, so some bin passes
        for b, r in enumerate(free):
            if s <= r:
                free[b] = r if r == OMEGA else r - s  # w - w is nan
                if _packable(later, free, failed):
                    assign[j] = b
                    break
                free[b] = r
    return assign


def _packable(sizes: list[float], free: list[float], failed: set[tuple]) -> bool:
    """Whether entries of the given sizes, largest first, fit bins with room ``free``.

    A depth-first search that places the largest entry first.  An omega
    room ends it at once: that bin takes every entry and keeps its room.
    Three prunings bound its time; each cuts only states from which no
    packing exists, so the answer is exact:

    1. Room.  The k largest entries fit only in bins with room for the
       smallest of them.  Fail when their load exceeds those bins' room,
       or when there are more of them than the bins can hold (a bin holds
       as many as the smallest of them whose load fits its room).  With k
       all entries this is the test that the total load fits at all.
    2. Equal bins.  Skip a bin whose room equals that of a bin already
       tried: swapping the two bins turns a packing after one choice into
       a packing after the other.
    3. Failed states.  Whether a state packs depends only on the sizes left
       and the multiset of rooms, so ``failed`` remembers each state that
       did not, for the length of one ``_pack`` call.  A room smaller than
       every size left takes nothing and is dropped; a room above the load
       left takes all of it and is lowered to that load.
    """
    if not sizes or OMEGA in free:
        return True
    for k in range(1, len(sizes) + 1):
        big = sizes[:k]
        fill = list(accumulate(reversed(big)))  # fill[i]: load of the i + 1 smallest
        if fill[-1] > sum(r for r in free if r >= big[-1]):
            return False
        if k > sum(bisect_right(fill, r) for r in free):
            return False
    load = sum(sizes)
    state = (tuple(sizes), tuple(sorted(min(r, load) for r in free if r >= sizes[-1])))
    if state in failed:
        return False
    s, rest = sizes[0], sizes[1:]
    tried = set()
    for b, r in enumerate(free):
        if s <= r and r not in tried:
            free[b] = r - s
            ok = _packable(rest, free, failed)
            free[b] = r
            if ok:
                return True
            tried.add(r)
    failed.add(state)
    return False


def cover_is_valid(p: FiberProfile, q: FiberProfile, cover: IndexedCover) -> bool:
    """Check a claimed j-cover without trusting how it was produced."""
    k, m = len(p.sizes), len(q.sizes)
    if len(cover.blocks) != k:
        return False
    placed: set[int] = set(cover.to_rest)
    for b in cover.blocks:
        placed |= b
    if placed != set(range(m)):
        return False
    if cover.to_rest and not p.rest_ones:
        return False
    if any(q.sizes[j] != 1 for j in cover.to_rest):
        return False
    if cover.rest_to_rest and not (q.rest_ones and p.rest_ones):
        return False
    if q.rest_ones:
        # the right tail must be routed exactly one way
        if cover.rest_to_rest == (cover.rest_to_block is not None):
            return False
        if cover.rest_to_block is not None and not 0 <= cover.rest_to_block < k:
            return False
    elif cover.rest_to_rest or cover.rest_to_block is not None:
        return False
    for i in range(k):
        load = sum(q.sizes[j] for j in cover.blocks[i])
        if cover.rest_to_block == i:
            load += OMEGA
        if not load <= p.sizes[i]:
            return False
    return True


def n_value(p: FiberProfile, ambient: int | float) -> int | float:
    """How many indexed fibers are strictly smaller than the ambient size."""
    amb = as_extnat(ambient)
    if p.rest_ones and 1 < amb:
        return OMEGA
    return sum(1 for s in p.sizes if s < amb)


def profile_of(ctx, f) -> FiberProfile:
    """Fiber sizes of f restricted to Y, indexed along sorted(Y).

    Only defined for maps carrying Y onto Y, where every fiber over Y is
    nonempty; anything else raises DomainError.
    """
    if not carries_y(ctx, f):
        raise DomainError(f"{f} does not carry Y onto Y; profile undefined")
    ys = ctx.y_set
    counts = [sum(1 for z in ys if f.images[z] == y) for y in ys]
    return FiberProfile(tuple(counts))


# --- text form --------------------------------------------------------------
# "[w 1 1]" lists explicit sizes; a "+rest1" suffix marks the symbolic tail.


def format_profile(p: FiberProfile) -> str:
    body = "[" + " ".join("w" if s == OMEGA else str(s) for s in p.sizes) + "]"
    return body + "+rest1" if p.rest_ones else body


def parse_profile(text: str) -> FiberProfile:
    s = text.strip()
    rest = False
    if s.endswith("+rest1"):
        rest = True
        s = s[: -len("+rest1")].strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"expected profile like '[w 1 1]' or '[w]+rest1', got {text!r}")
    sizes: list[int | float] = []
    for tok in s[1:-1].replace(",", " ").split():
        if tok == "w":
            sizes.append(OMEGA)
        else:
            try:
                sizes.append(as_extnat(int(tok)))
            except (ValueError, DomainError):
                raise ValueError(f"bad profile entry {tok!r} in {text!r}") from None
    try:
        return FiberProfile(tuple(sizes), rest_ones=rest)
    except DomainError as e:
        raise ValueError(str(e)) from None
