"""Enumeration and Green's structure of the families over a fixed (X, Y).

Every relation here comes in two independent flavors.  The characterization
predicates (l_related and friends) and the witness builders work from images,
kernels and image deficits alone, in time polynomial in n: over a finite Y
every member is a bijection on Y, so D, J and two-sided divisibility come down
to comparing image deficits.  The GreenOracle decides the same questions
straight from the definitions, on the left and right Cayley graphs of a greedy
generating set of the enumerated semigroup (the method of Froidure and Pin,
1997): one-sided divisibility is reachability, and the classes are strongly
connected components.  Each graph is multiplied out one product column per
generator, by ``core.product_columns``.  Each side is built on the first
query that needs it, the first one by the greedy walk that picks the
generators; components and reachability follow on first need as well.  The
two flavors are kept separate on purpose: tests compare them and neither side
is allowed to peek at the other.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from operator import itemgetter, ne

from .core import (
    Context,
    Transformation,
    _images,
    _trusted,
    _trusted_all,
    carries_y,
    fibers,
    format_all,
    identity,
    product,
    product_columns,
)
from .errors import BudgetError, DomainError

FAMILIES = ("tbar", "omegabar", "sbar", "fix")
RELATIONS = ("L", "R", "H", "D", "J")
_ORACLE_RELATED = {rel: f"{rel.lower()}_related" for rel in RELATIONS}  # GreenOracle's method for each relation

DEFAULT_ENUM_BUDGET = 46_656  # members _generate may yield unless its budget= says otherwise: 6^6, T̄ at (6, X)


@dataclass(frozen=True, slots=True)
class SemigroupEnum:
    """All members of one family over one context, in lexicographic order."""

    ctx: Context
    family: str
    elements: tuple[Transformation, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _candidates(ctx: Context, family: str) -> list[tuple[int, ...]]:
    """Each position's images in the family, ascending: Y into Y (in ``fix``, onto itself), the rest anywhere."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    ys, every = ctx.y_set, tuple(range(ctx.n))
    return [((x,) if family == "fix" else ys) if x in ctx.y_frozen else every for x in range(ctx.n)]


def _generate(ctx: Context, family: str, per_pos: list[tuple[int, ...]], budget: int = DEFAULT_ENUM_BUDGET):
    """The image tuples of the family's members in the product of ``per_pos``, in lexicographic order.

    ``per_pos`` (the family's candidates or a narrowing of them) keeps Y in Y.
    The bijective-on-Y families are generated directly: the bijections of Y the
    Y positions allow, times the product over the other positions, put in
    position order by one itemgetter and sorted unless Y is a prefix of X.
    Otherwise it is the plain product, lazily.  Every candidate is in range(n),
    so callers wrap the tuples with ``_trusted`` unchecked.  First the tuples are
    counted, the i-th point of Y taking at most |Y| - i values in a bijective-on-Y
    family (exact for a whole family or the kernel, an upper bound for a narrowed
    scan), and a count past ``budget`` raises BudgetError.  No count exceeds n^n.
    """
    ys = ctx.y_set
    if ctx.n**ctx.n > budget:
        y_cap = dict(zip(ys, range(len(ys), 0, -1))) if family in ("sbar", "omegabar") else {}
        count = math.prod(min(len(c), y_cap.get(x, len(c))) for x, c in enumerate(per_pos))
        if count > budget:
            raise BudgetError(f"{family} scan over {ctx} yields up to {count:,} members, past the budget {budget:,}")
    if family not in ("sbar", "omegabar") or len(ys) == 1:
        return itertools.product(*per_pos)
    rest = [x for x in range(ctx.n) if x not in ctx.y_frozen]
    heads = [()]  # the values at Y, one position at a time: each among its candidates and not yet used
    for cands in map(per_pos.__getitem__, ys):
        heads = [h + (v,) for h in heads for v in cands if v not in h]
    free = itertools.product(*map(per_pos.__getitem__, rest))
    tuples = itertools.starmap(tuple.__add__, itertools.product(heads, free))
    if ys == tuple(range(len(ys))):  # Y first, then the rest: already in position and lexicographic order
        return tuples
    return sorted(map(itemgetter(*map([*ys, *rest].index, range(ctx.n))), tuples))


def _family_images(ctx: Context, family: str, budget: int = DEFAULT_ENUM_BUDGET) -> list[tuple[int, ...]]:
    """The image tuples of a family's members, in lexicographic order, with no map built."""
    return list(_generate(ctx, family, _candidates(ctx, family), budget))


def enumerate_family(ctx: Context, family: str = "omegabar", budget: int = DEFAULT_ENUM_BUDGET) -> SemigroupEnum:
    """Enumerate a family in lexicographic order of image tuples; more than ``budget`` members raise BudgetError."""
    return SemigroupEnum(ctx=ctx, family=family, elements=_trusted_all(_family_images(ctx, family, budget)))


def _omegabar(family: SemigroupEnum) -> tuple[Context, tuple[Transformation, ...]]:
    """The context and members of an omegabar enumeration; the egg-box and the ideals describe that family only."""
    if family.family != "omegabar":
        raise ValueError(f"need the omegabar family, got {family.family!r}")
    return family.ctx, family.elements


def units(ctx: Context) -> tuple[Transformation, ...]:
    """The invertible members, lexicographic: the permutations of X (already in that order) carrying Y into Y."""
    if (walk := math.factorial(ctx.n)) > DEFAULT_ENUM_BUDGET:  # before any permutation is walked
        raise BudgetError(f"units over {ctx}: {walk:,} permutations, past the budget {DEFAULT_ENUM_BUDGET:,}")
    ys, yset = ctx.y_set, ctx.y_frozen
    return _trusted_all([p for p in itertools.permutations(range(ctx.n)) if yset.issuperset(map(p.__getitem__, ys))])


def _require_member(ctx: Context, f: Transformation) -> None:
    if not carries_y(ctx, f):
        raise DomainError(f"{f} does not carry Y onto Y in context {ctx}")


# --- characterization predicates --------------------------------------------


def l_related(ctx: Context, f: Transformation, g: Transformation) -> bool:
    """Same image set."""
    _require_member(ctx, f)
    _require_member(ctx, g)
    return f.image() == g.image()


def _r_key(f: Transformation) -> tuple[int, ...]:
    """For each point, the least point of its fiber: equal keys, equal kernels.

    Only image points are looked up, so any map has a key.
    """
    return tuple(map(f.images.index, f.images))


def r_related(ctx: Context, f: Transformation, g: Transformation) -> bool:
    """Same kernel.

    The fibers over Y need no comparison of their own: for a member, Yf = Y
    makes them exactly the kernel blocks that meet Y.
    """
    _require_member(ctx, f)
    _require_member(ctx, g)
    return _r_key(f) == _r_key(g)


def h_related(ctx: Context, f: Transformation, g: Transformation) -> bool:
    _require_member(ctx, f)
    _require_member(ctx, g)
    return f.image() == g.image() and _r_key(f) == _r_key(g)


def d_related(ctx: Context, f: Transformation, g: Transformation) -> bool:
    """Equal image deficit: a member's image holds Y, so that is equal image size."""
    _require_member(ctx, f)
    _require_member(ctx, g)
    return len(f.image()) == len(g.image())


def j_related(ctx: Context, f: Transformation, g: Transformation) -> bool:
    """Over a finite Y, J is D: equal image deficit."""
    return d_related(ctx, f, g)


_RELATED = {"L": l_related, "R": r_related, "H": h_related, "D": d_related, "J": j_related}


def green_related(ctx: Context, rel: str, f: Transformation, g: Transformation) -> bool:
    if rel not in _RELATED:
        raise ValueError(f"unknown relation {rel!r}; expected one of {RELATIONS}")
    return _RELATED[rel](ctx, f, g)


# --- divisibility witnesses ---------------------------------------------------


def l_below_witness(ctx: Context, f: Transformation, g: Transformation) -> Transformation | None:
    """Lexicographically least h in the family with (h then g) = f, or None.

    Exists iff Xf is inside Xg.
    """
    _require_member(ctx, f)
    _require_member(ctx, g)
    if not f.image() <= g.image():
        return None
    yset, gi = ctx.y_frozen, g.images
    on_y = {gi[y]: y for y in ctx.y_set}  # g is a bijection on Y, so exactly one preimage inside Y
    h = _trusted(tuple(on_y[v] if x in yset else gi.index(v) for x, v in enumerate(f.images)))
    assert product(h.images, g.images) == f.images, "witness failed recomposition"
    assert carries_y(ctx, h)
    return h


def r_below_witness(ctx: Context, f: Transformation, g: Transformation) -> Transformation | None:
    """Lexicographically least h in the family with (g then h) = f, or None.

    Exists iff g's fibers refine f's, that is, f is constant on every g-fiber;
    h then carries Y onto Y, because the g-fibers over Y are the kernel blocks
    that meet Y.
    """
    _require_member(ctx, f)
    _require_member(ctx, g)
    if any(map(ne, f.images, map(f.images.__getitem__, _r_key(g)))):
        return None
    imgs = [0] * ctx.n  # points outside Xg are free; 0 is the least choice
    for v, w in zip(g.images, f.images):  # f is constant on each g-fiber
        imgs[v] = w
    h = _trusted(tuple(imgs))
    assert product(g.images, h.images) == f.images, "witness failed recomposition"
    assert carries_y(ctx, h)
    return h


def j_below_holds(ctx: Context, f: Transformation, g: Transformation) -> bool:
    """Two-sided divisibility test alone, no witness construction."""
    _require_member(ctx, f)
    _require_member(ctx, g)
    return len(f.image()) <= len(g.image())  # image deficits, each less |Y|


def j_below_witness(
    ctx: Context, f: Transformation, g: Transformation
) -> tuple[Transformation, Transformation] | None:
    """A deterministic pair (h, h2) with (h then g then h2) = f, or None.

    Exists iff f's image deficit is at most g's.  Equal arguments
    short-circuit to the identity pair.  The construction picks least
    preimages throughout, so equal inputs give equal witnesses, but the pair
    as a whole is not the lex-least one.
    """
    _require_member(ctx, f)
    _require_member(ctx, g)
    if f.images == g.images:
        e = identity(ctx.n)
        return e, e
    if len(f.image()) > len(g.image()):  # image deficits, each less |Y|
        return None
    yset, gi = ctx.y_frozen, g.images
    ginv_y = {gi[y]: y for y in ctx.y_set}
    f_off = sorted(f.image() - yset)
    g_off = sorted(g.image() - yset)
    psi = dict(zip(f_off, map(gi.index, g_off)))
    psi_back = dict(zip(g_off, f_off))
    # h sends x to g's one Y-preimage of f(x) in Y, else to the least preimage of
    # f(x)'s partner in Xg minus Y; h2 fixes Y and carries each partner back
    h = _trusted(tuple(ginv_y[v] if v in yset else psi[v] for v in f.images))
    h2 = _trusted(tuple(z if z in yset else psi_back.get(z, 0) for z in range(ctx.n)))
    assert product(h.images, product(g.images, h2.images)) == f.images, "witness failed recomposition"
    assert carries_y(ctx, h) and carries_y(ctx, h2)
    return h, h2


def d_middle_witness(ctx: Context, f: Transformation, g: Transformation) -> Transformation | None:
    """Lexicographically least m in the family with f L m and m R g, or None.

    Exists iff f and g have equal image deficits.  Such an m is constant on
    g's fibers, sends the kernel blocks that meet Y onto Y and the others onto
    Xf minus Y; taking the blocks in order of least element and giving each
    the least unused point of its kind yields the least m.
    """
    _require_member(ctx, f)
    _require_member(ctx, g)
    if len(f.image()) != len(g.image()):  # image deficits, each less |Y|
        return None
    yset = ctx.y_frozen
    on_y = iter(ctx.y_set)
    off_y = iter(sorted(f.image() - yset))
    imgs = [0] * ctx.n
    for v, block in fibers(g).items():
        point = next(on_y if v in yset else off_y)  # g's blocks over Y are those that meet Y
        for x in block:
            imgs[x] = point
    m = _trusted(tuple(imgs))
    assert f.image() == m.image() and _r_key(m) == _r_key(g), "middle failed its relations"
    return m


# --- definitional oracle ------------------------------------------------------


def _cayley_graphs(column, sizes: list[int], left: bool) -> tuple[list[int], list[tuple[int, ...]]]:
    """A greedy generating set of the family and its left or right Cayley graph, as member indices.

    ``column(a, left)`` lists every member times a, or with ``left`` a times
    every member, as ``core.product_columns`` returns them.
    Members are walked by descending image size (``sizes``), then in index
    order; each one not yet in the closure becomes a generator, its column is
    taken once, and the closure grows in set-level frontiers: the old closure
    times the new generator, then each new member times every generator, until
    nothing new appears.  Either side closes to the same subsemigroup, so both
    choose the same generators.  Row v of the graph lists v times each generator,
    or with ``left`` each generator times v.  A product outside the family
    raises KeyError.
    """
    gens, cols, closure = [], [], set()
    for g in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):  # stable: ties stay in index order
        if g in closure:
            continue
        gens.append(g)
        cols.append(column(g, left))
        new = {g, *map(cols[-1].__getitem__, closure)} - closure
        while new:
            closure |= new
            grown = set()
            for col in cols:
                grown.update(map(col.__getitem__, new))
            new = grown - closure
    return gens, list(zip(*cols))


def _components(succ: list) -> list[int]:
    """The strongly connected component of each vertex of the graph v -> succ[v].

    Iterative Tarjan.  Components are numbered in the order they close, so no
    edge leads to a higher number.
    """
    m = len(succ)
    order, low, comp = [0] * m, [0] * m, [-1] * m  # order 0: not visited yet
    stack, groups, count = [], [], 0
    for root in range(m):
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if not order[w]:
                    count += 1
                    order[w] = low[w] = count
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and order[w] < low[v]:  # w is still on the stack
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    group = []
                    while not group or group[-1] != v:
                        group.append(stack.pop())
                        comp[group[-1]] = len(groups)
                    groups.append(group)
    return comp


class GreenOracle:
    """Green's relations from the definitions, on the Cayley graphs of an enumerated family.

    Each family is a monoid generated by a greedy generating set, so f <=_R g
    (f = g h for a member h) is reachability from g in the right Cayley graph
    (x -> x a per generator a), f <=_L g in the left one (x -> a x) and f <=_J g
    in their union.  L, R and J are the strongly connected components; the
    middle of D is the first member of L(f) and R(g).  Everything is built on
    the first query that needs it: a side's rows (L needs the left graph, R the
    right one, H, D and J both), each graph's components, and the reach masks
    that only the below-queries and ``j_down_sets`` read.  The first side built
    runs the greedy walk and fixes the generators; the other is one product
    column per generator.  A product outside the family is an error.  The
    members are the ``enumerate_family`` result it is given, of any family;
    nothing is enumerated here.
    """

    def __init__(self, family: SemigroupEnum):
        self.ctx = family.ctx
        self.elements = family.elements
        self._index = dict(zip(map(_images, self.elements), range(len(self.elements))))
        self._left = self._right = None  # each side's rows, built by _products
        self._side = 1  # the side the next _products call builds
        self._column = None  # product_columns over the members, while one side is missing
        self._gens: list[int] | None = None  # the generators' member indices, from the first side's walk
        # per graph (left, right, union): the component of each member, and reach
        self._comps: list[list[int] | None] = [None, None, None]
        self._reaches: list[tuple[list[int], list[int]] | None] = [None, None, None]
        self._middles: dict[tuple[int, int], int] | None = None

    def _id(self, f: Transformation) -> int:
        try:
            return self._index[f.images]
        except KeyError:
            raise DomainError(f"{f} is not a member over {self.ctx}") from None

    def _products(self) -> list[tuple[int, ...]]:
        """Build the rows of the Cayley graph ``_side`` names (0 left, 1 right), and return them.

        Every side is built here and nowhere else.  The side comes from ``_side``
        rather than an argument because ``perfbench/tracing.py`` wraps this
        method by name, with the oracle as its one argument, and times the
        calls made while ``_left`` is None.
        """
        left = self._side == 0
        try:
            if self._gens is None:  # the first side: its greedy walk picks the generators
                tuples = list(map(_images, self.elements))
                self._column = product_columns(tuples)
                self._gens, rows = _cayley_graphs(self._column, list(map(len, map(set, tuples))), left)
            else:  # the other side: one column per generator, then the codes and tables are released
                rows = list(zip(*[self._column(a, left) for a in self._gens]))
                self._column = None
        except KeyError as e:
            raise RuntimeError(f"product {Transformation(e.args[0])} leaves the family over {self.ctx}") from None
        if left:
            self._left = rows
        else:
            self._right = rows
        return rows

    def _succ(self, graph: int) -> list[tuple[int, ...]]:
        """The rows of the left (0), right (1) or union (2) graph, a side built on its first call."""
        if graph == 2:
            return [lx + rx for lx, rx in zip(self._succ(0), self._succ(1))]
        rows = (self._left, self._right)[graph]
        if rows is None:
            self._side = graph
            rows = self._products()
        return rows

    def _graph(self, graph: int) -> list[int]:
        """The component of each member in the left (0), right (1) or union (2) graph."""
        comp = self._comps[graph]
        if comp is None:
            comp = self._comps[graph] = _components(self._succ(graph))
        return comp

    def _reach(self, graph: int) -> tuple[list[int], list[int]]:
        """The graph's components, and for each component c the bitmask of the components reachable from c, c included.

        No edge leads to a higher component number, so each mask is complete
        before a higher one reads it.
        """
        found = self._reaches[graph]
        if found is None:
            comp = self._graph(graph)
            nexts = [set() for _ in range(max(comp) + 1)]
            for c, row in zip(comp, self._succ(graph)):
                nexts[c].update(row)
            reach: list[int] = []
            for c, ws in enumerate(nexts):
                mask = 1 << c
                for d in set(map(comp.__getitem__, ws)) - {c}:
                    mask |= reach[d]
                reach.append(mask)
            found = self._reaches[graph] = comp, reach
        return found

    @property
    def generators(self) -> tuple[Transformation, ...]:
        """The greedy generating set; the family is the closure of it under products."""
        if self._gens is None:
            self._succ(1)
        return tuple(map(self.elements.__getitem__, self._gens))

    def _below(self, graph: int, f: Transformation, g: Transformation) -> bool:
        comp, reach = self._reaches[graph] or self._reach(graph)
        return bool(reach[comp[self._id(g)]] >> comp[self._id(f)] & 1)

    def _same(self, graph: int, f: Transformation, g: Transformation) -> bool:
        comp = self._comps[graph] or self._graph(graph)
        return comp[self._id(f)] == comp[self._id(g)]

    def l_below(self, f: Transformation, g: Transformation) -> bool:
        return self._below(0, f, g)

    def r_below(self, f: Transformation, g: Transformation) -> bool:
        return self._below(1, f, g)

    def j_below(self, f: Transformation, g: Transformation) -> bool:
        return self._below(2, f, g)

    def l_related(self, f: Transformation, g: Transformation) -> bool:
        return self._same(0, f, g)

    def r_related(self, f: Transformation, g: Transformation) -> bool:
        return self._same(1, f, g)

    def h_related(self, f: Transformation, g: Transformation) -> bool:
        return self.l_related(f, g) and self.r_related(f, g)

    def d_middle(self, f: Transformation, g: Transformation) -> Transformation | None:
        """The first member w with f L w and w R g, or None."""
        left, right = self._graph(0), self._graph(1)
        if self._middles is None:
            self._middles = {}
            for w, key in enumerate(zip(left, right)):
                self._middles.setdefault(key, w)
        w = self._middles.get((left[self._id(f)], right[self._id(g)]))
        return None if w is None else self.elements[w]

    def d_related(self, f: Transformation, g: Transformation) -> bool:
        return self.d_middle(f, g) is not None

    def j_down_sets(self) -> list[frozenset[tuple[int, ...]]]:
        """Every nonempty down-set of the J-components, as the image tuples of its members.

        A down-set is the union of the principal ones below its components, so
        the unions of ``reach`` masks, grown one principal down-set at a time,
        are all of them, each found with one union per component.
        """
        comp, reach = self._reach(2)
        masks = set(reach)
        todo = list(masks)
        while todo:
            for grown in {todo.pop() | r for r in reach} - masks:
                masks.add(grown)
                todo.append(grown)
        return [frozenset(f.images for f, c in zip(self.elements, comp) if mask >> c & 1) for mask in sorted(masks)]

    def j_related(self, f: Transformation, g: Transformation) -> bool:
        return self._same(2, f, g)

    def related(self, rel: str, f: Transformation, g: Transformation) -> bool:
        if rel not in _ORACLE_RELATED:
            raise ValueError(f"unknown relation {rel!r}; expected one of {RELATIONS}")
        return getattr(self, _ORACLE_RELATED[rel])(f, g)  # by name, so wrappers on the class see the call


# --- egg-box structure --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HCell:
    elements: tuple[Transformation, ...]
    has_idempotent: bool


@dataclass(frozen=True, slots=True)
class DClassGrid:
    """One D-class laid out as R-classes (rows) by L-classes (columns)."""

    deficit: int
    cells: tuple[tuple[HCell, ...], ...]

    @property
    def size(self) -> int:
        return sum(len(c.elements) for row in self.cells for c in row)


@dataclass(frozen=True, slots=True)
class EggBox:
    ctx: Context
    d_classes: tuple[DClassGrid, ...]
    # strict comparabilities (i, j): class i sits below class j in the
    # two-sided divisibility order on D-class representatives
    j_below_pairs: tuple[tuple[int, int], ...]


def eggbox(family: SemigroupEnum) -> EggBox:
    """Group an omegabar enumeration (any other family raises ValueError) into D-classes, each an R-by-L grid.

    Each member goes, in C passes, into the cell of its R key and L key (the
    kernel key and image set that r_related and l_related compare); members
    come in lexicographic order, so cells, rows and columns appear in order of
    their least member.  Cells are split into D-classes by image deficit.  A
    cell holds an idempotent iff its image meets each kernel block once: an
    idempotent fixes its image pointwise, and conversely the map sending each
    block to its image point is idempotent with the cell's kernel and image.
    """
    ctx, members = _omegabar(family)
    cells: defaultdict[tuple, list[Transformation]] = defaultdict(list)
    keys = zip(map(_r_key, members), map(frozenset, map(_images, members)))
    deque(map(list.append, map(cells.__getitem__, keys), members), maxlen=0)
    by_d: defaultdict[int, list[tuple]] = defaultdict(list)
    for key in cells:
        by_d[len(key[1]) - len(ctx.y_set)].append(key)

    def cell(rk: tuple[int, ...], lk: frozenset[int]) -> HCell:
        assert (rk, lk) in cells, "every R-by-L intersection inside a D-class is nonempty"
        return HCell(elements=tuple(cells[rk, lk]), has_idempotent=len(set(map(rk.__getitem__, lk))) == len(lk))

    grids = []
    for deficit in sorted(by_d, reverse=True):
        rows, cols = dict.fromkeys(rk for rk, _ in by_d[deficit]), dict.fromkeys(lk for _, lk in by_d[deficit])
        grids.append(DClassGrid(deficit=deficit, cells=tuple(tuple(cell(rk, lk) for lk in cols) for rk in rows)))

    reps = [grid.cells[0][0].elements[0] for grid in grids]
    pairs = [(i, j) for i, j in itertools.permutations(range(len(grids)), 2) if j_below_holds(ctx, reps[i], reps[j])]
    return EggBox(ctx=ctx, d_classes=tuple(grids), j_below_pairs=tuple(pairs))


def eggbox_text(box: EggBox) -> str:
    lines = [f"egg-box over {box.ctx}"]
    for i, grid in enumerate(box.d_classes):
        nrows = len(grid.cells)
        ncols = len(grid.cells[0]) if nrows else 0
        lines.append(
            f"D-class {i}: image-deficit={grid.deficit} size={grid.size} grid={nrows}x{ncols}"
        )
        for row in grid.cells:
            lines.append(
                "  " + " ".join(f"{len(c.elements)}{'*' if c.has_idempotent else ''}" for c in row)
            )
    below = sorted(box.j_below_pairs)
    if below:
        lines.append("order: " + " ".join(f"D{i}<=D{j}" for i, j in below))
    return "\n".join(lines) + "\n"


def eggbox_dot(box: EggBox) -> str:
    out = ["digraph eggbox {", "  compound=true;", "  node [shape=box];"]
    for i, grid in enumerate(box.d_classes):
        out.append(f"  subgraph cluster_{i} {{")
        out.append(f'    label="D{i} deficit={grid.deficit}";')
        for r, row in enumerate(grid.cells):
            for c, cell in enumerate(row):
                star = "*" if cell.has_idempotent else ""
                out.append(f'    d{i}_r{r}_c{c} [label="{len(cell.elements)}{star}"];')
        out.append("  }")
    # one representative edge per covering pair, cluster to cluster
    strict = set(box.j_below_pairs)
    covers = [
        (i, j)
        for i, j in sorted(strict)
        if not any((i, k) in strict and (k, j) in strict for k in range(len(box.d_classes)))
    ]
    for i, j in covers:
        out.append(f"  d{i}_r0_c0 -> d{j}_r0_c0 [ltail=cluster_{i}, lhead=cluster_{j}];")
    out.append("}")
    return "\n".join(out) + "\n"


def eggbox_json(box: EggBox) -> dict:
    # every member formatted in one pass, then read back cell by cell in the same order
    texts = iter(format_all([f.images for grid in box.d_classes for row in grid.cells for c in row for f in c.elements]))
    return {
        "n": box.ctx.n,
        "y": list(box.ctx.y_set),
        "d_classes": [
            {
                "deficit": grid.deficit,
                "size": grid.size,
                "cells": [
                    [
                        {
                            "elements": list(itertools.islice(texts, len(cell.elements))),
                            "idempotent": cell.has_idempotent,
                        }
                        for cell in row
                    ]
                    for row in grid.cells
                ],
            }
            for grid in box.d_classes
        ],
        "order_pairs": [list(p) for p in sorted(box.j_below_pairs)],
    }
