"""Self-verification harness: every structural claim against brute force.

Each check has a stable label and runs either once (fixed corpora for the
symbolic calculus and the parsers) or per context, sweeping all (n, Y)
configurations up to the configured bound in ascending order, so the first
counterexample reported is a minimal one.  Characterizations are always
compared against independent definitional computations; neither side is
derived from the other.

Reports are plain data with a schema number and no timestamps, machine
state, or ordering that depends on parallelism: two runs with the same
configuration produce byte-identical output.  Context shards may run in a
process pool; results are merged in configuration order regardless of
completion order.

Setting INVSEMI_MUTATE=flip-compose reverses the composition order before
the run, which must make the relation checks fail; it exists so the harness
itself can be tested.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter, mul

from . import core
from .core import (
    Context,
    Transformation,
    classify,
    compose,
    fibers,
    identity,
    image_deficit,
    indented_json,
    parse_transformation,
    product,
    restrict_to_y,
    transformation_from_json,
    transformation_to_json,
)
from .errors import BudgetError, DimensionError
from .extnat import (
    OMEGA,
    cover_is_valid,
    d_condition,
    j_condition,
    matching_is_valid,
    n_value,
    parse_profile,
    profile_of,
)
from .ideals import ideals_all, j_of_f, j_st, kernel
from .regularity import _pre_inverse_scan, is_regular, is_regular_oracle, is_unit_regular, pre_inverses
from .semigroup import (
    DEFAULT_ENUM_BUDGET,
    GreenOracle,
    SemigroupEnum,
    _candidates,
    d_middle_witness,
    enumerate_family,
    eggbox,
    green_related,
    j_below_witness,
    l_below_witness,
    r_below_witness,
    units,
)

REPORT_SCHEMA = 1

# sampling sizes for configurations too big to sweep exhaustively
SAMPLE_PAIRS = 512
SAMPLE_TRIPLES = 400
SAMPLE_WITNESS_PAIRS = 300
SAMPLE_SUBSETS = 6
SAMPLE_ELEMENTS = 120
EXHAUSTIVE_MAPS_LIMIT = 200_000


@dataclass(frozen=True, slots=True)
class VerifyConfig:
    max_n: int = 4
    sample_n5: bool = False
    seed: int = 0
    jobs: int = 1
    report_path: str | None = None


def _apply_env_mutation() -> None:
    name = os.environ.get("INVSEMI_MUTATE") or None
    if name is not None and name != "flip-compose":
        raise ValueError(f"unknown mutation {name!r}; only 'flip-compose' is understood")
    core._set_mutation(name)


def _contexts(cfg: VerifyConfig) -> list[tuple[int, tuple[int, ...]]]:
    out = []
    for n in range(1, cfg.max_n + 1):
        for r in range(1, n + 1):
            for ys in itertools.combinations(range(n), r):
                out.append((n, ys))
    if cfg.sample_n5 and cfg.max_n < 5:
        out.append((5, (0,)))
        out.append((5, (0, 1)))
    return out


# positions in a map's definitional flags; the flag table shares the 32 possible tuples
_FLAG = {name: i for i, name in enumerate(("tbar", "omegabar", "sbar", "fix", "unit"))}
_SHARED_FLAGS = {t: t for t in itertools.product((False, True), repeat=len(_FLAG))}


def _definitional_flags(ctx: Context, imgs: tuple[int, ...]) -> tuple[bool, ...]:
    """The family memberships and unit-ness of a map, read off the definitions without ``classify``."""
    ys, yset = ctx.y_set, ctx.y_frozen
    vals = [imgs[y] for y in ys]
    tbar = all(v in yset for v in vals)
    omega = tbar and set(vals) == yset
    sbar = tbar and len(set(vals)) == len(ys)
    fix = all(imgs[y] == y for y in ys)
    unit = omega and len(set(imgs)) == len(imgs)
    return _SHARED_FLAGS[tbar, omega, sbar, fix, unit]


def _least_factor(ctx: Context, side: str, f: Transformation, g: Transformation) -> tuple[int, ...] | None:
    """The lex-least member h with h g = f (side "L") or g h = f ("R"), or None, read point by point.

    x(hg) = xf keeps at position x the z with zg = xf; (xg)h = xf fixes h on Xg.  The product runs in
    lexicographic order, so its first tuple with distinct values on Y is ``_generate``'s first member.
    Under ``flip-compose`` each side solves the other's equation, as ``product`` swaps its factors.
    """
    fi, gi, per_pos = f.images, g.images, _candidates(ctx, "omegabar")
    if (side == "L") != (core._MUTATION == "flip-compose"):
        per_pos = [tuple(z for z in c if gi[z] == v) for v, c in zip(fi, per_pos)]
    else:
        for v, w in zip(gi, fi):
            per_pos[v] = tuple(z for z in per_pos[v] if z == w)
    return next((t for t in itertools.product(*per_pos) if len(set(ctx.y_of(t))) == len(ctx.y_set)), None)


class _CtxData:
    """Per-context lazy cache: one enumeration per family, and the heavy objects built from it, for a shard's checks.

    The properties call library functions by their module-global names, so wrappers on this module see the calls.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self._enums: dict[str, SemigroupEnum] = {}
        self._powers = [ctx.n ** (ctx.n - 1 - x) for x in range(ctx.n)]  # a map's place in the flag table

    def enum(self, family: str = "omegabar") -> SemigroupEnum:
        if family not in self._enums:
            self._enums[family] = enumerate_family(self.ctx, family)
        return self._enums[family]

    @cached_property
    def flag_table(self) -> list[tuple[bool, ...]]:
        """``_definitional_flags`` of every map of X, in lexicographic order.

        Images (a_0, ..., a_{n-1}) sit at a_0 n^(n-1) + ... + a_{n-1}.  A list costs one
        pointer per map; a dict keyed by images would keep a tuple per map.  The family flags
        are decided once per restriction to Y and spread in C passes; the units are permutations.
        """
        ctx, n = self.ctx, self.ctx.n
        reps = itertools.product(*[range(n) if x in ctx.y_frozen else (0,) for x in range(n)])  # one per restriction
        by_y = {ctx.y_of(imgs): _SHARED_FLAGS[(*_definitional_flags(ctx, imgs)[:4], False)] for imgs in reps}
        table = list(map(by_y.__getitem__, map(ctx.y_of, itertools.product(range(n), repeat=n))))
        for code in map(sum, map(map, repeat(mul), itertools.permutations(range(n)), repeat(self._powers))):
            if table[code][_FLAG["omegabar"]]:
                table[code] = _SHARED_FLAGS[(*table[code][:4], True)]
        return table

    def flags(self, imgs: tuple[int, ...]) -> tuple[bool, ...]:
        """``_definitional_flags`` of a map: from the table up to EXHAUSTIVE_MAPS_LIMIT maps of X."""
        if self.ctx.n**self.ctx.n > EXHAUSTIVE_MAPS_LIMIT:
            return _definitional_flags(self.ctx, imgs)
        return self.flag_table[sum(map(mul, imgs, self._powers))]

    @cached_property
    def units(self) -> tuple[Transformation, ...]:
        return units(self.ctx)  # semigroup.units: class attributes are not in scope in a method

    @cached_property
    def oracle(self) -> GreenOracle:
        return GreenOracle(self.enum())

    @cached_property
    def ideals(self):
        return ideals_all(self.enum())

    @cached_property
    def eggbox(self):
        return eggbox(self.enum())

    def ideal_holds(self, members) -> bool:
        """Whether ``members`` form an ideal, by ``is_ideal``'s test with the oracle's generators for the members h.
        That is enough: every member is a product of generators, so if I a and a I lie inside I for each generator
        a, so do I h and h I, one factor at a time.  The Cayley rows hold those products, multiplied."""
        ids = set(map(self.oracle._index.__getitem__, map(core._images, members)))
        return all(ids.issuperset(chain.from_iterable(map(self.oracle._succ(s).__getitem__, ids))) for s in (0, 1))


def _ex(data: _CtxData, **kv) -> dict:
    out = {"n": data.ctx.n, "y": ",".join(map(str, data.ctx.y_set))}
    out.update({k: str(v) for k, v in kv.items()})
    return out


def _pair_iter(data: _CtxData, members, rng: random.Random, exhaustive_up_to: int, count: int, arity: int = 2):
    """Every ``arity``-tuple of ``members`` up to ``exhaustive_up_to`` points, else ``count`` seeded draws."""
    elems = members.elements
    if data.ctx.n <= exhaustive_up_to:
        return itertools.product(elems, repeat=arity)
    # choice(s) draws _randbelow(len(s)), as s[randrange(len(s))] does, so the seeded draws are the same
    return zip(*[iter(list(map(rng.choice, repeat(elems, count * arity))))] * arity)


def _member_iter(data: _CtxData, members, rng: random.Random, count: int):
    """Every one of ``members`` up to n = 4, else ``count`` seeded draws."""
    return (f for (f,) in _pair_iter(data, members, rng, 4, count, arity=1))


# --- context-scoped checks ---------------------------------------------------


def _check_count_family(data: _CtxData, rng: random.Random):
    ctx = data.ctx
    n, k = ctx.n, len(ctx.y_set)
    expected = {
        "omegabar": math.factorial(k) * n ** (n - k),
        "sbar": math.factorial(k) * n ** (n - k),
        "tbar": k**k * n ** (n - k),
        "fix": n ** (n - k),
    }
    checked = 0
    sets: dict[str, set[tuple[int, ...]]] = {}
    for family, want in expected.items():
        elems = data.enum(family)
        checked += len(elems)
        if len(elems) != want:
            return checked, _ex(data, family=family, got=len(elems), want=want)
        if list(elems) != sorted(elems, key=lambda f: f.images):
            return checked, _ex(data, family=family, detail="not in lexicographic order")
        sets[family] = {f.images for f in elems}
        if len(sets[family]) != len(elems):
            return checked, _ex(data, family=family, detail="duplicate elements")
    # full completeness oracle: the distinct members are flagged by the definitions, and no other map of X is
    if n**n <= EXHAUSTIVE_MAPS_LIMIT:
        table = data.flag_table
        checked += len(table)
        for family, members in sets.items():
            flagged = itemgetter(_FLAG[family])
            codes = map(sum, map(map, repeat(mul), members, repeat(data._powers)))
            if not all(map(flagged, map(table.__getitem__, codes))) or sum(map(flagged, table)) != len(members):
                return checked, _ex(data, family=family, detail="enumeration misses or adds maps")
    # chain of families as sets
    if not (sets["fix"] <= sets["sbar"] <= sets["omegabar"] <= sets["tbar"]):
        return checked, _ex(data, detail="family chain violated")
    return checked, None


def _check_count_units(data: _CtxData, rng: random.Random):
    ctx = data.ctx
    n, k = ctx.n, len(ctx.y_set)
    us = data.units
    checked = len(us)
    if len(us) != math.factorial(k) * math.factorial(n - k):
        return checked, _ex(data, got=len(us), want=math.factorial(k) * math.factorial(n - k))
    member = {f.images for f in data.enum()}
    unit_images = {u.images for u in us}
    ident = tuple(range(n))
    for u in us:
        ui = u.images
        if ui not in member:
            return checked, _ex(data, unit=u, detail="unit not a member")
        # a two-sided inverse is unique: the points sorted by image, when u is a bijection
        inv = tuple(sorted(range(n), key=ui.__getitem__))
        if inv not in unit_images or product(ui, inv) != ident or product(inv, ui) != ident:
            return checked, _ex(data, unit=u, detail="no two-sided inverse among units")
    if {f.images for f in data.enum() if f.is_bijection()} != unit_images:
        return checked, _ex(data, detail="units differ from bijective members")
    return checked, None


def _check_assoc(data: _CtxData, rng: random.Random):
    checked = 0
    for f, g, h in _pair_iter(data, data.enum(), rng, 3, SAMPLE_TRIPLES, arity=3):
        checked += 1
        if compose(compose(f, g), h).images != compose(f, compose(g, h)).images:
            return checked, _ex(data, f=f, g=g, h=h, detail="associativity broken")
    return checked, None


def _check_closure(data: _CtxData, rng: random.Random):
    checked = 0
    for family in ("tbar", "omegabar", "sbar", "fix"):
        for f, g in _pair_iter(data, data.enum(family), rng, 3, SAMPLE_PAIRS):
            checked += 1
            if not data.flags(product(f.images, g.images))[_FLAG[family]]:
                return checked, _ex(data, family=family, f=f, g=g, detail="product left the family")
    return checked, None


def _check_membership(data: _CtxData, rng: random.Random):
    """``classify`` against the definitional flags, on every map of X or on seeded draws."""
    ctx = data.ctx
    n = ctx.n
    checked = 0
    if n**n <= EXHAUSTIVE_MAPS_LIMIT:
        cases = zip(itertools.product(range(n), repeat=n), data.flag_table)
    else:
        draws = (tuple(rng.randrange(n) for _ in range(n)) for _ in range(20_000))
        cases = ((imgs, _definitional_flags(ctx, imgs)) for imgs in draws)
    for imgs, want in cases:
        f = core._trusted(imgs)  # every entry is drawn from range(n)
        flags = classify(ctx, f)
        checked += 1
        got = (flags.in_tbar, flags.in_omegabar, flags.in_sbar, flags.in_fix, flags.is_unit_of_omegabar)
        if got != want:
            return checked, _ex(data, f=f, got=got, want=want)
        # over a finite Y, injective-on-Y and onto-Y agree inside tbar
        if flags.in_sbar != flags.in_omegabar:
            return checked, _ex(data, f=f, detail="finite coincidence of sbar and omegabar broken")
    return checked, None


def _check_restriction(data: _CtxData, rng: random.Random):
    ctx = data.ctx
    checked = 0
    for f, g in _pair_iter(data, data.enum("tbar"), rng, 3, SAMPLE_PAIRS):
        checked += 1
        lhs = restrict_to_y(ctx, compose(f, g))
        rhs = compose(restrict_to_y(ctx, f), restrict_to_y(ctx, g))
        if lhs.images != rhs.images:
            return checked, _ex(data, f=f, g=g, detail="restriction is not multiplicative")
    for f in data.enum("omegabar"):
        checked += 1
        if not restrict_to_y(ctx, f).is_bijection():
            return checked, _ex(data, f=f, detail="member restricts to a non-bijection")
    ident = identity(len(ctx.y_set)).images
    for f in data.enum("fix"):
        checked += 1
        if restrict_to_y(ctx, f).images != ident:
            return checked, _ex(data, f=f, detail="fixing member does not restrict to identity")
    return checked, None


def _check_transversals(data: _CtxData, rng: random.Random):
    """The unit-regularity certificate is the least transversal of ker(f) containing Y.

    The transversals are found by filtering every subset of X, and the
    pre-inverse witness must send the image of f onto the same transversal.
    """
    ctx = data.ctx
    n = ctx.n
    all_subsets = [
        frozenset(s)
        for r in range(n + 1)
        for s in itertools.combinations(range(n), r)
    ]
    checked = 0
    for f in _member_iter(data, data.enum(), rng, 40):
        blocks = [*map(frozenset, fibers(f).values())]
        want = min(
            (t for t in all_subsets if ctx.y_frozen <= t and all(len(t & b) == 1 for b in blocks)),
            key=lambda t: tuple(sorted(t)),
        )
        rep = is_unit_regular(ctx, f)
        t, p = rep.certifying_transversal, rep.witness_pre_inverse
        checked += 1
        if t != want:
            return checked, _ex(data, f=f, t=sorted(t), detail="certificate is not the least transversal containing Y")
        checked += 1
        if {p.images[v] for v in f.image()} != want:
            return checked, _ex(data, f=f, p=p, detail="pre-inverse does not send Xf onto the certificate")
    return checked, None


def _check_profile_concrete(data: _CtxData, rng: random.Random):
    ctx = data.ctx
    k = len(ctx.y_set)
    checked = 0
    for f in data.enum():
        prof = profile_of(ctx, f)
        checked += 1
        if len(prof.sizes) != k or any(s != 1 for s in prof.sizes) or prof.rest_ones:
            return checked, _ex(data, f=f, profile=prof, detail="member profile must be all ones")
        want = k if k >= 2 else 0
        if n_value(prof, k) != want:
            return checked, _ex(data, f=f, detail="small-fiber count degenerate value wrong")
    return checked, None


def _make_green_check(rel: str):
    def run(data: _CtxData, rng: random.Random):
        ctx = data.ctx
        oracle = data.oracle
        checked = 0
        for f, g in _pair_iter(data, data.enum(), rng, 4, SAMPLE_PAIRS):
            want = oracle.related(rel, f, g)
            got = green_related(ctx, rel, f, g)
            checked += 1
            if want != got:
                return checked, _ex(data, rel=rel, f=f, g=g, char=got, oracle=want)
        return checked, None

    return run


def _check_d_eq_j(data: _CtxData, rng: random.Random):
    """Finite D equals J, on the oracle side; the characterizations share one expression."""
    oracle = data.oracle
    checked = 0
    for f, g in _pair_iter(data, data.enum(), rng, 4, SAMPLE_PAIRS):
        checked += 1
        if oracle.d_related(f, g) != oracle.j_related(f, g):
            return checked, _ex(data, f=f, g=g, detail="finite D and J disagree")
    return checked, None


def _check_d_compositions(data: _CtxData, rng: random.Random):
    """On the oracle side L-then-R and R-then-L agree, and its first middle is the built one."""
    oracle = data.oracle
    checked = 0
    for f, g in _pair_iter(data, data.enum(), rng, 3, SAMPLE_PAIRS // 4):
        middle = oracle.d_middle(f, g)
        # a member w with f R w L g is a member with g L w R f: the R-then-L middle, on class ids
        right_then_left = oracle.d_middle(g, f) is not None
        checked += 1
        if (middle is not None) != right_then_left:
            return checked, _ex(data, f=f, g=g, detail="L-then-R and R-then-L compositions differ")
        built = d_middle_witness(data.ctx, f, g)
        if middle != built:
            return checked, _ex(data, f=f, g=g, m=built, detail="D middle differs from the first one found")
    return checked, None


def _make_witness_check(side: str, build: str, below: str, times):
    """witness.L and witness.R: ``build`` gives w with times(w, g) = f, on image
    tuples, exactly when the oracle's ``below`` holds, and w is the lex-least
    member that does, as ``_least_factor`` finds it.

    ``build`` and ``below`` are names, looked up on each call so that wrappers
    put on this module or on the oracle class see the calls.
    """

    def run(data: _CtxData, rng: random.Random):
        ctx = data.ctx
        oracle = data.oracle
        checked = 0
        for f, g in _pair_iter(data, data.enum(), rng, 3, SAMPLE_WITNESS_PAIRS):
            checked += 1
            w = globals()[build](ctx, f, g)
            if (w is None) != (not getattr(oracle, below)(f, g)):
                return checked, _ex(data, f=f, g=g, detail=f"{side} witness presence vs oracle")
            if w is not None:
                if times(w.images, g.images) != f.images:
                    return checked, _ex(data, f=f, g=g, w=w, detail=f"{side} witness recomposition")
                if w.images != _least_factor(ctx, side, f, g):
                    return checked, _ex(data, f=f, g=g, w=w, detail=f"{side} witness not lex-least")
        return checked, None

    return run


def _check_j_witness(data: _CtxData, rng: random.Random):
    ctx = data.ctx
    oracle = data.oracle
    checked = 0
    for f, g in _pair_iter(data, data.enum(), rng, 3, SAMPLE_WITNESS_PAIRS):
        checked += 1
        pair = j_below_witness(ctx, f, g)
        if (pair is None) != (not oracle.j_below(f, g)):
            return checked, _ex(data, f=f, g=g, detail="J witness presence vs oracle")
        if pair is not None:
            h, h2 = pair
            if compose(h, compose(g, h2)).images != f.images:
                return checked, _ex(data, f=f, g=g, detail="J witness recomposition")
            if not (data.flags(h.images)[_FLAG["omegabar"]] and data.flags(h2.images)[_FLAG["omegabar"]]):
                return checked, _ex(data, f=f, g=g, detail="J witness left the family")
    return checked, None


def _check_reg_char(data: _CtxData, rng: random.Random):
    ctx = data.ctx
    checked = 0
    for f in _member_iter(data, data.enum(), rng, SAMPLE_ELEMENTS):
        checked += 1
        if is_regular(ctx, f) != is_regular_oracle(ctx, f):
            return checked, _ex(data, f=f, detail="regularity characterization vs search")
    return checked, None


def _check_unit_regular(data: _CtxData, rng: random.Random):
    ctx = data.ctx
    checked = 0
    for f in _member_iter(data, data.enum(), rng, 60):
        rep = is_unit_regular(ctx, f)
        checked += 1
        if not (rep.is_regular and rep.is_unit_regular):
            return checked, _ex(data, f=f, detail="finite member not unit-regular")
        u = rep.witness_unit
        if compose(f, compose(u, f)).images != f.images:
            return checked, _ex(data, f=f, u=u, detail="unit witness recomposition")
        if not data.flags(u.images)[_FLAG["unit"]]:
            return checked, _ex(data, f=f, u=u, detail="witness is not a unit")
        p = rep.witness_pre_inverse
        if p is None or compose(f, compose(p, f)).images != f.images:
            return checked, _ex(data, f=f, detail="pre-inverse witness recomposition")
        fi = f.images
        first_u = next((v for v in data.units if product(fi, product(v.images, fi)) == fi), None)
        if u != first_u:
            return checked, _ex(data, f=f, u=u, detail="unit witness is not the first matching unit")
        first_p = next(_pre_inverse_scan(ctx, f, "omegabar"), None)
        if p != first_p:
            return checked, _ex(data, f=f, p=p, detail="pre-inverse is not the first matching member")
    return checked, None


def _check_pre_inverse(data: _CtxData, rng: random.Random):
    ctx = data.ctx
    checked = 0
    for family in ("sbar", "fix"):
        for f in _member_iter(data, data.enum(family), rng, 40):
            for g in pre_inverses(ctx, f, "tbar"):
                checked += 1
                if not data.flags(g.images)[_FLAG[family]]:
                    return checked, _ex(data, f=f, g=g, detail=f"pre-inverse escaped {family}")
    return checked, None


def _check_ideal_down_sets(data: _CtxData, rng: random.Random):
    ctx = data.ctx
    elems = data.enum().elements
    m = len(elems)
    checked = 0
    if ctx.n <= 3:
        subsets = ([elems[i] for i in range(m) if mask >> i & 1] for mask in range(1, 1 << m))
    else:
        # 2^m subsets are too many from n = 4 up; the down-sets of a few small
        # random generating sets are already most of the family
        subsets = (
            [elems[i] for i in sorted(rng.sample(range(m), rng.randrange(1, 3)))] for _ in range(SAMPLE_SUBSETS)
        )
    for subset in subsets:
        down = j_of_f(data.enum(), subset)
        checked += 1
        if not data.ideal_holds(down.members):
            return checked, _ex(data, subset=[str(f) for f in subset], detail="down-set is not an ideal")
        if data.ideal_holds(subset) and down.as_set() != {f.images for f in subset}:
            return checked, _ex(data, subset=[str(f) for f in subset], detail="ideal not equal to its down-set")
    return checked, None


def _check_ideal_enumerate(data: _CtxData, rng: random.Random):
    """The deficit chain is every ideal: the oracle's down-sets of its J-order, as sets of members."""
    ctx = data.ctx
    found = data.ideals
    n, k = ctx.n, len(ctx.y_set)
    checked = len(found)
    if len(found) != n - k + 1:
        return checked, _ex(data, got=len(found), want=n - k + 1, detail="ideal count")
    sets = [i.as_set() for i in found]
    for a, b in zip(sets, sets[1:]):
        if not a <= b:
            return checked, _ex(data, detail="ideals do not form a chain")
    if set(sets) != set(data.oracle.j_down_sets()):
        return checked, _ex(data, detail="ideals differ from the oracle's J down-sets")
    for ideal in found:
        if ctx.n >= 5 and len(ideal.members) > 150:
            # only the two small ideals are checked here, bigger ones at n <= 4;
            # the down-set scan is linear in the family, but lifting this skip
            # would change the checked counts of existing n = 5 reports
            continue
        if j_of_f(data.enum(), ideal.members).as_set() != ideal.as_set():
            return checked, _ex(data, detail="ideal is not its own down-set")
        if not data.ideal_holds(ideal.members):
            return checked, _ex(data, detail="listed ideal fails definitional check")
        checked += 1
    return checked, None


def _check_ideal_thresholds(data: _CtxData, rng: random.Random):
    ctx = data.ctx
    n, k = ctx.n, len(ctx.y_set)
    checked = 0
    images = [f.images for f in data.enum()]
    deficits = [image_deficit(ctx, f) for f in data.enum()]  # once per member, for every t
    for t in range(0, n - k + 1):
        cut = j_st(data.enum(), k, t)
        want = set(itertools.compress(images, map(t.__ge__, deficits)))
        checked += 1
        if cut.as_set() != want or cut.warning is not None:
            return checked, _ex(data, t=t, detail="deficit threshold set wrong")
    full = j_st(data.enum(), k, n - k)
    checked += 1
    if full.as_set() != set(images):
        return checked, _ex(data, detail="full threshold set is not everything")
    if k >= 2:
        empty = j_st(data.enum(), k - 1, n - k)
        checked += 1
        if empty.members or empty.warning is None:
            return checked, _ex(data, detail="degenerate threshold should be empty with warning")
    if n > k:
        mid = j_st(data.enum(), k, 0)
        checked += 1
        if not data.ideal_holds(mid.members):
            return checked, _ex(data, detail="bottom threshold set is not an ideal")
    return checked, None


def _check_kernel(data: _CtxData, rng: random.Random):
    ctx = data.ctx
    bottom = kernel(ctx)
    common = frozenset.intersection(*(ideal.as_set() for ideal in data.ideals))
    checked = 1
    if bottom.as_set() != common:
        return checked, _ex(data, detail="kernel differs from the intersection of all ideals")
    checked += 1
    if not data.ideal_holds(bottom.members):
        return checked, _ex(data, detail="kernel fails the definitional ideal check")
    box = data.eggbox
    bottom_class = box.d_classes[-1]
    members = {
        e.images for row in bottom_class.cells for cell in row for e in cell.elements
    }
    checked += 1
    if members != bottom.as_set():
        return checked, _ex(data, detail="kernel differs from the bottom D-class")
    return checked, None


def _check_eggbox(data: _CtxData, rng: random.Random):
    ctx = data.ctx
    box = data.eggbox
    n, k = ctx.n, len(ctx.y_set)
    checked = 1
    if len(box.d_classes) != n - k + 1:
        return checked, _ex(data, got=len(box.d_classes), want=n - k + 1, detail="D-class count")
    total = sum(grid.size for grid in box.d_classes)
    if total != len(data.enum()):
        return checked, _ex(data, detail="egg-box does not partition the family")
    deficits = [grid.deficit for grid in box.d_classes]
    if deficits != sorted(deficits, reverse=True):
        return checked, _ex(data, detail="D-classes not in descending deficit order")
    top = box.d_classes[0]
    top_members = {e.images for row in top.cells for cell in row for e in cell.elements}
    if top_members != {u.images for u in data.units}:
        return checked, _ex(data, detail="top D-class is not the unit group")
    for grid in box.d_classes:
        cell_sizes = {len(c.elements) for row in grid.cells for c in row}
        checked += 1
        if len(cell_sizes) != 1:
            return checked, _ex(data, deficit=grid.deficit, detail="H-cells in one D-class differ in size")
        for row in grid.cells:
            if not any(c.has_idempotent for c in row):
                return checked, _ex(data, deficit=grid.deficit, detail="an R-row has no idempotent")
        for col in zip(*grid.cells):
            if not any(c.has_idempotent for c in col):
                return checked, _ex(data, deficit=grid.deficit, detail="an L-column has no idempotent")
    want_pairs = {
        (i, j)
        for i in range(len(box.d_classes))
        for j in range(len(box.d_classes))
        if i != j and box.d_classes[i].deficit <= box.d_classes[j].deficit
    }
    checked += 1
    if set(box.j_below_pairs) != want_pairs:
        return checked, _ex(data, detail="order pairs differ from deficit comparisons")
    for grid in box.d_classes:
        cells = [c for row in grid.cells for c in row]
        for _ in range(min(20, len(cells))):
            cell = cells[rng.randrange(len(cells))]
            e = cell.elements[rng.randrange(len(cell.elements))]
            e2 = cell.elements[rng.randrange(len(cell.elements))]
            checked += 1
            if not green_related(ctx, "H", e, e2):
                return checked, _ex(data, f=e, g=e2, detail="cellmates are not H-related")
            if cell.has_idempotent != any(product(x.images, x.images) == x.images for x in cell.elements):
                return checked, _ex(data, f=e, got=cell.has_idempotent, detail="idempotent flag vs squares")
    return checked, None


CTX_CHECKS: list[tuple[str, object]] = [
    ("count.family", _check_count_family),
    ("count.units", _check_count_units),
    ("core.assoc", _check_assoc),
    ("core.closure", _check_closure),
    ("core.membership", _check_membership),
    ("core.restriction", _check_restriction),
    ("core.transversals", _check_transversals),
    ("profile.concrete", _check_profile_concrete),
    ("green.L", _make_green_check("L")),
    ("green.R", _make_green_check("R")),
    ("green.H", _make_green_check("H")),
    ("green.D", _make_green_check("D")),
    ("green.J", _make_green_check("J")),
    ("green.D_eq_J", _check_d_eq_j),
    ("green.D_compositions", _check_d_compositions),
    ("witness.L", _make_witness_check("L", "l_below_witness", "l_below", product)),
    ("witness.R", _make_witness_check("R", "r_below_witness", "r_below", lambda w, g: product(g, w))),
    ("witness.J", _check_j_witness),
    ("reg.char", _check_reg_char),
    ("reg.unit_regular", _check_unit_regular),
    ("reg.pre_inverse", _check_pre_inverse),
    ("ideal.down_sets", _check_ideal_down_sets),
    ("ideal.enumerate", _check_ideal_enumerate),
    ("ideal.thresholds", _check_ideal_thresholds),
    ("ideal.kernel", _check_kernel),
    ("eggbox.grid", _check_eggbox),
]


# --- global checks -----------------------------------------------------------


def _check_extnat_arith(rng: random.Random):
    """The laws the profile calculus relies on, for its number model: ints with OMEGA = math.inf.

    Addition commutes, associates and absorbs OMEGA; the order is total and
    transitive with OMEGA on top.
    """
    vals = [*range(6), OMEGA]
    checked = 0
    for a, b in itertools.product(vals, repeat=2):
        checked += 1
        if a + b != b + a:
            return checked, {"detail": f"addition not commutative at {a},{b}"}
        if (a < b) + (a == b) + (b < a) != 1:
            return checked, {"detail": f"order not trichotomous at {a},{b}"}
        if (a + b == OMEGA) != (a == OMEGA or b == OMEGA):
            return checked, {"detail": f"absorption wrong at {a},{b}"}
    for a, b, c in itertools.product(vals, repeat=3):
        checked += 1
        if (a + b) + c != a + (b + c):
            return checked, {"detail": "addition not associative"}
        if a <= b and b <= c and not a <= c:
            return checked, {"detail": "order not transitive"}
    if sum(vals[1:4]) != 1 + 2 + 3:
        return checked, {"detail": "finite sum wrong"}
    if sum([OMEGA, 2]) != OMEGA:
        return checked, {"detail": "omega sum wrong"}
    return checked, None


def _check_parse_roundtrip(rng: random.Random):
    corpus = ["[0]", "[1 0 0]", "[0 1 2 3]", "[2 2 2]"]
    checked = 0
    for text in corpus:
        f = parse_transformation(text)
        checked += 1
        if str(f) != text:
            return checked, {"detail": f"text round-trip failed on {text}"}
        if transformation_from_json(transformation_to_json(f)).images != f.images:
            return checked, {"detail": f"json round-trip failed on {text}"}
    for bad in ["", "[]", "[a b]", "1 0 0", "[3 0 0]"]:
        checked += 1
        try:
            parse_transformation(bad)
        except ValueError:
            continue
        return checked, {"detail": f"bad literal {bad!r} accepted"}
    for text in ["[1 1]", "[w]", "[w 1 1]", "[w w]+rest1", "[]+rest1", "[2 1]+rest1"]:
        p = parse_profile(text)
        checked += 1
        if str(p) != text:
            return checked, {"detail": f"profile round-trip failed on {text}"}
    for bad in ["", "w 1", "[x]", "[0 1]", "[1]+rest2"]:
        checked += 1
        try:
            parse_profile(bad)
        except ValueError:
            continue
        return checked, {"detail": f"bad profile {bad!r} accepted"}
    return checked, None


def _check_profile_d_fixed(rng: random.Random):
    checked = 0
    pw = parse_profile
    m = d_condition(pw("[2 1 1]"), pw("[1 2 1]"))
    checked += 1
    if m != {0: 1, 1: 0, 2: 2} or not matching_is_valid(pw("[2 1 1]"), pw("[1 2 1]"), m):
        return checked, {"detail": "finite permutation matching wrong"}
    checked += 1
    if d_condition(pw("[w 1 1]"), pw("[w w 1]")) is not None:
        return checked, {"detail": "distinct multisets matched"}
    checked += 1
    if d_condition(pw("[w]+rest1"), pw("[w w]+rest1")) is not None:
        return checked, {"detail": "one and two infinite fibers matched"}
    m = d_condition(pw("[w 1]+rest1"), pw("[w]+rest1"))
    checked += 1
    if m != {0: 0, 1: None} or not matching_is_valid(pw("[w 1]+rest1"), pw("[w]+rest1"), m):
        return checked, {"detail": "rest absorption matching wrong"}
    checked += 1
    try:
        d_condition(pw("[1 1]"), pw("[1 1 1]"))
    except DimensionError:
        pass
    else:
        return checked, {"detail": "length mismatch not rejected"}
    checked += 1
    try:
        d_condition(pw("[1 1]"), pw("[1 1]+rest1"))
    except DimensionError:
        pass
    else:
        return checked, {"detail": "cardinality mismatch not rejected"}
    return checked, None


def _check_profile_j_fixed(rng: random.Random):
    checked = 0
    pw = parse_profile
    cases_present = [
        ("[w 1 1]", "[w w 1]"),
        ("[w w 1]", "[w 1 1]"),
        ("[1 1]", "[1 1]"),
        ("[w]", "[2 2]"),
        ("[2 2]", "[2 1 1]"),
        ("[w]+rest1", "[w w]+rest1"),
        ("[w w]+rest1", "[w]+rest1"),
        ("[w 1]+rest1", "[w]+rest1"),
        ("[w]", "[1 1]+rest1"),
    ]
    for a, b in cases_present:
        p, q = pw(a), pw(b)
        cov = j_condition(p, q)
        checked += 1
        if cov is None or not cover_is_valid(p, q, cov):
            return checked, {"detail": f"packing {b} into {a} should work"}
    cases_absent = [
        ("[2 2]", "[w]"),
        ("[1 1 1]", "[2 1]"),
        ("[2]", "[1 1 1]"),
        ("[2 2]", "[1 1]+rest1"),
        ("[3 1]", "[2 2]"),  # equal totals, still unpackable
    ]
    for a, b in cases_absent:
        checked += 1
        if j_condition(pw(a), pw(b)) is not None:
            return checked, {"detail": f"packing {b} into {a} should fail"}
    checked += 1
    try:
        j_condition(pw("[1 1 1 1 1 1 1 1 1]"), pw("[1]"))
        return checked, {"detail": "budget not enforced"}
    except BudgetError:
        pass
    return checked, None


def _check_profile_separation(rng: random.Random):
    checked = 0
    pw = parse_profile
    pairs = [
        (pw("[w 1 1]"), pw("[w w 1]")),
        (pw("[w]+rest1"), pw("[w w]+rest1")),
        (pw("[w w]+rest1"), pw("[w]+rest1")),
    ]
    for p, q in pairs:
        fwd, bwd = j_condition(p, q), j_condition(q, p)
        checked += 1
        if fwd is None or bwd is None:
            return checked, {"detail": f"{p} and {q} should divide each other"}
        if not (cover_is_valid(p, q, fwd) and cover_is_valid(q, p, bwd)):
            return checked, {"detail": f"invalid cover between {p} and {q}"}
        if d_condition(p, q) is not None:
            return checked, {"detail": f"{p} and {q} should not be in bijection"}
    checked += 1
    if n_value(pw("[w 1 1]"), OMEGA) != 2:
        return checked, {"detail": "two small fibers expected"}
    if n_value(pw("[w]+rest1"), OMEGA) != OMEGA:
        return checked, {"detail": "rest tail should dominate the small-fiber count"}
    if n_value(pw("[w w]"), OMEGA) != 0:
        return checked, {"detail": "no small fibers expected"}
    if n_value(pw("[1 1]"), 2) != 2 or n_value(pw("[1]"), 1) != 0:
        return checked, {"detail": "finite ambient count wrong"}
    return checked, None


GLOBAL_CHECKS: list[tuple[str, object]] = [
    ("extnat.arith", _check_extnat_arith),
    ("parse.roundtrip", _check_parse_roundtrip),
    ("profile.d_fixed", _check_profile_d_fixed),
    ("profile.j_fixed", _check_profile_j_fixed),
    ("profile.separation", _check_profile_separation),
]


# --- runner -------------------------------------------------------------------


def _rng_for(seed: int, label: str, n: int = -1, ys: tuple[int, ...] = ()) -> random.Random:
    key = f"{seed}:{label}:{n}:{','.join(map(str, ys))}"
    return random.Random(key)


def _run_check(fn, args: tuple, where: dict) -> tuple[str, int, dict | None]:
    """One check's (status, checked, counterexample); ``where`` heads an error's counterexample."""
    try:
        checked, ex = fn(*args)
        return ("pass" if ex is None else "fail"), checked, ex
    except BudgetError as e:
        return "resource", 0, {**where, "error": str(e)}
    except Exception as e:  # a crash is a counterexample, not a harness stop
        return "fail", 0, {**where, "error": repr(e)}


def _run_context(args) -> list[tuple[str, str, int, dict | None]]:
    seed, n, ys = args
    _apply_env_mutation()
    data = _CtxData(Context(n, ys))
    where = {"n": n, "y": ",".join(map(str, ys))}
    return [
        (label, *_run_check(fn, (data, _rng_for(seed, label, n, ys)), where))
        for label, fn in CTX_CHECKS
    ]


def pool_size(jobs: int, shards: int) -> int:
    """Worker processes for a run: at most one per shard and per CPU; below 2 the run is serial."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, shards, os.cpu_count() or 1)


def run_verify(cfg: VerifyConfig) -> dict:
    """Run every check and return the report as plain data."""
    if cfg.max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {cfg.max_n}")
    if cfg.max_n > DEFAULT_ENUM_BUDGET or cfg.max_n**cfg.max_n > DEFAULT_ENUM_BUDGET:  # the first test bounds the power
        raise BudgetError(f"max_n={cfg.max_n} exceeds the enumeration budget {DEFAULT_ENUM_BUDGET:,}: "
                          f"tbar over n={cfg.max_n} Y=X has {cfg.max_n}^{cfg.max_n} members")
    _apply_env_mutation()
    ctxs = _contexts(cfg)
    shard_args = [(cfg.seed, n, ys) for n, ys in ctxs]
    procs = pool_size(cfg.jobs, len(shard_args))
    if procs > 1:
        from multiprocessing import get_context  # only a pooled run pays for the import

        with get_context("fork").Pool(processes=procs) as pool:
            shard_rows = pool.map(_run_context, shard_args)
    else:
        shard_rows = [_run_context(a) for a in shard_args]

    results = []
    for idx, (label, _fn) in enumerate(CTX_CHECKS):
        status, checked, ex = "pass", 0, None
        for rows in shard_rows:
            row_label, row_status, row_checked, row_ex = rows[idx]
            assert row_label == label
            checked += row_checked
            if row_status == "fail" and status != "fail":
                status, ex = "fail", row_ex
            elif row_status == "resource" and status == "pass":
                status, ex = "resource", row_ex
        results.append({"label": label, "status": status, "checked": checked, "counterexample": ex})

    for label, fn in GLOBAL_CHECKS:
        status, checked, ex = _run_check(fn, (_rng_for(cfg.seed, label),), {})
        results.append({"label": label, "status": status, "checked": checked, "counterexample": ex})

    summary = {
        "checks": len(results),
        "pass": sum(1 for r in results if r["status"] == "pass"),
        "fail": sum(1 for r in results if r["status"] == "fail"),
        "resource": sum(1 for r in results if r["status"] == "resource"),
    }
    report = {
        "schema": REPORT_SCHEMA,
        "config": {"max_n": cfg.max_n, "sample_n5": cfg.sample_n5, "seed": cfg.seed},
        "contexts": [f"n={n} Y={{{','.join(map(str, ys))}}}" for n, ys in ctxs],
        "results": results,
        "summary": summary,
    }
    if cfg.report_path:
        with open(cfg.report_path, "w") as fh:
            fh.write(render_report_json(report))
    return report


def render_report_json(report: dict) -> str:
    return indented_json(report) + "\n"


def render_report_text(report: dict) -> str:
    lines = [f"schema {report['schema']}  seed {report['config']['seed']}  max_n {report['config']['max_n']}"]
    for row in report["results"]:
        mark = {"pass": "pass", "fail": "FAIL", "resource": "RESOURCE"}[row["status"]]
        line = f"{mark:8s} {row['label']:22s} checked={row['checked']}"
        if row["counterexample"]:
            line += f"  {json.dumps(row['counterexample'])}"
        lines.append(line)
    s = report["summary"]
    lines.append(f"{s['pass']}/{s['checks']} passed, {s['fail']} failed, {s['resource']} hit resource limits")
    return "\n".join(lines) + "\n"


def exit_code_for(report: dict) -> int:
    if report["summary"]["fail"]:
        return 1
    if report["summary"]["resource"]:
        return 3
    return 0
