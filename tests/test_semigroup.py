"""Family enumeration, units, Green's relations, witnesses, egg-box."""

import hashlib
import itertools
import json
import math
import random
import re
from pathlib import Path

import pytest

from invsemi import (
    BudgetError,
    Context,
    DimensionError,
    DomainError,
    Transformation,
    carries_y,
    classify,
    compose,
    core,
    identity,
    is_unit_regular,
    j_below_holds,
    parse_transformation,
    profile_of,
    restrict_to_y,
)
from invsemi.cli import main
from invsemi.core import fibers, product, product_columns
from invsemi.ideals import kernel
from invsemi.regularity import pre_inverses
from invsemi.semigroup import (
    FAMILIES,
    GreenOracle,
    _candidates,
    _cayley_graphs,
    _generate,
    _r_key,
    d_middle_witness,
    d_related,
    eggbox,
    eggbox_dot,
    eggbox_json,
    eggbox_text,
    enumerate_family,
    green_related,
    h_related,
    j_below_witness,
    j_related,
    l_below_witness,
    l_related,
    r_below_witness,
    r_related,
    units,
)

T = parse_transformation
C31 = Context(3, (0, 1))


def test_enum_frozen_list():
    e = enumerate_family(C31, "omegabar")
    assert [str(f) for f in e] == [
        "[0 1 0]",
        "[0 1 1]",
        "[0 1 2]",
        "[1 0 0]",
        "[1 0 1]",
        "[1 0 2]",
    ]


def test_enum_counts_formulas():
    # |family| closed forms, against brute-force filtered enumeration
    for n in (1, 2, 3, 4):
        for r in range(1, n + 1):
            for ys in itertools.combinations(range(n), r):
                ctx = Context(n, ys)
                k = len(ys)
                want = {
                    "omegabar": math.factorial(k) * n ** (n - k),
                    "sbar": math.factorial(k) * n ** (n - k),
                    "tbar": k**k * n ** (n - k),
                    "fix": n ** (n - k),
                }
                for family, count in want.items():
                    assert len(enumerate_family(ctx, family)) == count, (ctx, family)


def test_enum_lex_order_and_closure():
    e = enumerate_family(C31).elements
    assert [f.images for f in e] == sorted(f.images for f in e)
    for f, g in itertools.product(e, repeat=2):
        assert classify(C31, compose(f, g)).in_omegabar


def test_enum_budget():
    # the budget counts members: (7,{0}) has 7^6 = 117,649, past the default 6^6
    with pytest.raises(BudgetError, match=r"omegabar scan over n=7 Y=\{0\} yields up to 117,649 members, past the budget 46,656"):
        enumerate_family(Context(7, (0,)))
    with pytest.raises(BudgetError):
        enumerate_family(Context(7, (0,)), budget=7**6 - 1)
    # explicit budget overrides
    assert len(enumerate_family(Context(7, (0,)), budget=7**6)) == 7**6


def test_budget_is_the_member_count():
    # the count is exact: a budget of the family's size enumerates it, one less refuses
    cases = [(ctx, family) for ctx in _all_contexts(5) for family in FAMILIES]
    cases += [(Context(6, tuple(range(6))), "tbar"), (Context(6, (0,)), "omegabar")]
    for ctx, family in cases:
        size = len(enumerate_family(ctx, family))
        assert len(enumerate_family(ctx, family, budget=size)) == size, (ctx, family)
        with pytest.raises(BudgetError):
            enumerate_family(ctx, family, budget=size - 1)
    for ctx in _all_contexts(5):  # the kernel: every position into Y
        size = len(kernel(ctx))
        assert len(list(_generate(ctx, "omegabar", [ctx.y_set] * ctx.n, budget=size))) == size, ctx
        with pytest.raises(BudgetError):
            _generate(ctx, "omegabar", [ctx.y_set] * ctx.n, budget=size - 1)


def test_enum_bad_family():
    with pytest.raises(ValueError):
        enumerate_family(C31, "nope")
    assert set(FAMILIES) == {"tbar", "omegabar", "sbar", "fix"}


def _filtered(ctx, family, per_pos):
    """The definition over a candidate product: the bijective-on-Y families keep the tuples with Yf = Y."""
    ys, yset = ctx.y_set, ctx.y_frozen
    tuples = itertools.product(*per_pos)
    if family in ("sbar", "omegabar"):
        return [t for t in tuples if set(map(t.__getitem__, ys)) == yset]
    return list(tuples)


def test_direct_generation_matches_filtered_product():
    for ctx in _all_contexts(6):
        for family in FAMILIES:
            want = _filtered(ctx, family, _candidates(ctx, family))
            assert list(_generate(ctx, family, _candidates(ctx, family))) == want, (ctx, family)
        # the kernel: maps into Y, bijective on Y
        assert [f.images for f in kernel(ctx)] == _filtered(ctx, "omegabar", [ctx.y_set] * ctx.n), ctx


def test_direct_generation_on_narrowed_candidates():
    # the candidates _pre_inverse_scan narrows to: position v in Xf keeps the z with z f = v
    rng = random.Random(22)
    for ctx in _all_contexts(5):
        for family in FAMILIES:
            members = enumerate_family(ctx, family).elements
            if ctx.n == 5:
                members = rng.sample(members, min(20, len(members)))
            for f in members:
                per_pos = _candidates(ctx, family)
                for v in set(f.images):
                    per_pos[v] = tuple(z for z in per_pos[v] if f.images[z] == v)
                want = _filtered(ctx, family, per_pos)
                assert list(_generate(ctx, family, per_pos)) == want, (ctx, family, f)
                assert [g.images for g in pre_inverses(ctx, f, family)] == want, (ctx, family, f)


def test_units_frozen():
    assert [str(u) for u in units(C31)] == ["[0 1 2]", "[1 0 2]"]
    assert [str(u) for u in units(Context(1, (0,)))] == ["[0]"]
    assert len(units(Context(3, (0, 1, 2)))) == 6
    # unit count formula |Y|! (n-|Y|)!
    for n in (1, 2, 3, 4):
        for k in range(1, n + 1):
            ctx = Context(n, tuple(range(k)))
            assert len(units(ctx)) == math.factorial(k) * math.factorial(n - k)


def same_as_validated(maps):
    assert all(type(f.images) is tuple for f in maps)
    assert [Transformation(f.images) for f in maps] == maps


def test_trusted_construction_matches_validation_n_le_4():
    # enumerate_family, units and compose build their maps without validating
    # them; each must hold a plain tuple that the checking constructor accepts
    for ctx in _all_contexts(4):
        same_as_validated(list(units(ctx)))
        for family in FAMILIES:
            elems = enumerate_family(ctx, family).elements
            same_as_validated(list(elems))
            same_as_validated([compose(f, g) for f in elems for g in elems])
    with pytest.raises(DimensionError):
        compose(enumerate_family(Context(4, (0,))).elements[0], units(Context(3, (0,)))[0])


def test_witnesses_and_restrictions_built_unchecked_match_validation_n_le_4():
    # the four witness builders, restrict_to_y, identity and is_unit_regular's
    # witnesses wrap their maps unchecked as well
    for ctx in _all_contexts(4):
        elems = enumerate_family(ctx).elements
        built = [identity(ctx.n)]
        for f, g in itertools.product(elems, repeat=2):
            built += filter(None, (l_below_witness(ctx, f, g), r_below_witness(ctx, f, g), d_middle_witness(ctx, f, g)))
            built += j_below_witness(ctx, f, g) or ()
        for f in elems:
            rep = is_unit_regular(ctx, f)
            built += [rep.witness_pre_inverse, rep.witness_unit]
        built += [restrict_to_y(ctx, f) for f in enumerate_family(ctx, "tbar")]
        same_as_validated(built)


def test_each_guard_raises_its_own_error_before_reading_y():
    # with Y = {1, 3}, a map on 3 points is shorter than max(Y) + 1: Y's values
    # read before the length check would raise IndexError instead
    ctx = Context(5, (1, 3))
    good, outsider = identity(5), T("[0 0 0 0 0]")
    two_args = [
        l_related, r_related, h_related, d_related, j_related, j_below_holds,
        l_below_witness, r_below_witness, j_below_witness, d_middle_witness,
        *[lambda c, f, g, rel=rel: green_related(c, rel, f, g) for rel in ("L", "R", "H", "D", "J")],
    ]  # fmt: skip
    for bad in (T("[0 1 2]"), T("[0]"), T("[0 1 2 3]"), T("[0 1 2 3 4 5]")):
        wrong_length = f"^{re.escape(f'map on {bad.n} points in a context with n=5')}$"
        for fn in (carries_y, classify, profile_of):
            with pytest.raises(DimensionError, match=wrong_length):
                fn(ctx, bad)
        for fn, args in itertools.product(two_args, ((bad, good), (good, bad))):
            with pytest.raises(DimensionError, match=wrong_length):
                fn(ctx, *args)
    assert not carries_y(ctx, outsider) and not classify(ctx, outsider).in_omegabar
    with pytest.raises(DomainError, match=re.escape("[0 0 0 0 0] does not carry Y onto Y; profile undefined")):
        profile_of(ctx, outsider)
    outside = f"^{re.escape('[0 0 0 0 0] does not carry Y onto Y in context n=5 Y={1,3}')}$"
    for fn, args in itertools.product(two_args, ((outsider, good), (good, outsider))):
        with pytest.raises(DomainError, match=outside):
            fn(ctx, *args)


def test_units_past_the_cap_refuse_before_the_walk(monkeypatch):
    # 8! = 40,320 permutations fit the cap of 46,656; 9! = 362,880 do not
    assert len(units(Context(8, (0, 1)))) == math.factorial(2) * math.factorial(6)

    def entered(*args):
        raise AssertionError("a permutation was walked past the cap")

    monkeypatch.setattr(itertools, "permutations", entered)
    with pytest.raises(BudgetError, match=r"units over n=9 Y=\{0\}: 362,880 permutations, past the budget 46,656"):
        units(Context(9, (0,)))


def test_units_are_the_bijective_members():
    for u in units(C31):
        fl = classify(C31, u)
        assert fl.is_unit_of_omegabar
    got = {u.images for u in units(C31)}
    want = {f.images for f in enumerate_family(C31) if f.is_bijection()}
    assert got == want


def test_green_frozen_examples():
    assert l_related(C31, T("[0 1 0]"), T("[1 0 0]"))
    assert r_related(C31, T("[0 1 0]"), T("[1 0 1]"))
    assert not d_related(C31, T("[0 1 2]"), T("[0 1 0]"))
    assert h_related(C31, T("[0 1 0]"), T("[0 1 0]"))
    assert j_related(C31, T("[0 1 0]"), T("[1 0 1]"))


def test_green_rejects_nonmember():
    with pytest.raises(DomainError):
        l_related(C31, T("[0 0 2]"), T("[0 1 0]"))


def test_green_related_dispatch():
    for rel in ("L", "R", "H", "D", "J"):
        assert green_related(C31, rel, T("[0 1 0]"), T("[0 1 0]"))
    with pytest.raises(ValueError):
        green_related(C31, "X", T("[0 1 0]"), T("[0 1 0]"))


def test_characterizations_match_oracle_exhaustive_n3():
    for ys in ((0,), (0, 1), (0, 1, 2)):
        ctx = Context(3, ys)
        oracle = GreenOracle(enumerate_family(ctx))
        elems = oracle.elements
        for f, g in itertools.product(elems, repeat=2):
            for rel in ("L", "R", "H", "D", "J"):
                assert green_related(ctx, rel, f, g) == oracle.related(rel, f, g)


def test_h_is_l_and_r():
    elems = enumerate_family(C31).elements
    for f, g in itertools.product(elems, repeat=2):
        assert h_related(C31, f, g) == (l_related(C31, f, g) and r_related(C31, f, g))


def test_equivalence_properties():
    elems = enumerate_family(C31).elements
    for rel in ("L", "R", "H", "D", "J"):
        for f in elems:
            assert green_related(C31, rel, f, f)
        for f, g in itertools.product(elems, repeat=2):
            assert green_related(C31, rel, f, g) == green_related(C31, rel, g, f)


def test_restriction_preserves_relations():
    # related members restrict to related permutations of Y; at finite n the
    # restrictions land in the symmetric group where everything is related,
    # so the implication is asserted literally
    from invsemi import restrict_to_y

    elems = enumerate_family(C31).elements
    oy = Context(2, (0, 1))
    for f, g in itertools.product(elems, repeat=2):
        for rel in ("L", "R", "D"):
            if green_related(C31, rel, f, g):
                assert green_related(oy, rel, restrict_to_y(C31, f), restrict_to_y(C31, g))


def test_l_below_witness_frozen():
    w = l_below_witness(C31, T("[0 1 0]"), T("[1 0 0]"))
    assert str(w) == "[1 0 1]"
    assert compose(w, T("[1 0 0]")).images == (0, 1, 0)
    # f = g admits the identity factor
    w = l_below_witness(C31, T("[0 1 0]"), T("[0 1 0]"))
    assert compose(w, T("[0 1 0]")).images == (0, 1, 0)
    # image condition fails: a unit is never below a deficient map
    assert l_below_witness(C31, T("[0 1 2]"), T("[0 1 0]")) is None


def test_r_below_witness_frozen():
    w = r_below_witness(C31, T("[0 1 0]"), T("[1 0 1]"))
    assert str(w) == "[1 0 0]"
    assert compose(T("[1 0 1]"), w).images == (0, 1, 0)
    # everything is below a unit on the right
    w = r_below_witness(C31, T("[0 1 0]"), T("[0 1 2]"))
    assert str(w) == "[0 1 0]"
    assert r_below_witness(C31, T("[0 1 0]"), T("[0 1 0]")) is not None


def test_j_below_witness_frozen():
    pair = j_below_witness(C31, T("[0 1 0]"), T("[1 0 0]"))
    assert pair is not None
    h, h2 = pair
    assert (str(h), str(h2)) == ("[1 0 1]", "[0 1 0]")
    assert compose(h, compose(T("[1 0 0]"), h2)).images == (0, 1, 0)
    # reflexive case gives the identity pair
    pair = j_below_witness(C31, T("[0 1 0]"), T("[0 1 0]"))
    assert pair == (identity(3), identity(3))
    # deficit condition fails
    assert j_below_witness(C31, T("[0 1 2]"), T("[0 1 0]")) is None


def _witness_digests(ctx):
    """SHA-256 of ``units`` and, for n <= 4, of ``j_below_witness`` on every ordered pair of members."""
    row = {"units": hashlib.sha256(" ".join(map(str, units(ctx))).encode()).hexdigest()}
    if ctx.n <= 4:
        elems = enumerate_family(ctx).elements
        digest = hashlib.sha256()
        for f, g in itertools.product(elems, repeat=2):
            pair = j_below_witness(ctx, f, g)
            digest.update(f"{f} {g} {'-' if pair is None else ' '.join(map(str, pair))}\n".encode())
        row["j_below_witness"] = digest.hexdigest()
    return row


def test_witness_outputs_match_recorded_digests():
    # recorded before the J witness was built straight from g's Y-preimages
    # and the units from the permutations of X
    recorded = json.loads((Path(__file__).parent / "data" / "witness_sha256.json").read_text())
    assert len(recorded) == sum(2**n - 1 for n in range(1, 7))  # every nonempty Y over n = 1..6
    for row in recorded:
        ctx = Context(row["n"], tuple(row["y"]))
        assert {"n": ctx.n, "y": list(ctx.y_set), **_witness_digests(ctx)} == row


def test_witnesses_lex_least():
    elems = enumerate_family(C31).elements
    for f, g in itertools.product(elems, repeat=2):
        w = l_below_witness(C31, f, g)
        first = next((h for h in elems if compose(h, g).images == f.images), None)
        assert (w.images if w else None) == (first.images if first else None)
        w = r_below_witness(C31, f, g)
        first = next((h for h in elems if compose(g, h).images == f.images), None)
        assert (w.images if w else None) == (first.images if first else None)


def test_d_middle_witness_is_first_oracle_middle():
    # every pair over every Y up to n = 3: the built middle is the first
    # one the definitional search finds, and exists exactly when it does
    for n in (1, 2, 3):
        for r in range(1, n + 1):
            for ys in itertools.combinations(range(n), r):
                ctx = Context(n, ys)
                oracle = GreenOracle(enumerate_family(ctx))
                elems = oracle.elements
                for f, g in itertools.product(elems, repeat=2):
                    assert d_middle_witness(ctx, f, g) == oracle.d_middle(f, g), (ctx, f, g)


def test_witness_membership():
    elems = enumerate_family(C31).elements
    for f, g in itertools.product(elems, repeat=2):
        pair = j_below_witness(C31, f, g)
        if pair is not None:
            h, h2 = pair
            assert classify(C31, h).in_omegabar
            assert classify(C31, h2).in_omegabar
            assert compose(h, compose(g, h2)).images == f.images


def test_oracle_takes_the_enumeration_budget_n7():
    # the enumeration's member count is the only cap: (7,{0..4}) has 5! 7^2 = 5,880 members, within it
    ctx = Context(7, (0, 1, 2, 3, 4))
    oracle = GreenOracle(enumerate_family(ctx))
    elems = oracle.elements
    assert len(elems) == math.factorial(5) * 7**2
    rng = random.Random(7)
    for _ in range(50):
        f, g = rng.choice(elems), rng.choice(elems)
        for rel, h in itertools.product(("L", "R", "H", "D", "J"), (f, g)):
            assert oracle.related(rel, f, h) == green_related(ctx, rel, f, h), (rel, f, h)


def test_characterizations_match_oracle_sampled_n6():
    ctx = Context(6, (0, 1, 2))
    oracle = GreenOracle(enumerate_family(ctx))
    elems = oracle.elements
    rng = random.Random(6)
    for _ in range(2000):
        f, g = rng.choice(elems), rng.choice(elems)
        for rel in ("L", "R", "H", "D", "J"):
            assert green_related(ctx, rel, f, g) == oracle.related(rel, f, g), (rel, f, g)


class _TableOracle:
    """Reference: the oracle as m^2 product tables, one index set per member and side."""

    def __init__(self, ctx):
        self.elements = enumerate_family(ctx).elements
        tuples = [f.images for f in self.elements]
        self._index = index = {t: i for i, t in enumerate(tuples)}
        self._right = [frozenset(index[compose(g, h).images] for h in self.elements) for g in self.elements]
        self._left = [frozenset(index[compose(h, g).images] for h in self.elements) for g in self.elements]

    def l_below(self, f, g):
        return self._index[f.images] in self._left[self._index[g.images]]

    def r_below(self, f, g):
        return self._index[f.images] in self._right[self._index[g.images]]

    def j_below(self, f, g):
        fi = self._index[f.images]
        return any(fi in self._right[c] for c in self._left[self._index[g.images]])

    def l_related(self, f, g):
        return self.l_below(f, g) and self.l_below(g, f)

    def r_related(self, f, g):
        return self.r_below(f, g) and self.r_below(g, f)

    def h_related(self, f, g):
        return self.l_related(f, g) and self.r_related(f, g)

    def d_middle(self, f, g):
        left, right = self._left, self._right
        fi, gi = self._index[f.images], self._index[g.images]
        for w in range(len(self.elements)):
            if fi in left[w] and w in left[fi] and w in right[gi] and gi in right[w]:
                return self.elements[w]
        return None

    def d_related(self, f, g):
        return self.d_middle(f, g) is not None

    def j_related(self, f, g):
        return self.j_below(f, g) and self.j_below(g, f)


def _all_contexts(max_n):
    for n in range(1, max_n + 1):
        for r in range(1, n + 1):
            for ys in itertools.combinations(range(n), r):
                yield Context(n, ys)


def _closure(gens):
    """Every product of ``gens``, by compose: the member set they generate."""
    closure = {g.images for g in gens}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for a in gens:
            y = compose(Transformation(x), a).images
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return closure


def test_cayley_oracle_matches_table_oracle():
    # every pair in every context with n <= 4, and at (5,{0,1}): 8 queries,
    # `related` for each relation, and the first middle; then fresh oracles
    # whose first question is each relation, the middle or the generators,
    # since each builds only what its first question needs.  Both product
    # orders: the table multiplies by compose, which honours flip-compose.
    methods = ("l_below", "r_below", "j_below", "l_related", "r_related", "h_related", "d_related", "j_related")
    for mutation in (None, "flip-compose"):
        core._set_mutation(mutation)
        try:
            for ctx in [*_all_contexts(4), Context(5, (0, 1))]:
                members = enumerate_family(ctx)
                oracle, table = GreenOracle(members), _TableOracle(ctx)
                assert oracle.elements == table.elements
                for f, g in itertools.product(table.elements, repeat=2):
                    for name in methods:
                        assert getattr(oracle, name)(f, g) == getattr(table, name)(f, g), (mutation, ctx, name, f, g)
                    for rel in ("L", "R", "H", "D", "J"):
                        want = getattr(table, f"{rel.lower()}_related")(f, g)
                        assert oracle.related(rel, f, g) == want, (mutation, ctx, rel, f, g)
                    assert oracle.d_middle(f, g) == table.d_middle(f, g), (mutation, ctx, f, g)
                elems = table.elements
                for f, g in ((elems[0], elems[0]), (elems[-1], elems[0]), (elems[len(elems) // 3], elems[-1])):
                    for rel in ("L", "R", "H", "D", "J"):
                        want = getattr(table, f"{rel.lower()}_related")(f, g)
                        assert GreenOracle(members).related(rel, f, g) == want, (mutation, ctx, rel, f, g)
                    assert GreenOracle(members).d_middle(f, g) == table.d_middle(f, g), (mutation, ctx, f, g)
                gens = GreenOracle(members).generators
                assert gens == oracle.generators, (mutation, ctx)
                assert _closure(gens) == {f.images for f in elems}, (mutation, ctx)
        finally:
            core._set_mutation(None)


def test_cayley_left_graph_equals_multiplied_one_n_le_5():
    # each side's walk, run alone: the same generators, and every row as
    # multiplied out by product, in the same order, in both product orders
    for mutation in (None, "flip-compose"):
        core._set_mutation(mutation)
        try:
            for ctx in _all_contexts(5):
                tuples = [f.images for f in enumerate_family(ctx).elements]
                index = {t: i for i, t in enumerate(tuples)}
                column, sizes = product_columns(tuples), [len(set(t)) for t in tuples]
                gens, left = _cayley_graphs(column, sizes, True)
                assert left == [tuple(index[product(tuples[a], x)] for a in gens) for x in tuples], (mutation, ctx)
                right_gens, right = _cayley_graphs(column, sizes, False)
                assert right_gens == gens, (mutation, ctx)
                assert right == [tuple(index[product(x, tuples[a])] for a in gens) for x in tuples], (mutation, ctx)
        finally:
            core._set_mutation(None)


def test_product_columns_equal_product_n_le_4():
    # every ordered pair of members of every context, both orientations, both product orders
    for mutation in (None, "flip-compose"):
        core._set_mutation(mutation)
        try:
            for ctx in _all_contexts(4):
                tuples = [f.images for f in enumerate_family(ctx).elements]
                column = product_columns(tuples)
                for a, t in enumerate(tuples):
                    assert [tuples[i] for i in column(a)] == [product(x, t) for x in tuples], (mutation, ctx, t)
                    assert [tuples[i] for i in column(a, True)] == [product(t, x) for x in tuples], (mutation, ctx, t)
        finally:
            core._set_mutation(None)


def test_oracle_builds_each_side_on_first_need():
    ctx = Context(4, (0,))
    f, g = T("[0 1 1 3]"), T("[0 2 2 1]")
    oracle = GreenOracle(enumerate_family(ctx))
    assert oracle.l_related(f, g) is False
    assert oracle._left is not None and oracle._right is None
    oracle = GreenOracle(enumerate_family(ctx))
    assert oracle.r_related(f, g) is True
    assert oracle._right is not None and oracle._left is None
    # components alone for the related-queries; reach only once a below-query asks
    assert oracle.j_related(f, g) is True
    assert oracle._reaches == [None, None, None]
    assert oracle._column is None  # both sides exist, so the product columns are released
    assert oracle.j_below(f, g) is True
    assert oracle._reaches[2] is not None


def test_oracle_generators_do_not_depend_on_the_first_side():
    for ctx in _all_contexts(4):
        e, members = identity(ctx.n), enumerate_family(ctx)
        left_first, right_first = GreenOracle(members), GreenOracle(members)
        left_first.l_related(e, e)
        right_first.r_related(e, e)
        assert left_first.generators == right_first.generators, ctx
        assert right_first._left is None  # the generators need no second side


def test_j_down_sets_are_the_table_oracles_n_le_4():
    for ctx in _all_contexts(4):
        table = _TableOracle(ctx)
        elems = table.elements
        principal = {frozenset(f.images for f in elems if table.j_below(f, g)) for g in elems}
        down_sets, todo = set(principal), list(principal)
        while todo:
            for grown in {todo.pop() | p for p in principal} - down_sets:
                down_sets.add(grown)
                todo.append(grown)
        got = GreenOracle(enumerate_family(ctx)).j_down_sets()
        assert len(got) == len(down_sets) and set(got) == down_sets, ctx


def test_oracle_generators_close_to_the_family_n_le_5():
    for ctx in _all_contexts(5):
        members = enumerate_family(ctx)
        assert _closure(GreenOracle(members).generators) == {f.images for f in members}, ctx


def test_oracle_reads_any_family_n_le_3():
    # every family is a monoid: the generators close to it, and below is divisibility by a member
    for ctx in _all_contexts(3):
        for family in FAMILIES:
            members = enumerate_family(ctx, family)
            oracle = GreenOracle(members)
            assert _closure(oracle.generators) == {f.images for f in members}, (ctx, family)
            for f, g in itertools.product(members, repeat=2):
                left = any(compose(h, g).images == f.images for h in members)
                right = any(compose(g, h).images == f.images for h in members)
                assert (oracle.l_below(f, g), oracle.r_below(f, g)) == (left, right), (ctx, family, f, g)


def test_oracle_rejects_product_outside_family(monkeypatch):
    import invsemi.semigroup as semigroup

    def constant_columns(members):
        def column(a, left=False):  # as product_columns reports a product that is not a member
            raise KeyError((0,) * len(members[a]))  # [0 0 0] does not fix Y = {1}

        return column

    monkeypatch.setattr(semigroup, "product_columns", constant_columns)
    with pytest.raises(RuntimeError, match="leaves the family"):
        GreenOracle(enumerate_family(Context(3, (1,)))).l_below(T("[0 1 2]"), T("[0 1 2]"))


def test_product_columns_report_a_product_outside_the_members():
    column = product_columns([(0, 1, 2), (1, 2, 0)])  # not closed: (1 2 0) squared is (2 0 1)
    for left in (False, True):
        with pytest.raises(KeyError) as caught:
            column(1, left)
        assert caught.value.args[0] == (2, 0, 1)


def test_eggbox_structure_frozen():
    box = eggbox(enumerate_family(C31))
    assert len(box.d_classes) == 2
    top, bottom = box.d_classes
    assert (top.deficit, len(top.cells), len(top.cells[0])) == (1, 1, 1)
    assert len(top.cells[0][0].elements) == 2
    assert top.cells[0][0].has_idempotent
    assert (bottom.deficit, len(bottom.cells), len(bottom.cells[0])) == (0, 2, 1)
    assert all(len(c.elements) == 2 and c.has_idempotent for row in bottom.cells for c in row)


def test_eggbox_small_cases():
    box = eggbox(enumerate_family(Context(1, (0,))))
    assert len(box.d_classes) == 1
    assert box.d_classes[0].size == 1
    # Y = X gives the symmetric group: one D-class, one cell
    box = eggbox(enumerate_family(Context(2, (0, 1))))
    assert len(box.d_classes) == 1
    assert box.d_classes[0].size == 2
    assert len(box.d_classes[0].cells) == 1


def test_eggbox_partitions_family():
    for ys in ((0,), (0, 1), (0, 1, 2)):
        ctx = Context(3, ys)
        box = eggbox(enumerate_family(ctx))
        total = sum(grid.size for grid in box.d_classes)
        assert total == len(enumerate_family(ctx))
        deficits = [grid.deficit for grid in box.d_classes]
        assert deficits == sorted(deficits, reverse=True)


def test_r_key_partition_is_oracle_r_classes_n_le_5():
    # on every member of every context, equal kernel keys exactly when the
    # oracle puts the two in one component of the right Cayley graph
    for n in range(1, 6):
        for r in range(1, n + 1):
            for ys in itertools.combinations(range(n), r):
                ctx = Context(n, ys)
                oracle = GreenOracle(enumerate_family(ctx))
                keys = [_r_key(f) for f in oracle.elements]
                comps = oracle._graph(1)
                assert len(set(keys)) == len(set(comps)) == len(set(zip(keys, comps))), ctx
    # any map has a key, member or not: the least point of each point's fiber
    for n in range(1, 5):
        for imgs in itertools.product(range(n), repeat=n):
            f = Transformation(imgs)
            assert _r_key(f) == tuple(fibers(f)[v][0] for v in imgs)


def test_eggbox_outputs_match_recorded_digests(capsys):
    # SHA-256 of the text, JSON and DOT forms for every context with n <= 5,
    # and n = 6 with |Y| <= 2, recorded from the per-row, per-column layout
    # that the one-pass grouping replaced; the JSON digest also pins the CLI's
    # own printing path, whose stdout is that text and a newline
    recorded = json.loads((Path(__file__).parent / "data" / "eggbox_sha256.json").read_text())
    assert len(recorded) == 57 + 21  # 2^n - 1 subsets Y for n = 1..5, then 6 + 15 at n = 6
    for row in recorded:
        box = eggbox(enumerate_family(Context(row["n"], tuple(row["y"]))))
        assert main(["eggbox", "--n", str(row["n"]), "--y", ",".join(map(str, row["y"])), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("}\n")
        got = {
            "text": eggbox_text(box),
            "json": json.dumps(eggbox_json(box), indent=2),
            "dot": eggbox_dot(box),
            "cli json": out[:-1],
        }
        for form, text in got.items():
            want = row[form.removeprefix("cli ")]
            assert hashlib.sha256(text.encode()).hexdigest() == want, (row["n"], row["y"], form)


def test_idempotent_cells_are_groups():
    # an H-cell holding an idempotent is closed under composition
    for ys in ((0,), (0, 1)):
        ctx = Context(3, ys)
        for grid in eggbox(enumerate_family(ctx)).d_classes:
            for row in grid.cells:
                for cell in row:
                    if not cell.has_idempotent:
                        continue
                    have = {e.images for e in cell.elements}
                    for a, b in itertools.product(cell.elements, repeat=2):
                        assert compose(a, b).images in have


def test_idempotent_flags_match_squares():
    # the flag is read off kernel and image; here it is decided by squaring every member
    for ctx in _all_contexts(4):
        for grid in eggbox(enumerate_family(ctx)).d_classes:
            for row in grid.cells:
                for cell in row:
                    squares = any(product(e.images, e.images) == e.images for e in cell.elements)
                    assert cell.has_idempotent == squares, (ctx, cell)


def test_eggbox_text_and_dot():
    box = eggbox(enumerate_family(C31))
    text = eggbox_text(box)
    assert "D-class 0: image-deficit=1 size=2 grid=1x1" in text
    assert "D-class 1: image-deficit=0 size=4 grid=2x1" in text
    assert "order: D1<=D0" in text
    dot = eggbox_dot(box)
    assert dot.count("subgraph cluster") == 2
    assert dot.startswith("digraph")
