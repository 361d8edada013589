"""Family enumeration, units, Green's relations, witnesses, egg-box."""

import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import pytest

from invsemi import (
    BudgetError,
    Context,
    DimensionError,
    DomainError,
    Transformation,
    classify,
    compose,
    core,
    identity,
    parse_transformation,
)
from invsemi.cli import main
from invsemi.core import fibers, product, product_columns
from invsemi.semigroup import (
    FAMILIES,
    GreenOracle,
    _cayley_graphs,
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
    with pytest.raises(BudgetError):
        enumerate_family(Context(7, (0,)), budget=6)
    # explicit budget overrides
    assert len(enumerate_family(Context(7, (0,)), budget=7)) == 7**6


def test_enum_bad_family():
    with pytest.raises(ValueError):
        enumerate_family(C31, "nope")
    assert set(FAMILIES) == {"tbar", "omegabar", "sbar", "fix"}


def test_units_frozen():
    assert [str(u) for u in units(C31)] == ["[0 1 2]", "[1 0 2]"]
    assert [str(u) for u in units(Context(1, (0,)))] == ["[0]"]
    assert len(units(Context(3, (0, 1, 2)))) == 6
    # unit count formula |Y|! (n-|Y|)!
    for n in (1, 2, 3, 4):
        for k in range(1, n + 1):
            ctx = Context(n, tuple(range(k)))
            assert len(units(ctx)) == math.factorial(k) * math.factorial(n - k)


def test_trusted_construction_matches_validation_n_le_4():
    # enumerate_family, units and compose build their maps without validating
    # them; each must hold a plain tuple that the checking constructor accepts
    def same_as_validated(maps):
        assert all(type(f.images) is tuple for f in maps)
        assert [Transformation(f.images) for f in maps] == maps

    for ctx in _all_contexts(4):
        same_as_validated(list(units(ctx)))
        for family in FAMILIES:
            elems = enumerate_family(ctx, family).elements
            same_as_validated(list(elems))
            same_as_validated([compose(f, g) for f in elems for g in elems])
    with pytest.raises(DimensionError):
        compose(enumerate_family(Context(4, (0,))).elements[0], units(Context(3, (0,)))[0])


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
        oracle = GreenOracle(ctx)
        elems = enumerate_family(ctx).elements
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
                oracle = GreenOracle(ctx)
                elems = enumerate_family(ctx).elements
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


def test_oracle_budget():
    with pytest.raises(BudgetError):
        GreenOracle(Context(6, (0,)), budget=5)
    with pytest.raises(BudgetError):
        GreenOracle(Context(7, (0,)))


def test_characterizations_match_oracle_sampled_n6():
    ctx = Context(6, (0, 1, 2))
    oracle = GreenOracle(ctx)
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
                oracle, table = GreenOracle(ctx), _TableOracle(ctx)
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
                        assert GreenOracle(ctx).related(rel, f, g) == want, (mutation, ctx, rel, f, g)
                    assert GreenOracle(ctx).d_middle(f, g) == table.d_middle(f, g), (mutation, ctx, f, g)
                gens = GreenOracle(ctx).generators
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
    oracle = GreenOracle(ctx)
    assert oracle.l_related(f, g) is False
    assert oracle._left is not None and oracle._right is None
    oracle = GreenOracle(ctx)
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
        e = identity(ctx.n)
        left_first, right_first = GreenOracle(ctx), GreenOracle(ctx)
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
        got = GreenOracle(ctx).j_down_sets()
        assert len(got) == len(down_sets) and set(got) == down_sets, ctx


def test_oracle_generators_close_to_the_family_n_le_5():
    for ctx in _all_contexts(5):
        assert _closure(GreenOracle(ctx).generators) == enumerate_family(ctx).as_set(), ctx


def test_oracle_rejects_product_outside_family(monkeypatch):
    import invsemi.semigroup as semigroup

    def constant_columns(members):
        def column(a, left=False):  # as product_columns reports a product that is not a member
            raise KeyError((0,) * len(members[a]))  # [0 0 0] does not fix Y = {1}

        return column

    monkeypatch.setattr(semigroup, "product_columns", constant_columns)
    with pytest.raises(RuntimeError, match="leaves the family"):
        GreenOracle(Context(3, (1,))).l_below(T("[0 1 2]"), T("[0 1 2]"))


def test_product_columns_report_a_product_outside_the_members():
    column = product_columns([(0, 1, 2), (1, 2, 0)])  # not closed: (1 2 0) squared is (2 0 1)
    for left in (False, True):
        with pytest.raises(KeyError) as caught:
            column(1, left)
        assert caught.value.args[0] == (2, 0, 1)


def test_eggbox_structure_frozen():
    box = eggbox(C31)
    assert len(box.d_classes) == 2
    top, bottom = box.d_classes
    assert (top.deficit, len(top.cells), len(top.cells[0])) == (1, 1, 1)
    assert len(top.cells[0][0].elements) == 2
    assert top.cells[0][0].has_idempotent
    assert (bottom.deficit, len(bottom.cells), len(bottom.cells[0])) == (0, 2, 1)
    assert all(len(c.elements) == 2 and c.has_idempotent for row in bottom.cells for c in row)


def test_eggbox_small_cases():
    box = eggbox(Context(1, (0,)))
    assert len(box.d_classes) == 1
    assert box.d_classes[0].size == 1
    # Y = X gives the symmetric group: one D-class, one cell
    box = eggbox(Context(2, (0, 1)))
    assert len(box.d_classes) == 1
    assert box.d_classes[0].size == 2
    assert len(box.d_classes[0].cells) == 1


def test_eggbox_partitions_family():
    for ys in ((0,), (0, 1), (0, 1, 2)):
        ctx = Context(3, ys)
        box = eggbox(ctx)
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
                oracle = GreenOracle(ctx)
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
        box = eggbox(Context(row["n"], tuple(row["y"])))
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
        for grid in eggbox(ctx).d_classes:
            for row in grid.cells:
                for cell in row:
                    if not cell.has_idempotent:
                        continue
                    have = {e.images for e in cell.elements}
                    for a, b in itertools.product(cell.elements, repeat=2):
                        assert compose(a, b).images in have


def test_eggbox_text_and_dot():
    box = eggbox(C31)
    text = eggbox_text(box)
    assert "D-class 0: image-deficit=1 size=2 grid=1x1" in text
    assert "D-class 1: image-deficit=0 size=4 grid=2x1" in text
    assert "order: D1<=D0" in text
    dot = eggbox_dot(box)
    assert dot.count("subgraph cluster") == 2
    assert dot.startswith("digraph")
