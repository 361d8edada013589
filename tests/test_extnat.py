"""Extended naturals with one infinity, fiber profiles, and the symbolic
packing conditions that decide D and J at the profile level."""

import itertools
import json
import math
import pathlib
import time

import pytest

from invsemi import (
    OMEGA,
    BudgetError,
    Context,
    DimensionError,
    DomainError,
    FiberProfile,
    IndexedCover,
    Transformation,
    as_extnat,
    cover_is_valid,
    d_condition,
    format_profile,
    j_condition,
    matching_is_valid,
    n_value,
    parse_profile,
    profile_of,
)

P = parse_profile


def _one_fiber(size):
    return FiberProfile(sizes=(size,))


@pytest.mark.parametrize(
    "call, x, error",
    [(as_extnat, x, None) for x in (0, 7, OMEGA)]
    + [(as_extnat, x, DomainError) for x in (True, -1, 2.0, float("nan"), -math.inf, "w", None)]
    + [(_one_fiber, s, DomainError) for s in (0, 2.0, True)]
    + [(parse_profile, text, ValueError) for text in ("[-1]", "[1.5]")],
)
def test_extended_natural_boundary(call, x, error):
    # an extended natural is a nonnegative int (not a bool) or OMEGA; the
    # entry points return it as given and refuse everything else
    if error is None:
        assert call(x) is x
    else:
        with pytest.raises(error):
            call(x)


def test_profile_validation():
    P("[1 1]")
    with pytest.raises(ValueError):
        FiberProfile(sizes=(0,), rest_ones=False)  # fibers are nonempty


def test_profile_parse_format_roundtrip():
    for text in ("[1]", "[w 1 1]", "[w w]+rest1", "[2 1]"):
        assert format_profile(P(text)) == text
    with pytest.raises(ValueError):
        P("[x]")
    with pytest.raises(ValueError):
        P("")


def test_d_condition_absent_on_separating_pair():
    # one big fiber against two big fibers: no size-preserving bijection
    assert d_condition(P("[w 1 1]"), P("[w w 1]")) is None
    assert d_condition(P("[w w 1]"), P("[w 1 1]")) is None


def test_d_condition_identity_and_transposition():
    assert d_condition(P("[1 1]"), P("[1 1]")) == {0: 0, 1: 1}
    m = d_condition(P("[2 1 1]"), P("[1 2 1]"))
    assert m == {0: 1, 1: 0, 2: 2}
    assert matching_is_valid(P("[2 1 1]"), P("[1 2 1]"), m)


def test_d_condition_cardinality_mismatch():
    with pytest.raises(DimensionError):
        d_condition(P("[1 1]"), P("[1 1 1]"))
    with pytest.raises(DimensionError):
        d_condition(P("[1 1]"), P("[1 1]+rest1"))


def test_d_condition_rest_tail():
    # the infinite tails of size-1 fibers absorb each other one-to-one
    m = d_condition(P("[w 1]+rest1"), P("[1 w]+rest1"))
    assert m == {0: 1, 1: 0}
    assert d_condition(P("[w w]+rest1"), P("[w]+rest1")) is None


def test_j_condition_reflexive_singletons():
    cov = j_condition(P("[1 1]"), P("[1 1]"))
    assert cov is not None
    assert cov.blocks == (frozenset({0}), frozenset({1}))
    assert cover_is_valid(P("[1 1]"), P("[1 1]"), cov)


def test_j_condition_present_both_ways_on_separating_pair():
    p, q = P("[w 1 1]"), P("[w w 1]")
    for a, b in ((p, q), (q, p)):
        cov = j_condition(a, b)
        assert cov is not None
        assert cover_is_valid(a, b, cov)


def test_j_condition_absent():
    # some block would have to sum to 2 against capacity 1
    assert j_condition(P("[1 1 1]"), P("[2 1]")) is None
    # equal totals, still unpackable
    assert j_condition(P("[3 1]"), P("[2 2]")) is None


def test_j_condition_greedy_equal_totals():
    cov = j_condition(P("[2 2]"), P("[2 1 1]"))
    assert cov is not None
    assert cover_is_valid(P("[2 2]"), P("[2 1 1]"), cov)
    # exactly tight and all finite, yet still the first cover in index order
    cov = j_condition(P("[2 2]"), P("[1 1 2]"))
    assert [sorted(b) for b in cov.blocks] == [[0, 1], [2]]


def test_j_condition_rest_routing():
    p, q = P("[w]+rest1"), P("[w w]+rest1")
    cov = j_condition(p, q)
    assert cov is not None and cov.rest_to_rest
    assert cover_is_valid(p, q, cov)
    # no rest on p: q's tail must land inside an omega entry
    p2 = P("[w]")
    cov2 = j_condition(p2, P("[w]+rest1"))
    assert cov2 is not None and cov2.rest_to_block == 0
    assert cover_is_valid(p2, P("[w]+rest1"), cov2)
    # nothing can absorb an infinite tail of ones
    assert j_condition(P("[1 1]"), P("[1]+rest1")) is None


def _cover(blocks, to_rest=(), rest_to_rest=False, rest_to_block=None):
    return IndexedCover(tuple(map(frozenset, blocks)), frozenset(to_rest), rest_to_rest, rest_to_block)


@pytest.mark.parametrize(
    "p, q, cover",
    [
        ("[1 1]", "[1 1]", _cover([[0, 1]])),  # one block for two bins
        ("[2]", "[1 1]", _cover([[0]])),  # index 1 placed nowhere
        ("[2]", "[1 1]", _cover([[0]], to_rest=[1])),  # no left rest to hold it
        ("[2]+rest1", "[2 1]", _cover([[1]], to_rest=[0])),  # a size-2 entry in the rest
        ("[w]", "[1]+rest1", _cover([[0]], rest_to_rest=True)),  # tail to a missing tail
        ("[w]+rest1", "[1]+rest1", _cover([[0]])),  # right tail routed nowhere
        ("[w]", "[1]+rest1", _cover([[0]], rest_to_block=1)),  # tail to a missing bin
        ("[w]+rest1", "[1]", _cover([[0]], rest_to_block=0)),  # a tail q does not have
        ("[1]", "[2]", _cover([[0]])),  # block over capacity
    ],
)
def test_cover_is_valid_rejects(p, q, cover):
    assert not cover_is_valid(P(p), P(q), cover)


@pytest.mark.parametrize(
    "p, q, m",
    [
        ("[1]", "[1]+rest1", {0: 0}),  # one index set finite, one not
        ("[1 1]", "[1 1]", {0: 0}),  # index 1 of p unmatched
        ("[1 1]", "[1 1]", {0: 0, 1: 0}),  # index 0 of q matched twice
        ("[2]+rest1", "[2]+rest1", {0: None}),  # a size-2 fiber into the tail of 1s
        ("[1]", "[1]", {0: 1}),  # no index 1 in q
        ("[2]", "[1]", {0: 0}),  # sizes differ
        ("[1]+rest1", "[1 2]+rest1", {0: 0}),  # q's size-2 fiber left over
    ],
)
def test_matching_is_valid_rejects(p, q, m):
    assert not matching_is_valid(P(p), P(q), m)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"blocks": (frozenset({0}), frozenset({0}))}, "disjoint"),
        ({"blocks": (frozenset({0}),), "to_rest": frozenset({0})}, "rest part"),
        ({"blocks": (frozenset(),), "rest_to_rest": True, "rest_to_block": 0}, "two ways"),
    ],
)
def test_indexed_cover_rejects(kwargs, message):
    with pytest.raises(DomainError, match=message):
        IndexedCover(**kwargs)


def test_j_condition_budget():
    with pytest.raises(BudgetError):
        j_condition(P("[1 1 1 1 1 1 1 1 1]"), P("[1 1 1 1 1 1 1 1 1]"))


def _reference_j_condition(p, q):
    """j_condition as a plain search, without pruning, on plain-number arithmetic.

    Entries are placed by index into bins by index, backtracking over every
    choice.  Exponential, so only for small profiles.
    """
    rest_to_rest = False
    rest_to_block = None
    if q.rest_ones:
        if p.rest_ones:
            rest_to_rest = True
        else:
            rest_to_block = next((i for i, s in enumerate(p.sizes) if s == OMEGA), None)
            if rest_to_block is None:
                return None
    to_rest = frozenset(j for j, s in enumerate(q.sizes) if p.rest_ones and s == 1)
    entries = [(j, s) for j, s in enumerate(q.sizes) if j not in to_rest]
    caps = list(p.sizes)
    assign = {}
    sums = [0] * len(caps)

    def rec(k):
        if k == len(entries):
            return True
        j, s = entries[k]
        for b in range(len(caps)):
            if sums[b] + s <= caps[b]:
                keep, sums[b], assign[j] = sums[b], sums[b] + s, b
                if rec(k + 1):
                    return True
                sums[b] = keep
        return False

    if not rec(0):
        return None
    blocks = tuple(frozenset(j for j, b in assign.items() if b == i) for i in range(len(caps)))
    return IndexedCover(blocks, to_rest, rest_to_rest, rest_to_block)


def _profiles(alphabet, max_len):
    for k in range(1, max_len + 1):
        for sizes in itertools.product(alphabet, repeat=k):
            for tail in ("", "+rest1"):
                yield P("[" + " ".join(sizes) + "]" + tail)


def test_j_condition_matches_reference_search():
    # every ordered pair over {1, 2, 3, w} with 1-3 indices, with and
    # without a rest tail: 168 profiles, 28,224 pairs
    pool = list(_profiles("123w", 3))
    for p, q in itertools.product(pool, repeat=2):
        cov = j_condition(p, q)
        assert cov == _reference_j_condition(p, q), (str(p), str(q))
        assert cov is None or cover_is_valid(p, q, cov)


@pytest.mark.parametrize(
    "p, q, blocks",
    [
        # a failed state is met again and refused from the memo
        ("[6 5 3]", "[5 2 2 4]", [[1, 3], [0], [2]]),
        # an entry runs out of bins and the search backs up
        ("[1 9 3 8]", "[2 7 2 8]", [[], [0, 1], [2], [3]]),
    ],
)
def test_j_condition_backtracking_matches_reference(p, q, blocks):
    p, q = P(p), P(q)
    assert [sorted(b) for b in j_condition(p, q).blocks] == blocks
    for a, b in ((p, q), (q, p)):
        assert j_condition(a, b) == _reference_j_condition(a, b), (str(a), str(b))


def _cover_doc(cov):
    if cov is None:
        return None
    return {
        "blocks": [sorted(b) for b in cov.blocks],
        "to_rest": sorted(cov.to_rest),
        "rest_to_rest": cov.rest_to_rest,
        "rest_to_block": cov.rest_to_block,
    }


def test_j_condition_matches_recorded_covers():
    # Covers recorded, both ways, with the unpruned search: fifteen
    # near-tight infeasible pairs, the two slowest pairs known for it (about
    # 4 s and 27 s), and 300 seeded pairs of 4-8 indices.
    recorded = json.loads((pathlib.Path(__file__).parent / "data" / "packing_covers.json").read_text())
    assert len(recorded) == 317
    for e in recorded:
        p, q = P(e["p"]), P(e["q"])
        assert _cover_doc(j_condition(p, q)) == e["pack_q_into_p"], (e["p"], e["q"])
        assert _cover_doc(j_condition(q, p)) == e["pack_p_into_q"], (e["q"], e["p"])


def test_j_condition_slow_pairs_bounded_time():
    # infeasible with room to spare: the unpruned search took about 4 s and
    # 27 s on these; the bound is loose so a slow host cannot flake it
    pairs = [
        (P("[3 3 3 3 3 3 3 3]"), P("[1 2 2 2 2 2 2 4]")),
        (P("[2 2 2 2 2 2 2 2]"), P("[1 1 1 1 1 1 1 3]")),
    ]
    start = time.perf_counter()
    for p, q in pairs:
        assert j_condition(p, q) is None
        assert j_condition(q, p) is None
    assert time.perf_counter() - start < 1.0


def test_d_implies_j_at_profile_level():
    pool = [P("[1 1]"), P("[2 1]"), P("[1 2]"), P("[w 1]"), P("[w w]")]
    for p, q in itertools.product(pool, repeat=2):
        if len(p.sizes) != len(q.sizes):
            continue
        if d_condition(p, q) is not None:
            assert j_condition(p, q) is not None
            assert j_condition(q, p) is not None


def test_finite_equal_totals_j_iff_d():
    # with all entries finite and equal totals, mutual packing collapses to
    # a size-preserving bijection
    pool = [P("[2 1 1]"), P("[1 2 1]"), P("[1 1 2]"), P("[3 1]"), P("[2 2]")]
    for p, q in itertools.product(pool, repeat=2):
        if sum(p.sizes) != sum(q.sizes):
            continue
        both = j_condition(p, q) is not None and j_condition(q, p) is not None
        if len(p.sizes) != len(q.sizes):
            continue
        assert both == (d_condition(p, q) is not None)


def test_separating_pairs_j_yes_d_no():
    pairs = [
        (P("[w 1 1]"), P("[w w 1]")),
        (P("[w]+rest1"), P("[w w]+rest1")),
        (P("[w w]+rest1"), P("[w]+rest1")),
    ]
    for p, q in pairs:
        assert j_condition(p, q) is not None
        assert j_condition(q, p) is not None
        assert d_condition(p, q) is None


def test_n_value():
    assert n_value(P("[w 1 1]"), OMEGA) == 2
    assert n_value(P("[w w]"), OMEGA) == 0
    assert n_value(P("[1 1]"), 2) == 2
    # the tail contributes infinitely many small fibers
    assert n_value(P("[w]+rest1"), OMEGA) == OMEGA


def test_profile_of():
    c31 = Context(3, (0, 1))
    assert format_profile(profile_of(c31, Transformation((0, 1, 0)))) == "[1 1]"
    c4 = Context(4, (0, 1, 2))
    assert format_profile(profile_of(c4, Transformation((0, 1, 2, 3)))) == "[1 1 1]"
    c5 = Context(5, (0,))
    assert format_profile(profile_of(c5, Transformation((0, 0, 0, 0, 0)))) == "[1]"


def test_profile_of_rejects_nonmember():
    from invsemi import DomainError

    with pytest.raises(DomainError):
        profile_of(Context(3, (0, 1)), Transformation((0, 0, 2)))


def test_profile_of_all_ones_every_member():
    # finite degeneracy: members restrict to permutations of Y
    from invsemi import enumerate_family

    for n in (1, 2, 3, 4):
        for r in range(1, n + 1):
            ctx = Context(n, tuple(range(r)))
            for f in enumerate_family(ctx):
                prof = profile_of(ctx, f)
                assert all(s == 1 for s in prof.sizes)
                assert not prof.rest_ones
