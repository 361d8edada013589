"""Seeded inputs: one round of operations per workload, as CLI argument lists.

A round is a fixed list of (class, argv) pairs.  The seed picks the maps,
the subsets Y, the profiles and the order; the number of operations of each
class and their sizes (n, |Y|, number of profile indices) are the same for
every seed, so each round costs about the same and the percentiles fall on
the same class whatever the seed.  Every round of a run repeats the same
operations.
"""

from __future__ import annotations

import random

from checks import compose

RELATIONS = ("L", "R", "H", "D", "J")

VERIFY_MAX_N = 4

# Near-tight infeasible packings: all bins equal, one fiber fits no bin and
# the total load fits, so the backtracker in extnat.j_condition places the
# other fibers in every possible way before it fails.  Their cost depends on
# the order of the indices, so they are fixed rather than drawn; slowest
# first, about 400 ms down to 8 ms here.
HARD_PACKINGS = (
    ("[3 3 3 3 3 3 3 3]+rest1", "[1 2 2 2 2 2 2 4]+rest1"),
    ("[3 3 3 3 3 3 3]", "[1 2 2 2 2 2 4]"),
    ("[3 3 3 3 3 3 3 3]", "[2 2 2 2 2 4]"),
    ("[3 3 3 3 3 3 3]", "[2 2 2 2 2 2 4]"),
    ("[4 4 4 4 4 4 4]", "[3 3 3 3 3 3 5]"),
    ("[4 4 4 4 4 4 4 4]", "[3 3 3 3 3 5]"),
    ("[4 4 4 4 4 4 4]", "[2 3 3 3 3 3 5]"),
    ("[2 2 2 2 2 2]", "[1 1 1 1 1 3]"),
    ("[3 3 3 3 3 3 3]+rest1", "[1 2 2 2 2 2 4]+rest1"),
    ("[3 3 3 3 3 3]", "[1 2 2 2 2 4]"),
    ("[3 3 3 3 3 3]", "[2 2 2 2 2 4]"),
    ("[4 4 4 4 4 4]", "[3 3 3 3 3 5]"),
    ("[5 5 5 5 5 5]", "[4 4 4 4 4 6]"),
    ("[3 3 3 3 3 3]+rest1", "[1 2 2 2 2 4]+rest1"),
    ("[2 2 2 2 2]", "[1 1 1 1 3]"),
)
EASY_PACKINGS = 185
EASY_MAX_INDICES = 5  # at this size no pair takes more than a few ms

# Percentile reported as latency_tail_ms, per workload.  Each sits in the
# middle of the slowest class's span of ranks (see README.md).
TAIL_PERCENTILE = {"verify": 90, "queries": 87.5, "packing": 95}


def fmt(f) -> str:
    return "[" + " ".join(map(str, f)) + "]"


def y_arg(ys) -> str:
    return ",".join(map(str, ys))


def random_y(rng: random.Random, n: int, k: int) -> tuple:
    return tuple(sorted(rng.sample(range(n), k)))


def random_member(rng: random.Random, n: int, ys: tuple) -> list:
    """A uniform map carrying Y onto Y: a permutation on Y, anything elsewhere."""
    f = [rng.randrange(n) for _ in range(n)]
    for y, v in zip(ys, rng.sample(ys, len(ys))):
        f[y] = v
    return f


def random_unit(rng: random.Random, n: int, ys: tuple) -> list:
    rest = [x for x in range(n) if x not in ys]
    u = [0] * n
    for src, dst in zip(ys, rng.sample(ys, len(ys))):
        u[src] = dst
    for src, dst in zip(rest, rng.sample(rest, len(rest))):
        u[src] = dst
    return u


def green_pair(rng: random.Random, n: int, ys: tuple, rel: str) -> tuple:
    """Half the pairs are related by construction (f = ug, gv, g or ugv with units u, v), half drawn at random."""
    g = random_member(rng, n, ys)
    if rng.random() < 0.5:
        return random_member(rng, n, ys), g
    u, v = random_unit(rng, n, ys), random_unit(rng, n, ys)
    if rel == "L":
        return compose(u, g), g
    if rel == "R":
        return compose(g, v), g
    if rel == "H":
        return g, g
    return compose(compose(u, g), v), g


def green_argv(rng: random.Random, n: int, k: int, rel: str, witness: bool) -> list:
    ys = random_y(rng, n, k)
    f, g = green_pair(rng, n, ys, rel)
    argv = ["green", "--n", str(n), "--y", y_arg(ys), "--rel", rel, "--f", fmt(f), "--g", fmt(g)]
    return argv + ["--witness"] if witness else argv


def classify_argv(rng: random.Random, n: int, k: int) -> list:
    ys = random_y(rng, n, k)
    f = random_member(rng, n, ys) if rng.random() < 0.5 else [rng.randrange(n) for _ in range(n)]
    return ["classify", "--n", str(n), "--y", y_arg(ys), "--f", fmt(f)]


def random_profile(rng: random.Random, max_len: int) -> str:
    sizes = [rng.choice("1112234w") for _ in range(rng.randint(1, max_len))]
    return "[" + " ".join(sizes) + "]" + ("+rest1" if rng.random() < 0.3 else "")


def profile_argv(p: str, q: str) -> list:
    """``profile --format json``; pairs whose index sets cannot be in bijection ask for packing only."""
    comparable = p.endswith("+rest1") == q.endswith("+rest1") and (
        p.endswith("+rest1") or len(p.split()) == len(q.split())
    )
    return ["profile", p, q, "--format", "json"] + ([] if comparable else ["--j"])


def queries_round(seed: int) -> list:
    """80 lookups-or-family ops that answer, plus 2 beyond the enumeration cap (see README.md)."""
    rng = random.Random(f"queries:{seed}")
    ops = []
    # lookups: 30 green at n=4 (each rebuilds the oracle), 16 classify,
    # 8 green at n=5..6, 8 small profile pairs
    for i in range(30):
        ops.append(("lookup", green_argv(rng, 4, 1, RELATIONS[i % 5], i % 10 >= 5)))
    for n, k in [(4, 1), (4, 2), (4, 3), (4, 4), (5, 1), (5, 2), (5, 3), (5, 5)] + [(6, 2), (6, 3), (6, 4), (6, 5)] * 2:
        ops.append(("lookup", classify_argv(rng, n, k)))
    for i, (n, k) in enumerate([(5, 1), (5, 2), (5, 3), (6, 3), (6, 4), (6, 5), (6, 3), (6, 4)]):
        ops.append(("lookup", green_argv(rng, n, k, RELATIONS[(i + seed) % 5], i % 2 == 1)))
    for _ in range(8):
        ops.append(("lookup", profile_argv(random_profile(rng, 3), random_profile(rng, 3))))
    # whole-family commands
    family = [("eggbox", 6, 1), ("ideals", 6, 1), ("kernel", 6, 1)]
    family += [("eggbox", 6, 2), ("ideals", 6, 2), ("kernel", 6, 2)]
    family += [("ideals", 6, 3)] * 2
    family += [("eggbox", 5, 1), ("ideals", 5, 1), ("kernel", 5, 1), ("eggbox", 5, 1)]
    family += [("eggbox", 5, 2), ("ideals", 5, 2), ("kernel", 5, 2)]
    for cmd, n, k in family:
        argv = [cmd, "--n", str(n), "--y", y_arg(random_y(rng, n, k))]
        ops.append(("family", argv + (["--format", "json"] if cmd == "eggbox" else [])))
    for name in ("omegabar", "tbar", "fix"):
        ops.append(("family", ["enum", "--n", "6", "--y", y_arg(random_y(rng, 6, 1)), "--family", name]))
    # beyond the enumeration cap: these exit 3 while unit-regularity and the
    # D-middle are found by enumerating the whole family
    ys = random_y(rng, 7, rng.randint(1, 3))
    ops.append(("beyond_cap", ["classify", "--n", "7", "--y", y_arg(ys), "--f", fmt(random_member(rng, 7, ys))]))
    f, g = green_pair(rng, 7, ys, "D")
    ops.append(("beyond_cap", ["green", "--n", "7", "--y", y_arg(ys), "--rel", "D", "--witness", "--f", fmt(f), "--g", fmt(g)]))
    rng.shuffle(ops)
    return ops


def packing_round(seed: int) -> list:
    rng = random.Random(f"packing:{seed}")
    ops = [("hard", profile_argv(p, q)) for p, q in HARD_PACKINGS]
    for _ in range(EASY_PACKINGS):
        p, q = random_profile(rng, EASY_MAX_INDICES), random_profile(rng, EASY_MAX_INDICES)
        ops.append(("easy", profile_argv(p, q)))
    rng.shuffle(ops)
    return ops


def verify_round(seed: int) -> list:
    return [("battery", ["verify", "--max-n", str(VERIFY_MAX_N), "--sample-n5", "--seed", str(seed)])]


ROUNDS = {"verify": verify_round, "queries": queries_round, "packing": packing_round}
