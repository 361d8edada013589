"""Output checks for the benchmark, computed apart from the package.

Nothing here imports ``invsemi``.  Maps are plain tuples of images and are
composed left to right, ``x(fg) = (xf)g``, as the paper writes them.  Counts
come from the paper's closed forms; relation verdicts are checked by
definitional brute force (L, R, H), by the finite-case fact that D and J are
both "equal image deficit", and by recomposing every printed witness.
Profile packing verdicts are checked against a dynamic programme over
subsets of indices.

Every checker returns a list of error strings; an empty list means the
output is correct.
"""

from __future__ import annotations

import ast
import functools
import itertools
import json
import math

W = None  # the infinite fiber size, written ``w``


# --- maps ----------------------------------------------------------------------


def compose(f: tuple, g: tuple) -> tuple:
    """Left-to-right product: x(fg) = (xf)g."""
    return tuple(g[v] for v in f)


def parse_map(text: str) -> tuple:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"not a map literal: {text!r}")
    return tuple(int(tok) for tok in s[1:-1].split())


def format_map(f: tuple) -> str:
    return "[" + " ".join(map(str, f)) + "]"


def in_omegabar(ys: tuple, f: tuple) -> bool:
    return {f[y] for y in ys} == set(ys)


def flags(n: int, ys: tuple, f: tuple) -> dict:
    vals = [f[y] for y in ys]
    tbar = all(v in ys for v in vals)
    omegabar = tbar and set(vals) == set(ys)
    return {
        "tbar": tbar,
        "omegabar": omegabar,
        "sbar": tbar and len(set(vals)) == len(ys),
        "fix": all(f[y] == y for y in ys),
        "unit": omegabar and len(set(f)) == n,
    }


@functools.cache
def family(n: int, ys: tuple, name: str = "omegabar") -> tuple:
    """Every map of {0..n-1} in the named family, in lexicographic order."""
    return tuple(f for f in itertools.product(range(n), repeat=n) if flags(n, ys, f)[name])


def family_size(n: int, k: int, name: str = "omegabar") -> int:
    """Closed forms: |Omega-bar| = |S-bar| = k! n^(n-k), |T-bar| = k^k n^(n-k), |Fix| = n^(n-k)."""
    rest = n ** (n - k)
    return {
        "omegabar": math.factorial(k) * rest,
        "sbar": math.factorial(k) * rest,
        "tbar": k**k * rest,
        "fix": rest,
    }[name]


def deficit(ys: tuple, f: tuple) -> int:
    """|Xf \\ Y|, the number of image points outside Y."""
    return len(set(f) - set(ys))


def kernel_blocks(f: tuple) -> frozenset:
    blocks: dict[int, set] = {}
    for x, v in enumerate(f):
        blocks.setdefault(v, set()).add(x)
    return frozenset(frozenset(b) for b in blocks.values())


def l_below(members, f: tuple, g: tuple) -> bool:
    """f <=_L g: f = hg for some member h (the identity is a member)."""
    return any(compose(h, g) == f for h in members)


def r_below(members, f: tuple, g: tuple) -> bool:
    """f <=_R g: f = gh for some member h."""
    return any(compose(g, h) == f for h in members)


# --- CLI outputs over a context --------------------------------------------------


def _kv_lines(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"not a key=value line: {line!r}")
        out[key] = val
    return out


def check_enum(n: int, ys: tuple, name: str, text: str) -> list:
    lines = text.splitlines()
    want = family_size(n, len(ys), name)
    if not lines or lines[0] != f"count={want}":
        return [f"enum header {lines[:1]} != count={want}"]
    maps = [parse_map(s) for s in lines[1:]]
    if len(maps) != want:
        return [f"enum listed {len(maps)} maps, closed form says {want}"]
    if any(not flags(n, ys, f)[name] for f in maps):
        return ["enum listed a map outside the family"]
    if any(a >= b for a, b in zip(maps, maps[1:])):
        return ["enum listing is not strictly increasing"]
    return []


def check_ideals(n: int, ys: tuple, doc: dict) -> list:
    """n-k+1 ideals, a chain by image deficit: ideal t holds the members of deficit <= t."""
    k = len(ys)
    members = family(n, ys)
    if doc.get("count") != n - k + 1 or len(doc.get("ideals", ())) != n - k + 1:
        return [f"ideal count {doc.get('count')} != {n - k + 1}"]
    errs = []
    for t, ideal in enumerate(doc["ideals"]):
        want = {f for f in members if deficit(ys, f) <= t}
        got = {parse_map(s) for s in ideal["members"]}
        if got != want or ideal["size"] != len(want) or ideal["t"] != t:
            errs.append(f"ideal {t} is not the members of deficit <= {t}")
    return errs


def check_kernel(n: int, ys: tuple, doc: dict) -> list:
    """The kernel is the k! k^(n-k) members whose image is exactly Y."""
    k = len(ys)
    want_size = math.factorial(k) * k ** (n - k)
    got = [parse_map(s) for s in doc.get("members", ())]
    if len(got) != want_size or doc.get("size") != want_size:
        return [f"kernel size {len(got)} != {want_size}"]
    if any(not in_omegabar(ys, f) or set(f) != set(ys) for f in got):
        return ["kernel holds a map whose image is not Y"]
    if len(set(got)) != len(got) or doc.get("t") != 0:
        return ["kernel listing has duplicates or a nonzero deficit"]
    return []


def check_eggbox(n: int, ys: tuple, doc: dict) -> list:
    """n-k+1 D-classes by descending deficit; cells share image and kernel."""
    k = len(ys)
    members = family(n, ys)
    grids = doc.get("d_classes", [])
    if len(grids) != n - k + 1:
        return [f"{len(grids)} D-classes, expected {n - k + 1}"]
    errs = []
    seen: set = set()
    for i, grid in enumerate(grids):
        d = n - k - i
        want = {f for f in members if deficit(ys, f) == d}
        got = []
        for row in grid["cells"]:
            for cell in row:
                elems = [parse_map(s) for s in cell["elements"]]
                if len({frozenset(e) for e in elems}) != 1 or len({kernel_blocks(e) for e in elems}) != 1:
                    errs.append(f"D{i}: a cell mixes images or kernels")
                idem = any(compose(e, e) == e for e in elems)
                if idem != cell["idempotent"]:
                    errs.append(f"D{i}: idempotent flag wrong")
                got.extend(elems)
            if len({kernel_blocks(parse_map(c["elements"][0])) for c in row}) != 1:
                errs.append(f"D{i}: a row mixes kernels")
        for col in zip(*grid["cells"]):
            if len({frozenset(parse_map(c["elements"][0])) for c in col}) != 1:
                errs.append(f"D{i}: a column mixes images")
        if grid["deficit"] != d or set(got) != want or len(got) != len(want) or grid["size"] != len(want):
            errs.append(f"D{i} is not the members of deficit {d}")
        seen.update(got)
    if len(seen) != family_size(n, k):
        errs.append("egg-box does not cover the family")
    # grid i has deficit n-k-i, and D_i <= D_j exactly when its deficit is not larger
    want_pairs = sorted([i, j] for i in range(len(grids)) for j in range(i))
    if doc.get("order_pairs") != want_pairs:
        errs.append("J-order pairs do not follow the deficit chain")
    return errs[:5]


def check_classify(n: int, ys: tuple, f: tuple, doc: dict) -> list:
    want = flags(n, ys, f)
    if doc.get("membership") != want or doc.get("f") != format_map(f):
        return [f"membership flags {doc.get('membership')} != {want}"]
    if not want["omegabar"]:
        if doc["reason"] is None or doc["regularity"] is not None or doc["profile"] is not None:
            return ["non-member without reason or with regularity data"]
        return []
    errs = []
    if doc["profile"] != "[" + " ".join(["1"] * len(ys)) + "]":
        errs.append(f"finite member profile {doc['profile']} is not all ones")
    if doc["image_deficit"] != deficit(ys, f):
        errs.append("image deficit wrong")
    reg = doc["regularity"]
    if not (reg["is_regular"] and reg["is_unit_regular"]):
        errs.append("a member of the finite family must be unit-regular")
    g = parse_map(reg["witness_pre_inverse"])
    if not in_omegabar(ys, g) or compose(f, compose(g, f)) != f:
        errs.append("pre-inverse witness fails fgf = f")
    u = parse_map(reg["witness_unit"])
    if not flags(n, ys, u)["unit"] or compose(f, compose(u, f)) != f:
        errs.append("unit witness fails fuf = f or is not a unit")
    t = set(reg["certifying_transversal"])
    if not (set(ys) <= t and all(len(t & b) == 1 for b in kernel_blocks(f))):
        errs.append("certifying transversal is not a transversal of ker f containing Y")
    return errs


def check_green(n: int, ys: tuple, rel: str, f: tuple, g: tuple, witness: bool, text: str) -> list:
    kv = _kv_lines(text)
    if kv.get("related") not in ("true", "false"):
        return [f"no verdict in {text!r}"]
    related = kv["related"] == "true"
    errs = []
    # necessary conditions from the definitions
    if related and rel in ("L", "H") and set(f) != set(g):
        errs.append(f"{rel}-related maps with different images")
    if related and rel in ("R", "H") and kernel_blocks(f) != kernel_blocks(g):
        errs.append(f"{rel}-related maps with different kernels")
    if related and rel in ("D", "J") and deficit(ys, f) != deficit(ys, g):
        errs.append(f"{rel}-related maps with different image deficits")
    # the definitions themselves for the one-sided relations; over a finite
    # Y, D and J are both exactly "equal image deficit"
    members = family(n, ys)
    if rel in ("L", "R", "H"):
        want_l = l_below(members, f, g) and l_below(members, g, f)
        want_r = r_below(members, f, g) and r_below(members, g, f)
        want = {"L": want_l, "R": want_r, "H": want_l and want_r}[rel]
    else:
        want = deficit(ys, f) == deficit(ys, g)
    if related != want:
        errs.append(f"{rel} verdict {related} != definitional {want}")
    if "oracle" in kv and (kv["oracle"] != kv["related"] or kv.get("agree") != "true"):
        errs.append("characterization and oracle disagree")
    if witness:
        errs += _check_green_witnesses(ys, rel, f, g, related, kv, members)
    return errs


def _check_green_witnesses(ys, rel, f, g, related, kv, members) -> list:
    def member_map(text):
        h = parse_map(text)
        return h if in_omegabar(ys, h) else None

    errs = []
    present = []
    if rel in ("L", "H"):
        for key, a, b in (("l_f_below_g", f, g), ("l_g_below_f", g, f)):
            if kv[key] != "None":
                h = member_map(kv[key])
                if h is None or compose(h, b) != a:
                    errs.append(f"{key} witness fails h*{format_map(b)} = {format_map(a)}")
            present.append(kv[key] != "None")
    if rel in ("R", "H"):
        for key, a, b in (("r_f_below_g", f, g), ("r_g_below_f", g, f)):
            if kv[key] != "None":
                h = member_map(kv[key])
                if h is None or compose(b, h) != a:
                    errs.append(f"{key} witness fails {format_map(b)}*h = {format_map(a)}")
            present.append(kv[key] != "None")
    if rel == "J":
        for key, a, b in (("j_f_below_g", f, g), ("j_g_below_f", g, f)):
            if kv[key] != "None":
                h, h2 = (member_map(s) for s in ast.literal_eval(kv[key]))
                if h is None or h2 is None or compose(h, compose(b, h2)) != a:
                    errs.append(f"{key} witness fails h*{format_map(b)}*h2 = {format_map(a)}")
            present.append(kv[key] != "None")
    if rel == "D":
        if kv["d_middle"] != "None":
            m = member_map(kv["d_middle"])
            if not (
                m is not None
                and l_below(members, f, m)
                and l_below(members, m, f)
                and r_below(members, m, g)
                and r_below(members, g, m)
            ):
                errs.append("D middle is not L-related to f and R-related to g")
        present.append(kv["d_middle"] != "None")
    if all(present) != related:
        errs.append("witnesses present do not match the verdict")
    return errs


# --- fiber profiles ---------------------------------------------------------------


def parse_profile(text: str) -> tuple:
    """'[w 1 2]+rest1' -> ((None, 1, 2), True)."""
    s = text.strip()
    rest = s.endswith("+rest1")
    if rest:
        s = s[: -len("+rest1")]
    sizes = tuple(W if tok == "w" else int(tok) for tok in s[1:-1].split())
    return sizes, rest


def format_profile(sizes: tuple, rest: bool) -> str:
    body = "[" + " ".join("w" if s is W else str(s) for s in sizes) + "]"
    return body + "+rest1" if rest else body


def _fits(load, cap) -> bool:
    return cap is W or (load is not W and load <= cap)


def _add(a, b):
    return W if a is W or b is W else a + b


def d_feasible(p: tuple, q: tuple) -> bool:
    """Size-preserving bijection of index sets; rest tails soak up size-1 entries."""
    (ps, pr), (qs, qr) = p, q
    if pr != qr:
        raise ValueError("index sets of different cardinality")
    key = lambda s: (s is W, s or 0)  # noqa: E731
    if not pr:
        return sorted(ps, key=key) == sorted(qs, key=key)
    return sorted((s for s in ps if s != 1), key=key) == sorted((s for s in qs if s != 1), key=key)


def _bins_hold(items: list, caps: list) -> bool:
    """Finite bin packing by a dynamic programme over subsets of items."""
    if sum(items) > sum(caps) or max(items) > max(caps):
        return False
    full = (1 << len(items)) - 1
    load = [sum(items[i] for i in range(len(items)) if m >> i & 1) for m in range(full + 1)]
    reach = {0}
    for cap in caps:
        nxt = set()
        for m in reach:
            free = full ^ m
            s = free
            while True:  # every submask of the free items that fits this bin
                if load[s] <= cap:
                    nxt.add(m | s)
                if s == 0:
                    break
                s = (s - 1) & free
        if full in nxt:
            return True
        reach = nxt
    return full in reach


def j_feasible(p: tuple, q: tuple) -> bool:
    """Can q's fibers be packed into p's capacities?  p's rest tail is unit bins."""
    (ps, pr), (qs, qr) = p, q
    has_w_bin = any(c is W for c in ps)
    if qr and not pr and not has_w_bin:
        return False  # infinitely many unit fibers need a tail or an infinite bin
    items = [s for s in qs if not (pr and s == 1)]
    if not items or has_w_bin:
        return True  # an infinite bin absorbs everything
    if any(s is W for s in items):
        return False
    return _bins_hold(items, [c for c in ps])


def cover_errors(p: tuple, q: tuple, cover: dict) -> list:
    """Validity of a packing of q into p as printed by ``profile --format json``."""
    (ps, pr), (qs, qr) = p, q
    blocks = cover["blocks"]
    placed = [j for b in blocks for j in b] + list(cover["to_rest"])
    if len(blocks) != len(ps) or sorted(placed) != list(range(len(qs))):
        return ["cover does not place every q index exactly once"]
    if cover["to_rest"] and not pr or any(qs[j] != 1 for j in cover["to_rest"]):
        return ["cover sends a non-unit fiber, or any fiber, to a missing rest tail"]
    rb = cover["rest_to_block"]
    if qr:
        if cover["rest_to_rest"] == (rb is not None):
            return ["q's rest tail is not routed exactly one way"]
        if cover["rest_to_rest"] and not pr:
            return ["q's rest tail routed to a missing rest tail"]
    elif cover["rest_to_rest"] or rb is not None:
        return ["cover routes a rest tail q does not have"]
    for i, b in enumerate(blocks):
        load = 0
        for j in b:
            load = _add(load, qs[j])
        if rb == i:
            load = W
        if not _fits(load, ps[i]):
            return [f"bin {i} overfull"]
    return []


def matching_errors(p: tuple, q: tuple, m: dict) -> list:
    (ps, pr), (qs, qr) = p, q
    if set(m) != {str(i) for i in range(len(ps))}:
        return ["matching does not cover p's indices"]
    used = [j for j in m.values() if j is not None]
    if len(used) != len(set(used)):
        return ["matching uses a q index twice"]
    for i, j in m.items():
        s = ps[int(i)]
        if j is None and not (pr and s == 1) or j is not None and qs[j] != s:
            return [f"matching pairs unequal sizes at p index {i}"]
    if any(not (qr and qs[j] == 1) for j in set(range(len(qs))) - set(used)):
        return ["matching leaves a q index that the rest tail cannot take"]
    return []


def check_profile(p_text: str, q_text: str, want_d: bool, want_j: bool, doc: dict) -> list:
    p, q = parse_profile(p_text), parse_profile(q_text)
    errs = []
    if doc.get("p") != format_profile(*p) or doc.get("q") != format_profile(*q):
        errs.append("profiles not echoed in normal form")
    if want_d:
        m = doc["d"]
        if (m is not None) != d_feasible(p, q):
            errs.append(f"d verdict {m is not None} != {d_feasible(p, q)}")
        elif m is not None:
            errs += matching_errors(p, q, m)
    elif "d" in doc:
        errs.append("d verdict printed but not asked for")
    if want_j:
        for key, a, b in (("pack_q_into_p", p, q), ("pack_p_into_q", q, p)):
            cover = doc[key]
            if (cover is not None) != j_feasible(a, b):
                errs.append(f"{key} verdict {cover is not None} != {j_feasible(a, b)}")
            elif cover is not None:
                errs += cover_errors(a, b, cover)
    return errs


# --- verify report ------------------------------------------------------------------

VERIFY_LABELS = (
    "count.family", "count.units", "core.assoc", "core.closure", "core.membership",
    "core.restriction", "core.transversals", "profile.concrete",
    "green.L", "green.R", "green.H", "green.D", "green.J", "green.D_eq_J", "green.D_compositions",
    "witness.L", "witness.R", "witness.J",
    "reg.char", "reg.unit_regular", "reg.pre_inverse",
    "ideal.down_sets", "ideal.enumerate", "ideal.thresholds", "ideal.kernel", "eggbox.grid",
    "extnat.arith", "parse.roundtrip", "profile.d_fixed", "profile.j_fixed", "profile.separation",
)  # fmt: skip


def verify_contexts(max_n: int, sample_n5: bool) -> list:
    """Every nonempty Y of {0..n-1} for n <= max_n, then (5,{0}) and (5,{0,1})."""
    out = [
        f"n={n} Y={{{','.join(map(str, ys))}}}"
        for n in range(1, max_n + 1)
        for r in range(1, n + 1)
        for ys in itertools.combinations(range(n), r)
    ]
    if sample_n5 and max_n < 5:
        out += ["n=5 Y={0}", "n=5 Y={0,1}"]
    return out


def check_verify(text: str, seed: int, max_n: int, sample_n5: bool) -> list:
    report = json.loads(text)
    errs = []
    if report["config"] != {"max_n": max_n, "sample_n5": sample_n5, "seed": seed}:
        errs.append(f"report config {report['config']}")
    if report["contexts"] != verify_contexts(max_n, sample_n5):
        errs.append("report contexts differ from every nonempty Y up to the bound")
    labels = tuple(r["label"] for r in report["results"])
    if labels != VERIFY_LABELS:
        errs.append(f"report has {len(labels)} labels, not the {len(VERIFY_LABELS)} expected")
    failing = [r["label"] for r in report["results"] if r["status"] != "pass"]
    if failing:
        errs.append(f"checks not passing: {', '.join(failing)}")
    if report["summary"] != {"checks": 31, "pass": 31, "fail": 0, "resource": 0}:
        errs.append(f"summary {report['summary']}")
    return errs


# --- dispatch on the command line -----------------------------------------------------


def _opt(argv: list, name: str):
    return argv[argv.index(name) + 1] if name in argv else None


def check_output(argv: list, out: str) -> list:
    """Check the text one successful CLI call printed, from its argument list alone."""
    cmd = argv[0]
    if cmd == "profile":
        want_d = "--d" in argv or "--j" not in argv
        want_j = "--j" in argv or "--d" not in argv
        return check_profile(argv[1], argv[2], want_d, want_j, json.loads(out))
    if cmd == "verify":
        return check_verify(out, int(_opt(argv, "--seed")), int(_opt(argv, "--max-n")), "--sample-n5" in argv)
    n = int(_opt(argv, "--n"))
    ys = tuple(sorted(int(y) for y in _opt(argv, "--y").split(",")))
    if cmd == "enum":
        return check_enum(n, ys, _opt(argv, "--family") or "omegabar", out)
    if cmd == "classify":
        return check_classify(n, ys, parse_map(_opt(argv, "--f")), json.loads(out))
    if cmd == "green":
        f, g = parse_map(_opt(argv, "--f")), parse_map(_opt(argv, "--g"))
        return check_green(n, ys, _opt(argv, "--rel"), f, g, "--witness" in argv, out)
    if cmd == "eggbox":
        return check_eggbox(n, ys, json.loads(out))
    if cmd == "ideals":
        return check_ideals(n, ys, json.loads(out))
    if cmd == "kernel":
        return check_kernel(n, ys, json.loads(out))
    return [f"no check for command {cmd!r}"]
