"""Total maps of {0..n-1}, composed left to right, with a distinguished subset Y.

A transformation f is stored as its tuple of images, so ``x f = f.images[x]``.
Composition is left to right throughout: ``x (f g) = (x f) g``.  The subset Y
singles out four nested families of maps, from the loosest to the tightest:

    tbar      Yf is contained in Y
    omegabar  Yf = Y            (Y is carried onto itself)
    sbar      f restricted to Y is a bijection of Y
    fix       f restricted to Y is the identity on Y

On a finite ambient set, sbar and omegabar coincide; ``classify`` decides
them by two predicates on one set of Y's values (equal to Y, against inside
Y with |Y| elements), so the coincidence is checked, not assumed.

There are two product kernels, both in C.  ``product`` multiplies two raw
image tuples with one itemgetter; the definitional searches multiply tuples
with it and build a Transformation only for what they return, and
``compose`` is its dimension-checked wrapper.  ``product_columns`` multiplies
every member of a family by one member at a time, on either side, with
``bytes.translate`` over the members held as bytes; the Green oracle builds
its Cayley graphs from it.  Both honour ``_MUTATION``.  A cached
``str.format`` writes one map's bracket form; ``format_all`` writes a whole
family's at once from its image tuples, as byte columns up to n = 10; and
``indented_json`` writes indented JSON without the stdlib's Python encoder.

Image tuples are validated where maps enter from outside the program: the
public ``Transformation(...)`` constructor, ``parse_transformation`` and
``transformation_from_json``.  Tuples that are valid by construction (the
product of two maps of one size, ``identity``, a restriction to Y, the members
that ``enumerate_family`` and ``units`` generate from candidates in
``range(n)``, and the witnesses built from members) are wrapped by the private
``_trusted`` (or ``_trusted_all``, for a list) and not checked again.  The
members that the CLI's ``enum``, ``ideals`` and ``kernel`` only print stay tuples.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, repeat, starmap
from operator import attrgetter, itemgetter

from .errors import DimensionError, DomainError

# Internal test hook: verification harnesses flip this to check that a broken
# composition is actually caught.  Never set it in library code.
_MUTATION: str | None = None


def _set_mutation(name: str | None) -> None:
    global _MUTATION
    _MUTATION = name


@dataclass(frozen=True, slots=True)
class Transformation:
    """A total self-map of {0..n-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        imgs = tuple(self.images)
        object.__setattr__(self, "images", imgs)
        n = len(imgs)
        if n == 0:
            raise DomainError("transformation needs a nonempty domain")
        for v in imgs:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise DomainError(f"image value {v!r} outside 0..{n - 1}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __getitem__(self, x: int) -> int:
        return self.images[x]

    def image(self) -> frozenset[int]:
        """The image set Xf."""
        return frozenset(self.images)

    def is_bijection(self) -> bool:
        return len(set(self.images)) == self.n

    def __str__(self) -> str:
        return format_transformation(self)


_images = attrgetter("images")
_new_object = object.__new__
_set_images = Transformation.images.__set__  # the slot, past the frozen __setattr__


def _trusted(images: tuple[int, ...]) -> Transformation:
    """A Transformation of a tuple that is valid by construction, neither copied nor checked.

    Only for tuples the program built itself with every entry in
    ``range(len(images))``; anything from outside goes through ``Transformation``.
    """
    f = _new_object(Transformation)
    _set_images(f, images)
    return f


def _trusted_all(tuples: list[tuple[int, ...]]) -> tuple[Transformation, ...]:
    """``_trusted`` over a list, in C maps: one bare object per tuple, then one slot write each."""
    out = tuple(map(_new_object, repeat(Transformation, len(tuples))))
    deque(map(_set_images, out, tuples), maxlen=0)
    return out


def identity(n: int) -> Transformation:
    return _trusted(tuple(range(n))) if n >= 1 else Transformation(())  # no points: the checking constructor raises


@dataclass(frozen=True, slots=True)
class Context:
    """Ambient set {0..n-1} together with the distinguished nonempty subset Y."""

    n: int
    y_set: tuple[int, ...]
    # set once, from y_set, in __post_init__; ``y_of`` maps an image tuple to Y's values, always a tuple
    y_frozen: frozenset[int] = field(init=False, repr=False, compare=False)
    y_of: itemgetter = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise DomainError(f"ambient size must be a positive int, got {self.n!r}")
        given = tuple(self.y_set)
        for y in given:  # every element, before de-duplication can drop one
            if not isinstance(y, int) or isinstance(y, bool) or not 0 <= y < self.n:
                raise DomainError(f"Y element {y!r} outside 0..{self.n - 1}")
        if not given:
            raise DomainError("Y must be nonempty")
        ys = tuple(sorted(set(given)))
        object.__setattr__(self, "y_set", ys)
        object.__setattr__(self, "y_frozen", frozenset(ys))
        object.__setattr__(self, "y_of", itemgetter(*ys) if len(ys) > 1 else itemgetter(slice(ys[0], ys[0] + 1)))

    def __str__(self) -> str:
        return f"n={self.n} Y={{{','.join(map(str, self.y_set))}}}"


@dataclass(frozen=True, slots=True)
class MembershipFlags:
    """Which of the four nested families a map belongs to, plus unit-ness.

    The chain fix => sbar => omegabar => tbar always holds; it is asserted
    here so a bad computation fails loudly rather than propagating.
    """

    in_tbar: bool
    in_omegabar: bool
    in_sbar: bool
    in_fix: bool
    is_unit_of_omegabar: bool

    def __post_init__(self) -> None:
        assert not self.in_fix or self.in_sbar
        assert not self.in_sbar or self.in_omegabar
        assert not self.in_omegabar or self.in_tbar
        assert not self.is_unit_of_omegabar or self.in_omegabar


def product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Left-to-right product of image tuples of equal length: x (a b) = b[a[x]].

    Nothing is checked.  This, ``product_columns`` and verify's ``_least_factor``
    honour ``_MUTATION``, so a flipped composition flips every product: searches,
    ``compose``, the oracle's Cayley graphs and verify's lex-least factors alike.
    """
    if _MUTATION == "flip-compose":
        a, b = b, a
    return itemgetter(*a)(b) if len(a) > 1 else (b[a[0]],)  # one index would give a scalar


def product_columns(members: list[tuple[int, ...]]):
    """The products of every member with one member a, a column at a time, as member indices.

    Returns ``column(a, left)``: for each member x in order, the index of x a,
    or with ``left`` of a x, each computed as ``product`` would.  Members are
    held as bytes, so a column is one C pass of ``bytes.translate``: x a is x's
    code through a's 256-byte table, a x is a's code through each member's
    table (built on the first such column).  One dict maps the products back to
    indices; a product that is not a member raises KeyError with its image
    tuple.  ``flip-compose`` swaps the two orientations, as it does in ``product``.
    """
    codes = list(map(bytes, members))
    pad = bytes(256 - len(members[0]))
    tables: list[bytes] = []
    at = dict(zip(codes, range(len(codes)))).__getitem__

    def column(a: int, left: bool = False) -> list[int]:
        if left != (_MUTATION == "flip-compose"):  # a x
            if not tables:
                tables.extend(map(bytes.__add__, codes, repeat(pad)))
            out = map(codes[a].translate, tables)
        else:  # x a
            out = map(bytes.translate, codes, repeat(codes[a] + pad))
        try:
            return list(map(at, out))
        except KeyError as e:
            raise KeyError(tuple(e.args[0])) from None

    return column


def compose(f: Transformation, g: Transformation) -> Transformation:
    """Left-to-right product: x (f g) = (x f) g, dimension-checked.

    The product of two valid maps on the same points is valid, so it is not
    validated again.
    """
    if len(f.images) != len(g.images):
        raise DimensionError(f"cannot compose maps on {f.n} and {g.n} points")
    return _trusted(product(f.images, g.images))


def carries_y(ctx: Context, f: Transformation) -> bool:
    """Whether Yf = Y, the membership test of the Y-onto-Y family: Y inside Yf, which has at most |Y| points.

    The length is checked before Y's values are read.
    """
    if len(f.images) != ctx.n:
        raise DimensionError(f"map on {len(f.images)} points in a context with n={ctx.n}")
    return ctx.y_frozen.issubset(ctx.y_of(f.images))


def classify(ctx: Context, f: Transformation) -> MembershipFlags:
    """Membership of f in each family over ctx; sbar and omegabar are two tests on one set of Y's values."""
    if len(f.images) != ctx.n:
        raise DimensionError(f"map on {len(f.images)} points in a context with n={ctx.n}")
    ys = ctx.y_set
    vals = ctx.y_of(f.images)
    seen = set(vals)
    in_tbar = seen <= ctx.y_frozen
    in_omegabar = seen == ctx.y_frozen
    return MembershipFlags(
        in_tbar=in_tbar,
        in_omegabar=in_omegabar,
        in_sbar=in_tbar and len(seen) == len(ys),
        in_fix=vals == ys,
        is_unit_of_omegabar=in_omegabar and f.is_bijection(),
    )


def restrict_to_y(ctx: Context, f: Transformation) -> Transformation:
    """f restricted to Y, reindexed along sorted(Y) -> 0..|Y|-1.

    Requires Yf to be contained in Y; otherwise the restriction is not a
    self-map of Y and a DomainError is raised.
    """
    if len(f.images) != ctx.n:
        raise DimensionError(f"map on {f.n} points in a context with n={ctx.n}")
    ys, vals = ctx.y_set, ctx.y_of(f.images)
    if not ctx.y_frozen.issuperset(vals):
        y, v = next((y, v) for y, v in zip(ys, vals) if v not in ctx.y_frozen)
        raise DomainError(f"point {y} leaves Y (image {v}); restriction undefined")
    return _trusted(tuple(map(ys.index, vals)))


def fibers(f: Transformation) -> dict[int, list[int]]:
    """Each image point of f mapped to its ascending preimages, the blocks of f's kernel.

    Keys come in order of their least preimage, as the points are visited.
    """
    out: dict[int, list[int]] = {}
    for x, v in enumerate(f.images):
        out.setdefault(v, []).append(x)
    return out


# --- text and JSON forms ---------------------------------------------------
# Bracket form for maps: "[1 0 0]".  Y on the command line: "0,1".


@functools.cache
def _bracket_format(n: int):
    return ("[" + " ".join(["{}"] * n) + "]").format


def format_transformation(f: Transformation) -> str:
    return _bracket_format(len(f.images))(*f.images)


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")  # an image v < 10 to its ASCII digit


def format_all(images) -> list[str]:
    """The bracket form of each image tuple in a sequence, all of one n, in one bulk pass up to n = 10.

    There every form is 2n + 2 bytes with its newline: one template of brackets,
    spaces and newline per map, and each digit column written in by one strided
    slice from all images, taken as one bytes object and translated at once.
    """
    n = len(images[0]) if images else 0
    if n > 10:  # two-digit images: one map at a time
        return list(starmap(_bracket_format(n), images))
    digits = bytes(chain.from_iterable(images)).translate(_DIGITS)
    out = bytearray(b"[" + b" " * (2 * n - 1) + b"]\n") * len(images)
    for i in range(n):
        out[2 * i + 1 :: 2 * n + 2] = digits[i::n]
    return out.decode().splitlines()


def parse_transformation(text: str) -> Transformation:
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"expected bracket form like '[1 0 0]', got {text!r}")
    body = s[1:-1].replace(",", " ").split()
    if not body:
        raise ValueError("empty transformation literal")
    try:
        imgs = tuple(int(tok) for tok in body)
    except ValueError:
        raise ValueError(f"non-integer entry in {text!r}") from None
    return Transformation(imgs)


def transformation_to_json(f: Transformation) -> dict:
    return {"n": f.n, "images": list(f.images)}


def transformation_from_json(obj: dict | str) -> Transformation:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "images" not in obj:
        raise ValueError("expected an object with an 'images' field")
    imgs = tuple(obj["images"])
    f = Transformation(imgs)
    n = obj.get("n", f.n)
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"declared n must be an int, got {n!r}")
    if n != f.n:
        raise DimensionError(f"declared n={n} but {len(imgs)} images given")
    return f


_quote = json.encoder.encode_basestring_ascii  # what json.dumps quotes strings with; in C
_LITERAL = {None: "null", True: "true", False: "false"}  # looked up only for None and bools, never for 0 or 1


def indented_json(doc, pad: str = "") -> str:
    """``json.dumps`` of doc with an indent of 2, byte for byte, each container one join.

    Takes str, int, bool, None, lists, tuples and dicts with str keys; any other
    type raises TypeError.  ``pad`` is the indent of the enclosing line.  A
    dict's str, bool and None values are written in place, without a call each.
    An f-string around the join copies the body once, where ``+`` would copy it four times.
    """
    if isinstance(doc, str):
        return _quote(doc)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(doc, dict):
        items = [
            f"{k}: {_quote(v) if type(v) is str else _LITERAL[v] if v is None or type(v) is bool else indented_json(v, inner)}"
            for k, v in zip(map(_quote, doc), doc.values())
        ]
        return f"{{\n{inner}{sep.join(items)}\n{pad}}}" if items else "{}"
    if isinstance(doc, (list, tuple)):
        try:
            items = list(map(_quote, doc))  # a list of strings, the usual case
        except TypeError:
            items = [indented_json(v, inner) for v in doc]
        return f"[\n{inner}{sep.join(items)}\n{pad}]" if items else "[]"
    if doc is None or isinstance(doc, bool):
        return _LITERAL[doc]
    if isinstance(doc, int):
        return int.__repr__(doc)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")


def parse_y(text: str) -> tuple[int, ...]:
    try:
        return tuple(sorted({int(tok) for tok in text.replace(",", " ").split()}))
    except ValueError:
        raise ValueError(f"expected comma-separated integers for Y, got {text!r}") from None


def image_deficit(ctx: Context, f: Transformation) -> int:
    """|Xf \\ Y|, the number of image points outside Y."""
    if len(f.images) != ctx.n:
        raise DimensionError(f"map on {len(f.images)} points in a context with n={ctx.n}")
    return len(set(f.images) - ctx.y_frozen)
