"""Regular and unit-regular elements: structural tests and definitional searches.

An element f is regular when f g f = f for some g in the same family, and
unit-regular when the middle factor can be chosen invertible.  Both notions
admit short structural tests here: regularity within the Y-onto-Y family is
exactly bijectivity on Y (automatic over a finite Y), and unit-regularity is
witnessed by a transversal of ker(f) that contains Y.  The report's
witnesses are built from that transversal, not searched for; the searches
(pre_inverses, is_regular_oracle) stay separate so the verify battery can
compare the two.  They read the defining equation f g f = f point by point,
as (v g) f = v for every v in Xf, and generate exactly the members g that
satisfy it; no member is multiplied out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Context, Transformation, _trusted, classify, fibers, product
from .errors import DomainError
from .semigroup import _candidates, _generate


@dataclass(frozen=True, slots=True)
class RegularityReport:
    is_regular: bool
    is_unit_regular: bool
    witness_pre_inverse: Transformation | None
    witness_unit: Transformation | None
    certifying_transversal: frozenset[int] | None

    def __post_init__(self) -> None:
        assert not self.is_unit_regular or self.is_regular
        assert (self.witness_unit is not None) == self.is_unit_regular
        assert (self.certifying_transversal is not None) == self.is_unit_regular


def _pre_inverse_scan(ctx: Context, f: Transformation, family: str):
    """The members g of the family with f g f = f, in lexicographic order, as ``_generate`` yields them.

    f g f = f exactly when (v g) f = v for every v in Xf: position v of g keeps
    the family's candidates z with z f = v, and every other position keeps all.
    """
    per_pos = _candidates(ctx, family)
    if not getattr(classify(ctx, f), f"in_{family}"):
        raise DomainError(f"{f} is not in family {family!r} over {ctx}")
    fi = f.images
    for v in set(fi):
        per_pos[v] = tuple(z for z in per_pos[v] if fi[z] == v)
    return map(_trusted, _generate(ctx, family, per_pos))


def pre_inverses(ctx: Context, f: Transformation, family: str = "omegabar") -> tuple[Transformation, ...]:
    """All g in the family with f g f = f, in lexicographic order."""
    return tuple(_pre_inverse_scan(ctx, f, family))


def is_regular(ctx: Context, f: Transformation) -> bool:
    """Structural test: regular in the Y-onto-Y family iff injective on Y."""
    flags = classify(ctx, f)
    if not flags.in_omegabar:
        raise DomainError(f"{f} does not carry Y onto Y in context {ctx}")
    return flags.in_sbar


def is_regular_oracle(ctx: Context, f: Transformation) -> bool:
    """Definitional test: some member g satisfies f g f = f."""
    return next(_pre_inverse_scan(ctx, f, "omegabar"), None) is not None


def is_unit_regular(ctx: Context, f: Transformation) -> RegularityReport:
    """Full report with every witness built from the least transversal of
    ker(f) containing Y (each fiber's Y-point, else its least point).

    The least pre-inverse sends v in Xf to the transversal point over v, and
    the rest to 0.  The least unit u with f u f = f is built point by point:
    each v in Xf takes the least unused point over it, Y-points first; any
    other point takes the least unused point outside Y that is not the last
    unused one over a later point of Xf.
    """
    flags = classify(ctx, f)
    if not flags.in_omegabar:
        raise DomainError(f"{f} does not carry Y onto Y in context {ctx}")
    yset, fi = ctx.y_frozen, f.images
    over = fibers(f)
    pick = {v: next((x for x in xs if x in yset), xs[0]) for v, xs in over.items()}
    pre = _trusted(tuple(pick.get(v, 0) for v in range(ctx.n)))

    unit = []
    used = set(yset)  # only the points of Y map into Y
    unmatched = {v: len(xs) for v, xs in over.items() if v not in yset}  # unused points over v
    for v in range(ctx.n):
        if v in yset:
            z = pick[v]
        elif v in unmatched:
            del unmatched[v]
            z = next(x for x in over[v] if x not in used)
        else:
            z = next(x for x in range(ctx.n) if x not in used and unmatched.get(fi[x]) != 1)
        used.add(z)
        if fi[z] in unmatched:
            unmatched[fi[z]] -= 1
        unit.append(z)
    u = _trusted(tuple(unit))
    assert product(fi, product(u.images, fi)) == fi == product(fi, product(pre.images, fi))
    return RegularityReport(
        is_regular=flags.in_sbar,
        is_unit_regular=True,
        witness_pre_inverse=pre,
        witness_unit=u,
        certifying_transversal=frozenset(pick.values()),
    )
