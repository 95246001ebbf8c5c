"""Face laws and relation schemes of strict involutive cubical structure, stated once.

FACE_LAWS gives the faces of a reflector, a dual and a composite in
terms of the faces of its operands.  TermBuilder.boundary computes the
faces of free terms with them, and validate_strict checks every table
entry against them.

Each scheme builds its two sides with the operations of an algebra:
``refl(d, x)``, ``dual(d, x)`` and ``comp(d, x, y)``.  ground_level
finds every match of the schemes among the elements of one level, using
the algebra's ``boundary(x, d, side)``.  The word problem grounds the
schemes over a term universe with a TermBuilder as the algebra; the
model validators ground them over a table's cells and evaluate them
with its operation lookups.  Both read the schemes from here, so they
cannot disagree about which axioms exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .presentation import LevelKey, TruncationConfig

if TYPE_CHECKING:
    from .term import Term

# Each law takes an algebra A, the operation's direction k, the face's
# direction d and side, then the operands, and returns the face.  Keys
# are the term kinds of the three operation families.
FACE_LAWS = {
    # id[k](x) has both k-faces x and reflects the faces of x elsewhere
    "id": lambda A, k, d, side, x: x if d == k else A.refl(k, A.boundary(x, d, side)),
    # dual[k](x) swaps the two k-faces of x and dualizes the others
    "dual": lambda A, k, d, side, x: (
        A.boundary(x, d, "t" if side == "s" else "s")
        if d == k
        else A.dual(k, A.boundary(x, d, side))
    ),
    # comp[k](x, y) keeps the k-source of y and the k-target of x, and
    # composes facewise in the other directions
    "comp": lambda A, k, d, side, x, y: (
        A.boundary(y if side == "s" else x, d, side)
        if d == k
        else A.comp(k, A.boundary(x, d, side), A.boundary(y, d, side))
    ),
}

# Each scheme takes an algebra A, the directions of a match, then its
# operands, and returns (left side, right side).
STRICT_SCHEMES = {
    "assoc": lambda A, d, x, y, z: (
        A.comp(d, x, A.comp(d, y, z)),
        A.comp(d, A.comp(d, x, y), z),
    ),
    # operands (x, target of x): comp[d](id[d](t), x) ~ x
    "unit-left": lambda A, d, x, t: (A.comp(d, A.refl(d, t), x), x),
    # operands (x, source of x): comp[d](x, id[d](s)) ~ x
    "unit-right": lambda A, d, x, s: (A.comp(d, x, A.refl(d, s)), x),
    # reflectors in direction up are functorial over d-compositions
    "id-functoriality": lambda A, d, up, x, y: (
        A.refl(up, A.comp(d, x, y)),
        A.comp(d, A.refl(up, x), A.refl(up, y)),
    ),
    # the e-composite of (x, y) over (w, z) equals the f-composite of
    # (x, w) over (y, z)
    "exchange": lambda A, e, f, x, y, w, z: (
        A.comp(f, A.comp(e, x, y), A.comp(e, w, z)),
        A.comp(e, A.comp(f, x, w), A.comp(f, y, z)),
    ),
}
INVOLUTIVE_SCHEMES = {
    "involutive": lambda A, d, x: (A.dual(d, A.dual(d, x)), x),
    "star-commute": lambda A, d, e, x: (A.dual(e, A.dual(d, x)), A.dual(d, A.dual(e, x))),
    # dual[d] reverses a composition in its own direction
    "star-antihomo": lambda A, d, x, y: (
        A.dual(d, A.comp(d, x, y)),
        A.comp(d, A.dual(d, y), A.dual(d, x)),
    ),
    # dual[e] passes through a d-composition for e distinct from d
    "star-homo-transverse": lambda A, d, e, x, y: (
        A.dual(e, A.comp(d, x, y)),
        A.comp(d, A.dual(e, x), A.dual(e, y)),
    ),
    "id-hermitian": lambda A, d, x: (A.dual(d, A.refl(d, x)), A.refl(d, x)),
    # dual[e](id[d](x)) ~ id[d](dual[e](x)) for e in the level of x
    "id-hermitian-transverse": lambda A, d, e, x: (
        A.dual(e, A.refl(d, x)),
        A.refl(d, A.dual(e, x)),
    ),
}
SCHEMES = {**STRICT_SCHEMES, **INVOLUTIVE_SCHEMES}
# contraction-projection holds only in free contractions; instantiate_relations
# grounds it, and a strict model has no contraction cells to check it on
FAMILIES = tuple(SCHEMES) + ("contraction-projection",)

# A side evaluated in this algebra is its node count as a term, so a size
# cap can be applied before any term is built.
NODE_COUNTS = SimpleNamespace(
    refl=lambda d, x: x + 1, dual=lambda d, x: x + 1, comp=lambda d, x, y: x + y + 1
)


@dataclass(frozen=True, slots=True)
class RelationInstance:
    family: str
    left: Term
    right: Term

    def __repr__(self) -> str:
        return f"<{self.family}: {self.left.text} ~ {self.right.text}>"


def reflector_dirs(config: TruncationConfig, level: LevelKey) -> list[int]:
    """Directions in which a cell of the level has a reflector one level up."""
    dim, dirs = level
    return [d for d in range(1, config.dir_universe + 1) if d not in dirs and dim < config.max_dim]


def _by_target(A, elems: list, d: int) -> dict:
    out: dict = {}
    for z in elems:
        out.setdefault(A.boundary(z, d, "t"), []).append(z)
    return out


def composable_pairs(A, elems: list, d: int) -> list:
    """Ordered pairs (x, y) of elements whose d-composite is defined."""
    targets = _by_target(A, elems, d)
    return [(x, y) for x in elems for y in targets.get(A.boundary(x, d, "s"), [])]


def ground_level(A, level: LevelKey, elems: list, upper: list[int], families, room=None):
    """Yield (family, directions, operands) for every scheme match at a level.

    elems are the level's elements of the algebra A, upper the
    directions in which they have reflectors, and families the scheme
    tags to match.  A.boundary must return canonical elements, so that
    equal faces are one object; interned terms and a presentation's
    indexed cells both are.  The order of the matches is part of the
    contract: instantiate_relations returns the instances in this order.

    room, when given, bounds the operand sizes: no match is yielded
    whose operands' ``.size`` add up to room or more, and the test sits
    in the loop that adds the last operand, so an oversized match is
    never built.  The elements and their faces need a ``.size`` then;
    the word problem passes its side cap, and the model validators,
    whose cells have no size, pass no room.  With a room the matches
    are the unbounded ones in the same order, less the oversized.
    """
    dim, dirs = level
    boundary = A.boundary
    sized = room is not None
    for x in elems:
        # sizes are never negative, so every match over an x this large
        # is oversized
        if sized and x.size >= room:
            continue
        for d in dirs:
            if "involutive" in families:
                yield "involutive", (d,), (x,)
            if "unit-right" in families:
                s = boundary(x, d, "s")
                if not sized or x.size + s.size < room:
                    yield "unit-right", (d,), (x, s)
            if "unit-left" in families:
                t = boundary(x, d, "t")
                if not sized or x.size + t.size < room:
                    yield "unit-left", (d,), (x, t)
            if "star-commute" in families:
                for e in dirs:
                    if e > d:
                        yield "star-commute", (d, e), (x,)
        for d in upper:
            if "id-hermitian" in families:
                yield "id-hermitian", (d,), (x,)
            if "id-hermitian-transverse" in families:
                for e in dirs:
                    yield "id-hermitian-transverse", (d, e), (x,)

    # one target index per direction, shared by the pairs, assoc and
    # exchange; it is built where the direction's pairs are listed, so a
    # builder computes (and may intern) faces in the same order as ever
    targets = {}
    for d in dirs:
        targets[d] = by_target = _by_target(A, elems, d)
        pairs = [(x, y) for x in elems for y in by_target.get(boundary(x, d, "s"), ())]
        if sized:
            # a pair too large on its own is too large under any third operand
            pairs = [(x, y) for x, y in pairs if x.size + y.size < room]
        for x, y in pairs:
            if "star-antihomo" in families:
                yield "star-antihomo", (d,), (x, y)
            if "star-homo-transverse" in families:
                for e in dirs:
                    if e != d:
                        yield "star-homo-transverse", (d, e), (x, y)
            if "id-functoriality" in families:
                for up in upper:
                    yield "id-functoriality", (d, up), (x, y)
        if "assoc" in families:
            for x, y in pairs:
                zs = by_target.get(boundary(y, d, "s"), ())
                if sized:
                    left = room - x.size - y.size
                    zs = [z for z in zs if z.size < left]
                for z in zs:
                    yield "assoc", (d,), (x, y, z)

    if "exchange" in families and dim >= 2:
        for e in dirs:
            e_targets = targets[e]
            for f in dirs:
                if f == e:
                    continue
                f_targets = targets[f]
                for x in elems:
                    ws = f_targets.get(boundary(x, f, "s"), [])
                    for y in e_targets.get(boundary(x, e, "s"), []):
                        sy_f = boundary(y, f, "s")
                        for w in ws:
                            for z in e_targets.get(boundary(w, e, "s"), []):
                                if boundary(z, f, "t") is sy_f and (
                                    not sized or x.size + y.size + w.size + z.size < room
                                ):
                                    yield "exchange", (e, f), (x, y, w, z)
