"""Free terms over a cubical presentation.

Terms are built from generator leaves by three operation families, each
indexed by a direction: reflectors (degenerate identity cells, written
``id[d]``), duals (``dual[d]``), and binary compositions (``comp[d]``).
A fourth constructor ``kappa[d]`` builds contraction cells, but only on
parallel pairs certified by admit_kappa_pair; see the contraction module.

A TermBuilder hash-conses every node, so structural equality is object
identity and each node carries a stable arena id.  Boundaries are
computed structurally and cached.  A generator's faces come from the
presentation tables, and those of ``id``, ``dual`` and ``comp`` nodes
from relations.FACE_LAWS, which the strict model validators check
tables against too.  ``kappa[d](x, y)`` exists only as a term: it has
d-source x, d-target y, and contracts facewise in other directions,
collapsing to a reflector whenever the two faces coincide.

Composition ``comp[d](x, y)`` requires the d-source of x to coincide
with the d-target of y on the nose; the mismatch error carries both
boundary terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .presentation import (
    CellRef,
    CubicalSetPresentation,
    Dirs,
    LevelKey,
    ValidationReport,
    dirs_with,
    faces_commute,
    format_level,
)
from .relations import FACE_LAWS

GEN = "gen"
REFL = "id"
DUAL = "dual"
COMP = "comp"
KAPPA = "kappa"


class TermError(Exception):
    """Raised for ill-formed term constructions."""


class CompositionMismatch(TermError):
    """Composition attempted on a pair whose boundaries do not meet."""

    def __init__(self, d: int, left: "Term", right: "Term", left_source: "Term", right_target: "Term"):
        self.d = d
        self.left = left
        self.right = right
        self.left_source = left_source
        self.right_target = right_target
        super().__init__(
            f"comp[{d}]: source of {left.text} is {left_source.text} "
            f"but target of {right.text} is {right_target.text}"
        )


class KappaError(TermError):
    """Contraction cell requested without a certified parallel pair."""


@dataclass(frozen=True, eq=False, slots=True)
class Term:
    """One hash-consed node.  Compare with ``is``; nodes never mutate."""

    nid: int
    kind: str
    d: int
    cell: CellRef | None
    args: tuple["Term", ...]
    dim: int
    dirs: Dirs
    size: int
    weight: int
    text: str

    @property
    def level(self) -> LevelKey:
        return (self.dim, self.dirs)

    @property
    def body(self) -> "Term":
        return self.args[0]

    @property
    def left(self) -> "Term":
        return self.args[0]

    @property
    def right(self) -> "Term":
        return self.args[1]

    @property
    def sort_key(self) -> tuple[int, str]:
        return (self.size, self.text)

    def __repr__(self) -> str:
        return f"<{self.text}>"


class TermBuilder:
    """Arena of interned terms over one presentation.

    Contraction cells are only constructible for pairs registered
    through admit_kappa_pair, which is how a congruence session
    certifies that the two sides project to the same cell of the
    quotient.

    The intern table and the face cache are indexed by node id rather
    than by term.  The intern table maps ``(tag, d, child nids...)`` to
    a node, so its keys hold only ints and strings and the cyclic
    collector stops tracking them; it accepts a hit only when the
    node's children are the very arguments given.  The face cache is
    one flat list with ``2 * dir_universe`` slots per node: node n's
    face in direction d, side s or t, sits at
    ``n * stride + 2 * (d - 1) + (side == "t")``, read only once the
    arguments and the term's owner have been checked.  Either way a
    term of another builder whose id collides with a node of this one
    never hits, and misses check ownership (_own).
    """

    def __init__(self, presentation: CubicalSetPresentation):
        self.presentation = presentation
        self.config = presentation.config
        self.terms: list[Term] = []
        self._intern: dict[tuple, Term] = {}
        self._stride = 2 * self.config.dir_universe
        self._faces: list[Term | None] = []
        self._kappa_ok: set[tuple[Term, Term]] = set()

    def __len__(self) -> int:
        return len(self.terms)

    def _own(self, *args: Term) -> None:
        """Reject arguments interned by another builder."""
        terms = self.terms
        for t in args:
            if t.nid >= len(terms) or terms[t.nid] is not t:
                raise TermError(f"{t.text} was built by another builder")

    def _new(
        self,
        key: tuple,
        kind: str,
        d: int,
        cell: CellRef | None,
        args: tuple[Term, ...],
        dim: int,
        dirs: Dirs,
        size: int,
        weight: int,
        text: str,
    ) -> Term:
        # callers look the key up first, so a hit skips validation and text;
        # Term is built positionally, which costs about half a keyword build
        node = Term(len(self.terms), kind, d, cell, args, dim, dirs, size, weight, text)
        self.terms.append(node)
        self._intern[key] = node
        self._faces.extend([None] * self._stride)
        return node

    # -- constructors --------------------------------------------------

    def gen(self, cell: CellRef) -> Term:
        key = ("g", cell.dim, cell.dirs, cell.name)
        found = self._intern.get(key)
        if found is not None:
            return found
        if not self.presentation.has_cell(cell):
            raise TermError(f"unknown generator {cell}")
        return self._new(
            key,
            kind=GEN,
            d=0,
            cell=cell,
            args=(),
            dim=cell.dim,
            dirs=cell.dirs,
            size=1,
            weight=0,
            text=f"gen({cell.name})",
        )

    def refl(self, d: int, x: Term) -> Term:
        key = ("r", d, x.nid)
        found = self._intern.get(key)
        if found is not None and found.args[0] is x:
            return found
        self._own(x)
        if d in x.dirs:
            raise TermError(f"id[{d}]: {x.text} already extends along direction {d}")
        if d < 1 or d > self.config.dir_universe:
            raise TermError(f"id[{d}]: direction outside universe 1..{self.config.dir_universe}")
        if x.dim + 1 > self.config.max_dim:
            raise TermError(f"id[{d}]({x.text}) would exceed max_dim {self.config.max_dim}")
        return self._new(
            key,
            kind=REFL,
            d=d,
            cell=None,
            args=(x,),
            dim=x.dim + 1,
            dirs=dirs_with(x.dirs, d),
            size=x.size + 1,
            weight=x.weight + 1,
            text=f"id[{d}]({x.text})",
        )

    def dual(self, d: int, x: Term) -> Term:
        key = ("d", d, x.nid)
        found = self._intern.get(key)
        if found is not None and found.args[0] is x:
            return found
        self._own(x)
        if d not in x.dirs:
            raise TermError(f"dual[{d}]: {x.text} does not extend along direction {d}")
        return self._new(
            key,
            kind=DUAL,
            d=d,
            cell=None,
            args=(x,),
            dim=x.dim,
            dirs=x.dirs,
            size=x.size + 1,
            weight=x.weight + 1,
            text=f"dual[{d}]({x.text})",
        )

    def comp(self, d: int, x: Term, y: Term) -> Term:
        key = ("c", d, x.nid, y.nid)
        found = self._intern.get(key)
        if found is not None and found.args[0] is x and found.args[1] is y:
            return found
        self._own(x, y)
        if x.dirs != y.dirs:
            raise TermError(
                f"comp[{d}]: operands live at different levels "
                f"{format_level(x.level)} and {format_level(y.level)}"
            )
        if d not in x.dirs:
            raise TermError(f"comp[{d}]: operands do not extend along direction {d}")
        sx = self.boundary(x, d, "s")
        ty = self.boundary(y, d, "t")
        if sx is not ty:
            raise CompositionMismatch(d, x, y, sx, ty)
        return self._new(
            key,
            kind=COMP,
            d=d,
            cell=None,
            args=(x, y),
            dim=x.dim,
            dirs=x.dirs,
            size=x.size + y.size + 1,
            weight=x.weight + y.weight + 1,
            text=f"comp[{d}]({x.text},{y.text})",
        )

    def kappa(self, d: int, x: Term, y: Term) -> Term:
        key = ("k", d, x.nid, y.nid)
        found = self._intern.get(key)
        if found is not None and found.args[0] is x and found.args[1] is y:
            return found
        self._own(x, y)
        if x.dirs != y.dirs:
            raise TermError(
                f"kappa[{d}]: operands live at different levels "
                f"{format_level(x.level)} and {format_level(y.level)}"
            )
        if d in x.dirs:
            raise TermError(f"kappa[{d}]: {x.text} already extends along direction {d}")
        if d < 1 or d > self.config.dir_universe:
            raise TermError(f"kappa[{d}]: direction outside universe 1..{self.config.dir_universe}")
        if x.dim + 1 > self.config.max_dim:
            raise TermError(f"kappa[{d}] would exceed max_dim {self.config.max_dim}")
        if x is y:
            # contracting a cell against itself is the degenerate identity
            return self.refl(d, x)
        if (x, y) not in self._kappa_ok:
            raise KappaError(
                f"kappa[{d}]({x.text},{y.text}): pair carries no projection certificate"
            )
        return self._new(
            key,
            kind=KAPPA,
            d=d,
            cell=None,
            args=(x, y),
            dim=x.dim + 1,
            dirs=dirs_with(x.dirs, d),
            size=x.size + y.size + 1,
            weight=x.weight + y.weight + 1,
            text=f"kappa[{d}]({x.text},{y.text})",
        )

    def admit_kappa_pair(self, x: Term, y: Term) -> None:
        """Certify a parallel pair (and, recursively, its face pairs).

        Face pairs of a certified pair are certified too, which keeps
        the boundary of every kappa cell constructible.
        """
        if x is y:
            return
        if (x, y) in self._kappa_ok:
            return
        self._own(x, y)
        if x.dirs != y.dirs:
            raise TermError("kappa certificate requires operands at the same level")
        self._kappa_ok.add((x, y))
        self._kappa_ok.add((y, x))
        for e in x.dirs:
            for side in ("s", "t"):
                self.admit_kappa_pair(self.boundary(x, e, side), self.boundary(y, e, side))

    # -- boundaries ----------------------------------------------------

    def boundary(self, t: Term, d: int, side: str) -> Term:
        """The source ("s") or target ("t") face of t in direction d."""
        terms = self.terms
        nid = t.nid
        if (side == "s" or side == "t") and d in t.dirs and nid < len(terms) and terms[nid] is t:
            slot = nid * self._stride + 2 * d - 2 + (side == "t")
            cached = self._faces[slot]
            if cached is not None:
                return cached
        else:
            self._own(t)
            if side not in ("s", "t"):
                raise TermError(f"boundary side must be 's' or 't', got {side!r}")
            raise TermError(f"{t.text} has no direction {d}")
        if t.kind == GEN:
            res = self.gen(self.presentation.face(t.cell, d, side))
        elif t.kind == KAPPA:
            if d == t.d:
                res = t.left if side == "s" else t.right
            else:
                res = self.kappa(
                    t.d, self.boundary(t.left, d, side), self.boundary(t.right, d, side)
                )
        else:
            res = FACE_LAWS[t.kind](self, t.d, d, side, *t.args)
        self._faces[slot] = res
        return res

@dataclass
class TermUniverse:
    """A finite, boundary-closed slice of the free term algebra.

    levels maps each level to its terms sorted by (size, text).
    truncated records whether the enumeration frontier was still
    producing new terms when a bound cut it off.
    """

    builder: TermBuilder
    levels: dict[LevelKey, list[Term]]
    truncated: bool

    @property
    def presentation(self) -> CubicalSetPresentation:
        return self.builder.presentation

    @property
    def size(self) -> int:
        return sum(len(v) for v in self.levels.values())

    def level(self, dim: int, dirs) -> list[Term]:
        from .presentation import make_dirs

        return self.levels.get((dim, make_dirs(dirs)), [])

    def all_terms(self):
        for level in sorted(self.levels):
            yield from self.levels[level]

    def __contains__(self, t: Term) -> bool:
        # terms hash by identity, so a term of another builder is never a member
        return t in self._members

    def __post_init__(self) -> None:
        self._members = {t for terms in self.levels.values() for t in terms}

    def counts(self) -> dict[str, int]:
        return {format_level(lv): len(ts) for lv, ts in sorted(self.levels.items())}


def enumerate_free_magma(
    p_or_builder,
    depth: int | None = None,
    *,
    size_cap: int | None = None,
    max_stage_dim: int | None = None,
    extra_atoms: list[Term] = (),
) -> TermUniverse:
    """Enumerate all free terms with at most ``depth`` operation nodes.

    Accepts a presentation (a fresh builder is created) or an existing
    builder.  Stage w lists every well-formed term with exactly w
    operations; generators are stage 0.  size_cap additionally prunes
    terms by node count, and max_stage_dim caps the dimension (used by
    the stagewise contraction build).  Terms in
    extra_atoms are injected as atoms at their own stage; atoms heavier
    than depth are appended at the end rather than dropped, and the
    result is closed under boundaries so face tables never dangle.
    """
    if isinstance(p_or_builder, TermBuilder):
        builder = p_or_builder
    else:
        builder = TermBuilder(p_or_builder)
    cfg = builder.config
    if depth is None:
        depth = cfg.term_depth
    dim_cap = cfg.max_dim if max_stage_dim is None else min(max_stage_dim, cfg.max_dim)

    members: set[int] = set()
    out: list[Term] = []
    truncated = False

    def admit(t: Term, force: bool = False) -> bool:
        # force bypasses the size cap for requested atoms
        nonlocal truncated
        if t.dim > dim_cap:
            return False
        if not force and size_cap is not None and t.size > size_cap:
            truncated = True
            return False
        if t.nid in members:
            return False
        members.add(t.nid)
        out.append(t)
        return True

    atoms_by_stage: dict[int, list[Term]] = {}
    heavy_atoms: list[Term] = []
    for a in extra_atoms:
        if a.weight <= depth:
            atoms_by_stage.setdefault(a.weight, []).append(a)
        else:
            heavy_atoms.append(a)

    # stage -> level -> (d, target-face nid) -> terms, for composability lookup
    tgt_index: list[dict[tuple[LevelKey, int, int], list[Term]]] = []
    stages: list[list[Term]] = []

    def index_stage(stage: list[Term]) -> dict:
        idx: dict[tuple[LevelKey, int, int], list[Term]] = {}
        for t in stage:
            for d in t.dirs:
                key = (t.level, d, builder.boundary(t, d, "t").nid)
                idx.setdefault(key, []).append(t)
        return idx

    stage0 = []
    for level in sorted(builder.presentation.cells):
        if level[0] > dim_cap:
            continue
        for cell in builder.presentation.cells[level]:
            t = builder.gen(cell)
            if admit(t):
                stage0.append(t)
    for a in atoms_by_stage.get(0, []):
        if admit(a, force=True):
            stage0.append(a)
    stages.append(stage0)
    tgt_index.append(index_stage(stage0))

    def stage_candidates(w: int):
        """Every operation application landing at stage w, in fixed order."""
        for x in stages[w - 1]:
            for d in range(1, cfg.dir_universe + 1):
                if d not in x.dirs and x.dim + 1 <= dim_cap:
                    yield builder.refl(d, x)
            for d in x.dirs:
                yield builder.dual(d, x)
        for wx in range(w):
            wy = w - 1 - wx
            for x in stages[wx]:
                for d in x.dirs:
                    key = (x.level, d, builder.boundary(x, d, "s").nid)
                    for y in tgt_index[wy].get(key, []):
                        yield builder.comp(d, x, y)

    for w in range(1, depth + 1):
        fresh: list[Term] = []
        for a in atoms_by_stage.get(w, []):
            if admit(a, force=True):
                fresh.append(a)
        for t in stage_candidates(w):
            if admit(t):
                fresh.append(t)
        stages.append(fresh)
        tgt_index.append(index_stage(fresh))

    # probe one stage past the bound so the truncation flag is exact
    if not truncated:
        for t in stage_candidates(depth + 1):
            if t.nid not in members and (size_cap is None or t.size <= size_cap):
                truncated = True
                break

    for a in heavy_atoms:
        if a.dim <= dim_cap and a.nid not in members:
            members.add(a.nid)
            out.append(a)
            truncated = True

    # close under boundaries; only heavy atoms can contribute new faces
    frontier = list(out)
    while frontier:
        t = frontier.pop()
        for d in t.dirs:
            for side in ("s", "t"):
                b = builder.boundary(t, d, side)
                if b.nid not in members:
                    members.add(b.nid)
                    out.append(b)
                    frontier.append(b)

    levels: dict[LevelKey, list[Term]] = {}
    for t in out:
        levels.setdefault(t.level, []).append(t)
    for terms in levels.values():
        terms.sort(key=lambda t: t.sort_key)
    return TermUniverse(
        builder=builder,
        levels=dict(sorted(levels.items())),
        truncated=truncated,
    )


def check_cubical_on_terms(u: TermUniverse) -> ValidationReport:
    """Verify facewise commutation on every enumerated term of dim >= 2."""
    report = ValidationReport(subject="cubical-axioms(free terms)")
    for level in sorted(u.levels):
        faces_commute(report, level, u.levels[level], u.builder.boundary, lambda t: t.text)
    return report


# -- parsing -----------------------------------------------------------

_NAME = re.compile(r"[^\s()\[\],]+")


class TermParseError(TermError):
    pass


def parse_term(text: str, builder: TermBuilder) -> Term:
    """Parse the printable term syntax back into arena nodes.

    The grammar matches exactly what Term.text prints: ``gen(name)``,
    ``id[d](t)``, ``dual[d](t)``, ``comp[d](t,u)``, ``kappa[d](t,u)``.
    Whitespace between tokens is tolerated on input.
    """
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch: str) -> None:
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            got = text[pos] if pos < len(text) else "end of input"
            raise TermParseError(f"expected {ch!r} at position {pos}, got {got!r}")
        pos += 1

    def parse_int() -> int:
        nonlocal pos
        skip_ws()
        m = re.match(r"\d+", text[pos:])
        if not m:
            raise TermParseError(f"expected a direction at position {pos}")
        pos += m.end()
        return int(m.group())

    def parse_name() -> str:
        nonlocal pos
        skip_ws()
        m = _NAME.match(text, pos)
        if not m:
            raise TermParseError(f"expected a name at position {pos}")
        pos = m.end()
        return m.group()

    def parse_node() -> Term:
        nonlocal pos
        head = parse_name()
        if head == GEN:
            expect("(")
            name = parse_name()
            expect(")")
            cell = _find_cell(builder.presentation, name)
            return builder.gen(cell)
        if head not in (REFL, DUAL, COMP, KAPPA):
            raise TermParseError(f"unknown head {head!r}")
        expect("[")
        d = parse_int()
        expect("]")
        expect("(")
        first = parse_node()
        if head in (REFL, DUAL):
            expect(")")
            return builder.refl(d, first) if head == REFL else builder.dual(d, first)
        expect(",")
        second = parse_node()
        expect(")")
        if head == COMP:
            return builder.comp(d, first, second)
        return builder.kappa(d, first, second)

    node = parse_node()
    skip_ws()
    if pos != len(text):
        raise TermParseError(f"trailing input at position {pos}: {text[pos:]!r}")
    return node


def _find_cell(p: CubicalSetPresentation, name: str) -> CellRef:
    matches = [c for refs in p.cells.values() for c in refs if c.name == name]
    if not matches:
        raise TermParseError(f"no generator named {name!r}")
    if len(matches) > 1:
        raise TermParseError(
            f"generator name {name!r} is ambiguous across levels "
            f"{[format_level(c.level) for c in matches]}"
        )
    return matches[0]
