"""Finite strict involutive cubical categories as explicit tables.

A StrictCategoryTable extends a presentation with reflector, dual, and
composition tables.  Compositions are partial: the table for a level
and direction must be defined on exactly the boundary-compatible pairs
of that level.  validate_strict checks totality and typing, then the
faces of every table entry against relations.FACE_LAWS (the laws the
free terms' boundaries are computed with), then the strict schemes of
the relations module (associativity, units, functoriality of
reflectors, exchange);
validate_involutive checks its involutive schemes (the laws of duals).
Both ground the schemes over the table's own cells and evaluate both
sides in its tables, so a model is checked against the very schemes
that generate the word problem.  Every failure is reported under the
scheme's tag with the witnessing cells, directions and values.

Each validator call reads the tables through their own lookups,
refl_of, dual_of, comp_of and the presentation's face, memoised for
that call (_resolve), so the face-law pass and the schemes pay for a
lookup once and then a dict hit per operation, and every error reads as
it does in evaluation.  The memo dies with the call, so a table edited
between two calls is checked as edited.  Totality and typing
(_check_table) stay per entry on the names.  One rule (_image) turns an
entry into a cell, under which an entry naming an absent cell is an
EvalError.

Evaluation interprets free terms in a table via a generator assignment,
and check_universal_factorization certifies that this interpretation is
the unique structure-preserving extension of the assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

from .presentation import (
    CellRef,
    CubicalSetPresentation,
    Dirs,
    LevelKey,
    PresentationError,
    SetMorphism,
    ValidationReport,
    dirs_with,
    format_level,
    json_object,
    name_table,
    parse_level,
    validate_cubical_axioms,
    validate_morphism,
    validate_quiver,
)
from .relations import (
    FACE_LAWS,
    INVOLUTIVE_SCHEMES,
    STRICT_SCHEMES,
    composable_pairs,
    ground_level,
    reflector_dirs,
)
from .term import COMP, DUAL, GEN, KAPPA, REFL, Term, TermUniverse

OpKey = tuple[int, Dirs, int]  # level dim, level dirs, direction


class EvalError(Exception):
    """Raised when a term cannot be interpreted in a table."""


@dataclass
class StrictCategoryTable:
    """Operation tables over an underlying presentation.

    refl is keyed by the level of the resulting degenerate cell; its
    tables map a cell name one level down to its reflector here.  dual
    tables stay within a level.  comp tables map ordered name pairs
    (x, y) with source(x) = target(y) to the composite.
    """

    underlying: CubicalSetPresentation
    refl: dict[OpKey, dict[str, str]] = field(default_factory=dict)
    dual: dict[OpKey, dict[str, str]] = field(default_factory=dict)
    comp: dict[OpKey, dict[tuple[str, str], str]] = field(default_factory=dict)
    name: str = ""

    # -- operation lookups (hard errors; validation reports separately) --

    def refl_of(self, cell: CellRef, d: int) -> CellRef:
        dim, dirs = cell.dim + 1, dirs_with(cell.dirs, d)
        z = _image(self.underlying, self.refl.get((dim, dirs, d)), cell.name, (dim, dirs))
        if z is None:
            raise EvalError(f"no reflector of {cell} in direction {d}")
        return z

    def dual_of(self, cell: CellRef, d: int) -> CellRef:
        z = _image(self.underlying, self.dual.get((cell.dim, cell.dirs, d)), cell.name, cell.level)
        if z is None:
            raise EvalError(f"no dual of {cell} in direction {d}")
        return z

    def comp_of(self, d: int, x: CellRef, y: CellRef) -> CellRef:
        level = x.level
        if level != y.level:
            raise EvalError(f"composition of cells at different levels {x} and {y}")
        z = _image(self.underlying, self.comp.get((x.dim, x.dirs, d)), (x.name, y.name), level)
        if z is None:
            raise EvalError(f"no composite of ({x.name}, {y.name}) in direction {d}")
        return z

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        base = self.underlying.to_dict()
        base["refl"] = {
            f"{format_level((k[0], k[1]))}/{k[2]}": dict(sorted(t.items()))
            for k, t in sorted(self.refl.items())
        }
        base["dual"] = {
            f"{format_level((k[0], k[1]))}/{k[2]}": dict(sorted(t.items()))
            for k, t in sorted(self.dual.items())
        }
        base["comp"] = {
            f"{format_level((k[0], k[1]))}/{k[2]}": [
                [x, y, z] for (x, y), z in sorted(t.items())
            ]
            for k, t in sorted(self.comp.items())
        }
        return base

    @classmethod
    def from_dict(cls, data: dict, name: str = "") -> "StrictCategoryTable":
        underlying = CubicalSetPresentation.from_dict(data, name=name)

        def parse_op_key(key: str) -> OpKey:
            level_part, _, d_part = key.rpartition("/")
            level = parse_level(level_part)
            try:
                d = int(d_part)
            except ValueError:
                raise PresentationError(f"malformed operation key {key!r}") from None
            return (level[0], level[1], d)

        def tables(op: str) -> dict:
            return {
                parse_op_key(k): dict(name_table(t, f"{op} table {k!r}"))
                for k, t in json_object(data.get(op, {}), op).items()
            }

        refl, dual = tables("refl"), tables("dual")
        comp: dict[OpKey, dict[tuple[str, str], str]] = {}
        for k, triples in json_object(data.get("comp", {}), "comp").items():
            if not isinstance(triples, list):
                raise PresentationError(
                    f"comp table {k!r} must be a list of triples, got {type(triples).__name__}"
                )
            table: dict[tuple[str, str], str] = {}
            for entry in triples:
                if not (isinstance(entry, list) and len(entry) == 3):
                    raise PresentationError(f"comp entry {entry!r} is not a triple")
                if any(not isinstance(n, str) for n in entry):
                    raise PresentationError(f"comp entry {entry!r} names a non-string")
                x, y, z = entry
                table[(x, y)] = z
            comp[parse_op_key(k)] = table
        return cls(underlying, refl, dual, comp, name=name)


def _image(p: CubicalSetPresentation, table: dict | None, key, level: LevelKey) -> CellRef | None:
    """The cell of p at level that a name table gives for key, or None
    when it gives none; an entry naming an absent cell is an EvalError."""
    name = None if table is None else table.get(key)
    if name is None:
        return None
    z = p._index.get((level, name))
    if z is None:
        raise EvalError(f"entry {key!r} names {name!r}, absent at level {format_level(level)}")
    return z


def _resolve(c: StrictCategoryTable) -> SimpleNamespace:
    """A validator's operations: the table's own lookups, memoised for one call.

    Each operation keeps one map per direction (comp one per direction
    and left operand), filled on a miss by refl_of, dual_of, comp_of or
    the presentation's face, so a miss raises the error evaluation does.
    """
    refls: dict[int, dict[CellRef, CellRef]] = {}
    duals: dict[int, dict[CellRef, CellRef]] = {}
    comps: dict[int, dict[CellRef, dict[CellRef, CellRef]]] = {}
    faces: dict[str, dict[int, dict[CellRef, CellRef]]] = {"s": {}, "t": {}}
    refl_of, dual_of, comp_of, face = c.refl_of, c.dual_of, c.comp_of, c.underlying.face

    def refl(d: int, x: CellRef) -> CellRef:
        try:
            return refls[d][x]
        except KeyError:
            z = refls.setdefault(d, {})[x] = refl_of(x, d)
            return z

    def dual(d: int, x: CellRef) -> CellRef:
        try:
            return duals[d][x]
        except KeyError:
            z = duals.setdefault(d, {})[x] = dual_of(x, d)
            return z

    def comp(d: int, x: CellRef, y: CellRef) -> CellRef:
        try:
            return comps[d][x][y]
        except KeyError:
            z = comps.setdefault(d, {}).setdefault(x, {})[y] = comp_of(d, x, y)
            return z

    def boundary(x: CellRef, d: int, side: str) -> CellRef:
        try:
            return faces[side][d][x]
        except KeyError:
            z = faces[side].setdefault(d, {})[x] = face(x, d, side)
            return z

    return SimpleNamespace(refl=refl, dual=dual, comp=comp, boundary=boundary)


def validate_strict(c: StrictCategoryTable) -> ValidationReport:
    """Exhaustively check typing, boundary laws, and strictness axioms."""
    p = c.underlying
    report = ValidationReport(subject=f"strict({c.name or 'table'})")
    report.merge(validate_quiver(p))
    report.merge(validate_cubical_axioms(p))
    if not report.ok:
        # boundary laws below would cascade on broken faces
        return report

    ops = _resolve(c)
    for level in p.levels():
        dim, dirs = level
        names = [cell.name for cell in p.cells[level]]
        for d in reflector_dirs(p.config, level):
            up = (dim + 1, dirs_with(dirs, d))
            _check_table(report, "refl", level, d, c.refl.get((*up, d), {}), names, p, up)
        for d in dirs:
            key = (dim, dirs, d)
            pairs = [(x.name, y.name) for x, y in composable_pairs(ops, p.cells[level], d)]
            _check_table(report, "dual", level, d, c.dual.get(key, {}), names, p, level)
            _check_table(report, "comp", level, d, c.comp.get(key, {}), pairs, p, level)
    if not report.ok:
        return report

    # every face of every table entry against relations.FACE_LAWS
    boundary = ops.boundary
    for kind, level, k, operands in _applications(p, ops):
        op = _OP_NAMES[kind]
        z = getattr(ops, op)(k, *operands)
        law = FACE_LAWS[kind]
        for e in z.dirs:
            for side in ("s", "t"):
                report.checked += 1
                got = boundary(z, e, side)
                want = law(ops, k, e, side, *operands)
                if got is not want and got != want:
                    tag = _AXIS_TAGS[kind, side] if e == k else f"{op}-transverse"
                    cells = ", ".join(repr(x.name) for x in operands)
                    report.add(
                        tag,
                        level,
                        f"{side}-face({e}) of {op}[{k}]({cells}) is {got.name!r}, "
                        f"expected {want.name!r}",
                    )
    if not report.ok:
        # with boundary laws broken, nested composites below may be undefined
        return report
    return _check_schemes(p, ops, report, STRICT_SCHEMES)


_OP_NAMES = {REFL: "refl", DUAL: "dual", COMP: "comp"}
# the tag of a face law violated in the operation's own direction
_AXIS_TAGS = {
    (REFL, "s"): "refl-degenerate",
    (REFL, "t"): "refl-degenerate",
    (DUAL, "s"): "dual-swap",
    (DUAL, "t"): "dual-swap",
    (COMP, "s"): "comp-source",
    (COMP, "t"): "comp-target",
}


def _check_table(
    report: ValidationReport,
    op: str,
    level: LevelKey,
    d: int,
    table: dict,
    domain: list,
    p: CubicalSetPresentation,
    values_at: LevelKey,
) -> None:
    """Check that an operation table is total on its domain and typed.

    domain lists the keys the table must define, and every value must
    name a cell at level values_at.  Keys outside the domain are
    reported as unknown cells, or as non-composable pairs for comp.
    """
    values = {cell.name for cell in p.cells.get(values_at, [])}
    for key in domain:
        report.checked += 1
        if key not in table:
            report.add(f"{op}-total", level, f"no {op} entry for {key!r} in direction {d}")
        elif table[key] not in values:
            report.add(
                f"{op}-typing",
                level,
                f"{op} of {key!r} in direction {d} names {table[key]!r}, "
                f"absent at level {format_level(values_at)}",
            )
    extra_tag = "comp-domain" if op == "comp" else f"{op}-unknown-cell"
    for extra in sorted(set(table) - set(domain)):
        report.add(extra_tag, level, f"{op} table for direction {d} is defined on {extra!r}")


def _upper_dirs(p: CubicalSetPresentation, level: LevelKey) -> list[int]:
    """Reflector directions of a level whose upper level has cells."""
    dim, dirs = level
    return [d for d in reflector_dirs(p.config, level) if (dim + 1, dirs_with(dirs, d)) in p.cells]


def _applications(p: CubicalSetPresentation, ops: SimpleNamespace):
    """Yield (kind, level, direction, operands) for every table entry.

    level is that of the operands; a reflector lands one level up.
    """
    for level in p.levels():
        dirs = level[1]
        upper = _upper_dirs(p, level)
        for cell in p.cells[level]:
            for k in upper:
                yield REFL, level, k, (cell,)
            for k in dirs:
                yield DUAL, level, k, (cell,)
        for k in dirs:
            for pair in composable_pairs(ops, p.cells[level], k):
                yield COMP, level, k, pair


def validate_involutive(c: StrictCategoryTable) -> ValidationReport:
    """Exhaustively check the axioms governing the dual tables.

    Missing or mistyped table entries surface as violations on the
    axiom that needed them, so broken tables yield reports, not
    exceptions.
    """
    p = c.underlying
    report = ValidationReport(subject=f"involutive({c.name or 'table'})")
    structural = validate_quiver(p)
    if not structural.ok:
        report.merge(structural)
        return report
    return _check_schemes(p, _resolve(c), report, INVOLUTIVE_SCHEMES)


def _check_schemes(
    p: CubicalSetPresentation, ops: SimpleNamespace, report: ValidationReport, schemes: dict
) -> ValidationReport:
    """Evaluate both sides of every grounded instance of the schemes in the table.

    A level's reflector directions are those whose upper level has
    cells.  A violation carries the scheme's tag and names the operand
    cells, the directions and both values, or the side that failed to
    evaluate.
    """
    checked = 0
    for level in p.levels():
        upper = _upper_dirs(p, level)
        for family, ds, operands in ground_level(ops, level, p.cells[level], upper, schemes):
            checked += 1
            try:
                lhs, rhs = schemes[family](ops, *ds, *operands)
            except EvalError as exc:
                outcome = f"side undefined ({exc})"
            else:
                if lhs is rhs or lhs == rhs:
                    continue
                outcome = f"{lhs.name!r} vs {rhs.name!r}"
            cells = ", ".join(repr(x.name) for x in operands)
            where = ",".join(map(str, ds))
            report.add(family, level, f"{family} on cells {cells}, direction(s) {where}: {outcome}")
    report.checked += checked
    return report


# -- evaluation --------------------------------------------------------


@dataclass(eq=False)
class GeneratorAssignment:
    """Images in a strict table for every generator of a presentation.

    Assignments compare and hash by identity, so a session can key its
    memoised images by the assignment itself.
    """

    source: CubicalSetPresentation
    target: StrictCategoryTable
    maps: dict[LevelKey, dict[str, str]]
    name: str = ""

    def apply(self, cell: CellRef) -> CellRef:
        z = _image(self.target.underlying, self.maps.get(cell.level), cell.name, cell.level)
        if z is None:
            raise EvalError(f"assignment undefined on generator {cell}")
        return z

    def as_set_morphism(self) -> SetMorphism:
        return SetMorphism(self.source, self.target.underlying, self.maps, name=self.name)

    def validate(self) -> ValidationReport:
        return validate_morphism(self.as_set_morphism())

    @classmethod
    def from_dict(
        cls,
        data: dict,
        source: CubicalSetPresentation,
        target: StrictCategoryTable,
        name: str = "",
    ) -> "GeneratorAssignment":
        maps = {
            parse_level(k): dict(name_table(t, f"maps at {k!r}"))
            for k, t in json_object(data.get("maps", {}), "maps").items()
        }
        return cls(source, target, maps, name=name)


class Evaluator:
    """Structural interpretation of terms in a strict table, memoized."""

    def __init__(self, assignment: GeneratorAssignment):
        self.assignment = assignment
        self.table = assignment.target
        # keyed by the term itself: terms hash by identity, so a term of
        # another builder with a colliding nid never hits this cache
        self._cache: dict[Term, CellRef] = {}

    def eval(self, t: Term) -> CellRef:
        cache = self._cache
        found = cache.get(t)
        if found is not None:
            return found
        kind = t.kind
        if kind == GEN:
            res = self.assignment.apply(t.cell)
        elif kind == REFL:
            res = self.table.refl_of(self.eval(t.args[0]), t.d)
        elif kind == DUAL:
            res = self.table.dual_of(self.eval(t.args[0]), t.d)
        elif kind == COMP:
            x, y = t.args
            res = self.table.comp_of(t.d, self.eval(x), self.eval(y))
        elif kind == KAPPA:
            raise EvalError(
                f"{t.text}: contraction cells have no interpretation in a strict table"
            )
        else:  # pragma: no cover
            raise EvalError(f"unknown node kind {t.kind!r}")
        cache[t] = res
        return res


def tabular_extension(
    universe: TermUniverse, assignment: GeneratorAssignment
) -> dict[int, CellRef]:
    """Extend an assignment over a universe without structural recursion.

    Worklist version kept deliberately separate from Evaluator: terms
    are processed in increasing size order, so every child image is
    already tabulated when a node is reached.  Used to cross-check that
    the homomorphic extension is unique.
    """
    table = assignment.target
    images: dict[int, CellRef] = {}
    pending = sorted(
        (t for t in universe.all_terms()), key=lambda t: (t.size, t.text)
    )
    for t in pending:
        if t.kind == GEN:
            images[t.nid] = assignment.apply(t.cell)
        elif t.kind == REFL:
            images[t.nid] = table.refl_of(images[t.body.nid], t.d)
        elif t.kind == DUAL:
            images[t.nid] = table.dual_of(images[t.body.nid], t.d)
        elif t.kind == COMP:
            images[t.nid] = table.comp_of(t.d, images[t.left.nid], images[t.right.nid])
        else:
            raise EvalError(f"{t.text}: no tabular image for kind {t.kind!r}")
    return images


def check_universal_factorization(
    assignment: GeneratorAssignment, universe: TermUniverse
) -> ValidationReport:
    """Certify the homomorphic extension property of evaluation.

    Checks, over every term of the universe, that the extension
    commutes with boundaries.  It agrees with the assignment on
    generators and commutes with the three operation families by
    construction, since Evaluator maps a generator through
    assignment.apply and computes every other image from its children's
    images; a second,
    independently coded extension (tabular_extension) must agree node
    by node, which pins uniqueness on the enumerated fragment.  A term
    whose image, or a face's image, the table leaves undefined is a
    violation tagged eval-undefined.
    """
    report = ValidationReport(subject=f"factorization({assignment.name or 'assignment'})")
    report.merge(assignment.validate())
    if not report.ok:
        return report
    ev = Evaluator(assignment)
    p = assignment.target.underlying
    b = universe.builder
    for t in universe.all_terms():
        # a broken table can leave a composite undefined; that fails the
        # check instead of aborting it
        try:
            img = ev.eval(t)
            for d in t.dirs:
                for side in ("s", "t"):
                    report.checked += 1
                    lhs = p.face(img, d, side)
                    rhs = ev.eval(b.boundary(t, d, side))
                    if lhs != rhs:
                        report.add(
                            "hom-boundary",
                            t.level,
                            f"{side}-face({d}) of the image of {t.text} is {lhs.name!r} "
                            f"but the image of the face is {rhs.name!r}",
                        )
        except EvalError as exc:
            report.add("eval-undefined", t.level, f"{t.text} or a face of it has no image: {exc}")
    try:
        second = tabular_extension(universe, assignment)
    except EvalError:
        # both extensions read the same table entries, so the loop above
        # has already reported each term without an image
        return report
    for t in universe.all_terms():
        report.checked += 1
        if second[t.nid] != ev.eval(t):
            report.add(
                "extension-unique",
                t.level,
                f"recursive and tabular extensions disagree on {t.text}",
            )
    return report
