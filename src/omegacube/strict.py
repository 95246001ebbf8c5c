"""Finite strict involutive cubical categories as explicit tables.

A StrictCategoryTable extends a presentation with reflector, dual, and
composition tables.  Compositions are partial: the table for a level
and direction must be defined on exactly the boundary-compatible pairs
of that level.  validate_strict checks totality, typing and the
structural boundary laws, then the strict schemes of the relations
module (associativity, units, functoriality of reflectors, exchange);
validate_involutive checks its involutive schemes (the laws of duals).
Both ground the schemes over the table's own cells and evaluate both
sides in its tables, so a model is checked against the very schemes
that generate the word problem.  Every failure is reported under the
scheme's tag with the witnessing cells, directions and values.

Evaluation interprets free terms in a table via a generator assignment,
and check_universal_factorization certifies that this interpretation is
the unique structure-preserving extension of the assignment.
"""

from __future__ import annotations

import json
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
    make_dirs,
    parse_level,
    validate_cubical_axioms,
    validate_morphism,
    validate_quiver,
)
from .relations import (
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
        up = (cell.dim + 1, tuple(sorted(cell.dirs + (d,))), d)
        table = self.refl.get(up, {})
        if cell.name not in table:
            raise EvalError(f"no reflector of {cell} in direction {d}")
        return self.underlying.cell(up[0], up[1], table[cell.name])

    def dual_of(self, cell: CellRef, d: int) -> CellRef:
        table = self.dual.get((cell.dim, cell.dirs, d), {})
        if cell.name not in table:
            raise EvalError(f"no dual of {cell} in direction {d}")
        return self.underlying.cell(cell.dim, cell.dirs, table[cell.name])

    def comp_of(self, d: int, x: CellRef, y: CellRef) -> CellRef:
        if x.level != y.level:
            raise EvalError(f"composition of cells at different levels {x} and {y}")
        table = self.comp.get((x.dim, x.dirs, d), {})
        if (x.name, y.name) not in table:
            raise EvalError(f"no composite of ({x.name}, {y.name}) in direction {d}")
        return self.underlying.cell(x.dim, x.dirs, table[(x.name, y.name)])

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

        refl = {parse_op_key(k): dict(t) for k, t in data.get("refl", {}).items()}
        dual = {parse_op_key(k): dict(t) for k, t in data.get("dual", {}).items()}
        comp: dict[OpKey, dict[tuple[str, str], str]] = {}
        for k, triples in data.get("comp", {}).items():
            table: dict[tuple[str, str], str] = {}
            for entry in triples:
                if len(entry) != 3:
                    raise PresentationError(f"comp entry {entry!r} is not a triple")
                x, y, z = entry
                table[(x, y)] = z
            comp[parse_op_key(k)] = table
        return cls(underlying, refl, dual, comp, name=name)

    @classmethod
    def from_file(cls, path: str) -> "StrictCategoryTable":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise PresentationError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(data, name=path)

    def to_file(self, path: str) -> None:
        data = self.to_dict()
        # JSON objects need string keys; comp entries are already triples
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def validate_strict(c: StrictCategoryTable) -> ValidationReport:
    """Exhaustively check typing, boundary laws, and strictness axioms."""
    p = c.underlying
    report = ValidationReport(subject=f"strict({c.name or 'table'})")
    report.merge(validate_quiver(p))
    report.merge(validate_cubical_axioms(p))
    if not report.ok:
        # boundary laws below would cascade on broken faces
        return report

    ops = _table_ops(c)
    # reflector tables: total on the lower level, typed one level up
    for level in p.levels():
        dim, dirs = level
        for d in reflector_dirs(p.config, level):
            up_level = (dim + 1, dirs_with(dirs, d))
            table = c.refl.get((up_level[0], up_level[1], d), {})
            up_names = {cell.name for cell in p.cells.get(up_level, [])}
            for cell in p.cells[level]:
                report.checked += 1
                if cell.name not in table:
                    report.add(
                        "refl-total",
                        level,
                        f"no reflector entry for {cell.name!r} in direction {d}",
                    )
                elif table[cell.name] not in up_names:
                    report.add(
                        "refl-typing",
                        level,
                        f"reflector of {cell.name!r} names {table[cell.name]!r}, "
                        f"absent at level {format_level(up_level)}",
                    )
            for extra in sorted(set(table) - {cell.name for cell in p.cells[level]}):
                report.add(
                    "refl-unknown-cell",
                    level,
                    f"reflector table for direction {d} mentions unknown cell {extra!r}",
                )

    # dual tables: total within each level and direction
    for level in p.levels():
        dim, dirs = level
        names = {cell.name for cell in p.cells[level]}
        for d in dirs:
            table = c.dual.get((dim, dirs, d), {})
            for cell in p.cells[level]:
                report.checked += 1
                if cell.name not in table:
                    report.add(
                        "dual-total", level, f"no dual entry for {cell.name!r} in direction {d}"
                    )
                elif table[cell.name] not in names:
                    report.add(
                        "dual-typing",
                        level,
                        f"dual of {cell.name!r} names {table[cell.name]!r}, absent at this level",
                    )
            for extra in sorted(set(table) - names):
                report.add(
                    "dual-unknown-cell",
                    level,
                    f"dual table for direction {d} mentions unknown cell {extra!r}",
                )

    # comp tables: defined on exactly the boundary-compatible pairs
    for level in p.levels():
        dim, dirs = level
        names = {cell.name for cell in p.cells[level]}
        for d in dirs:
            table = c.comp.get((dim, dirs, d), {})
            compatible = set()
            for x, y in composable_pairs(ops, p.cells[level], d):
                compatible.add((x.name, y.name))
                report.checked += 1
                if (x.name, y.name) not in table:
                    report.add(
                        "comp-total",
                        level,
                        f"no composite for the compatible pair ({x.name!r}, {y.name!r}) "
                        f"in direction {d}",
                    )
                elif table[(x.name, y.name)] not in names:
                    report.add(
                        "comp-typing",
                        level,
                        f"composite of ({x.name!r}, {y.name!r}) names "
                        f"{table[(x.name, y.name)]!r}, absent at this level",
                    )
            for pair in sorted(set(table) - compatible):
                report.add(
                    "comp-domain",
                    level,
                    f"composition table for direction {d} is defined on the "
                    f"non-composable pair {pair!r}",
                )
    if not report.ok:
        return report

    # boundary laws for the three operation families
    for level in p.levels():
        dim, dirs = level
        for cell in p.cells[level]:
            for d in reflector_dirs(p.config, level):
                if (dim + 1, dirs_with(dirs, d)) not in p.cells:
                    continue
                r = c.refl_of(cell, d)
                for side in ("s", "t"):
                    report.checked += 1
                    got = p.face(r, d, side)
                    if got != cell:
                        report.add(
                            "refl-degenerate",
                            level,
                            f"{side}-face({d}) of reflector of {cell.name!r} is "
                            f"{got.name!r}, expected {cell.name!r}",
                        )
                for e in dirs:
                    for side in ("s", "t"):
                        report.checked += 1
                        got = p.face(r, e, side)
                        want = c.refl_of(p.face(cell, e, side), d)
                        if got != want:
                            report.add(
                                "refl-transverse",
                                level,
                                f"{side}-face({e}) of reflector({d}) of {cell.name!r} is "
                                f"{got.name!r}, expected {want.name!r}",
                            )
            for d in dirs:
                dl = c.dual_of(cell, d)
                report.checked += 2
                if p.face(dl, d, "s") != p.face(cell, d, "t"):
                    report.add(
                        "dual-swap",
                        level,
                        f"source({d}) of dual of {cell.name!r} is not target({d}) of {cell.name!r}",
                    )
                if p.face(dl, d, "t") != p.face(cell, d, "s"):
                    report.add(
                        "dual-swap",
                        level,
                        f"target({d}) of dual of {cell.name!r} is not source({d}) of {cell.name!r}",
                    )
                for e in dirs:
                    if e == d:
                        continue
                    for side in ("s", "t"):
                        report.checked += 1
                        got = p.face(dl, e, side)
                        want = c.dual_of(p.face(cell, e, side), d)
                        if got != want:
                            report.add(
                                "dual-transverse",
                                level,
                                f"{side}-face({e}) of dual({d}) of {cell.name!r} is "
                                f"{got.name!r}, expected {want.name!r}",
                            )
        for d in dirs:
            for x, y in composable_pairs(ops, p.cells[level], d):
                z = c.comp_of(d, x, y)
                report.checked += 2
                if p.face(z, d, "s") != p.face(y, d, "s"):
                    report.add(
                        "comp-source",
                        level,
                        f"source({d}) of {x.name!r}*{y.name!r} differs from source({d}) "
                        f"of {y.name!r}",
                    )
                if p.face(z, d, "t") != p.face(x, d, "t"):
                    report.add(
                        "comp-target",
                        level,
                        f"target({d}) of {x.name!r}*{y.name!r} differs from target({d}) "
                        f"of {x.name!r}",
                    )
                for e in dirs:
                    if e == d:
                        continue
                    for side in ("s", "t"):
                        report.checked += 1
                        got = p.face(z, e, side)
                        want = c.comp_of(d, p.face(x, e, side), p.face(y, e, side))
                        if got != want:
                            report.add(
                                "comp-transverse",
                                level,
                                f"{side}-face({e}) of {x.name!r}*{y.name!r} in direction {d} "
                                f"is {got.name!r}, expected {want.name!r}",
                            )
    if not report.ok:
        # with boundary laws broken, nested composites below may be undefined
        return report
    return _check_schemes(c, report, STRICT_SCHEMES)


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
    return _check_schemes(c, report, INVOLUTIVE_SCHEMES)


def _table_ops(c: StrictCategoryTable) -> SimpleNamespace:
    """A table's operation lookups in the argument order of the schemes."""
    return SimpleNamespace(
        refl=lambda d, x: c.refl_of(x, d),
        dual=lambda d, x: c.dual_of(x, d),
        comp=c.comp_of,
        boundary=c.underlying.face,
    )


def _check_schemes(
    c: StrictCategoryTable, report: ValidationReport, schemes: dict
) -> ValidationReport:
    """Evaluate both sides of every grounded instance of the schemes in the table.

    A level's reflector directions are those whose upper level has
    cells.  A violation carries the scheme's tag and names the operand
    cells, the directions and both values, or the side that failed to
    evaluate.
    """
    p = c.underlying
    ops = _table_ops(c)
    for level in p.levels():
        dim, dirs = level
        upper = [
            d for d in reflector_dirs(p.config, level) if (dim + 1, dirs_with(dirs, d)) in p.cells
        ]
        for family, ds, operands in ground_level(ops, level, p.cells[level], upper, schemes):
            report.checked += 1
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
    return report


# -- evaluation --------------------------------------------------------


@dataclass
class GeneratorAssignment:
    """Images in a strict table for every generator of a presentation."""

    source: CubicalSetPresentation
    target: StrictCategoryTable
    maps: dict[LevelKey, dict[str, str]]
    name: str = ""

    def apply(self, cell: CellRef) -> CellRef:
        table = self.maps.get(cell.level)
        if table is None or cell.name not in table:
            raise EvalError(f"assignment undefined on generator {cell}")
        return self.target.underlying.cell(cell.dim, cell.dirs, table[cell.name])

    def as_set_morphism(self) -> SetMorphism:
        return SetMorphism(self.source, self.target.underlying, self.maps, name=self.name)

    def validate(self) -> ValidationReport:
        return validate_morphism(self.as_set_morphism())

    def to_dict(self) -> dict:
        return {
            "maps": {
                format_level(lv): dict(sorted(t.items())) for lv, t in sorted(self.maps.items())
            }
        }

    @classmethod
    def from_dict(
        cls,
        data: dict,
        source: CubicalSetPresentation,
        target: StrictCategoryTable,
        name: str = "",
    ) -> "GeneratorAssignment":
        maps = {parse_level(k): dict(t) for k, t in data.get("maps", {}).items()}
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
        found = self._cache.get(t)
        if found is not None:
            return found
        if t.kind == GEN:
            res = self.assignment.apply(t.cell)
        elif t.kind == REFL:
            res = self.table.refl_of(self.eval(t.body), t.d)
        elif t.kind == DUAL:
            res = self.table.dual_of(self.eval(t.body), t.d)
        elif t.kind == COMP:
            res = self.table.comp_of(t.d, self.eval(t.left), self.eval(t.right))
        elif t.kind == KAPPA:
            raise EvalError(
                f"{t.text}: contraction cells have no interpretation in a strict table"
            )
        else:  # pragma: no cover
            raise EvalError(f"unknown node kind {t.kind!r}")
        self._cache[t] = res
        return res


def eval_term(t: Term, assignment: GeneratorAssignment) -> CellRef:
    return Evaluator(assignment).eval(t)


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

    Checks, over every term of the universe: the extension agrees with
    the assignment on generators and commutes with boundaries.  It
    commutes with the three operation families by construction, since
    Evaluator computes each image from its children's images; a second,
    independently coded extension (tabular_extension) must agree node
    by node, which pins uniqueness on the enumerated fragment.
    """
    report = ValidationReport(subject=f"factorization({assignment.name or 'assignment'})")
    report.merge(assignment.validate())
    if not report.ok:
        return report
    ev = Evaluator(assignment)
    p = assignment.target.underlying
    b = universe.builder
    for t in universe.all_terms():
        img = ev.eval(t)
        report.checked += 1
        if t.kind == GEN and img != assignment.apply(t.cell):
            report.add("agrees-on-generators", t.level, f"{t.text} maps to {img}")
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
    second = tabular_extension(universe, assignment)
    for t in universe.all_terms():
        report.checked += 1
        if second[t.nid] != ev.eval(t):
            report.add(
                "extension-unique",
                t.level,
                f"recursive and tabular extensions disagree on {t.text}",
            )
    return report
