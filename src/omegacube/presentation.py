"""Finite truncated presentations of cubical sets.

A presentation stores, for each level ``(dim, dirs)``, a finite list of
named cells together with source and target face tables in every
direction belonging to the level.  ``dirs`` is a strictly increasing
tuple of positive integers naming the axes a cell extends along, and
``dim == len(dirs)``.  The face of a cell in direction ``d`` lives one
level down, at ``(dim - 1, dirs minus d)``.

Everything here is plain finite data: validation walks the tables and
reports each violation instead of stopping at the first one.  All
structures are immutable after construction, so they can be shared
freely between scans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

Dirs = tuple[int, ...]
LevelKey = tuple[int, Dirs]

SIDES = ("s", "t")


class PresentationError(Exception):
    """Raised when presentation or morphism data cannot be loaded at all."""


def make_dirs(dirs) -> Dirs:
    """Canonicalize an iterable of directions to a sorted tuple.

    Directions are positive integers; duplicates are rejected rather
    than silently collapsed.
    """
    raw = tuple(int(d) for d in dirs)
    out = tuple(sorted(set(raw)))
    if len(out) != len(raw):
        raise PresentationError(f"duplicate directions in {raw!r}")
    if out and out[0] < 1:
        raise PresentationError(f"directions must be positive, got {raw!r}")
    return out


def dirs_without(dirs: Dirs, d: int) -> Dirs:
    return tuple(e for e in dirs if e != d)


def dirs_with(dirs: Dirs, d: int) -> Dirs:
    return tuple(sorted(dirs + (d,)))


@dataclass(frozen=True)
class TruncationConfig:
    """Finiteness knobs shared by every construction in the package.

    max_dim caps cell dimension, dir_universe caps the direction names
    that may appear, term_depth bounds the operation count used when
    enumerating free terms, and saturation_budget bounds the number of
    merge steps a congruence session may process.
    """

    max_dim: int = 2
    dir_universe: int = 2
    term_depth: int = 3
    saturation_budget: int = 500_000

    def __post_init__(self) -> None:
        if self.max_dim < 0:
            raise PresentationError("max_dim must be >= 0")
        if self.dir_universe < self.max_dim:
            # a dim-n cell occupies n distinct directions
            raise PresentationError("dir_universe must be >= max_dim")
        if self.term_depth < 0:
            raise PresentationError("term_depth must be >= 0")
        if self.saturation_budget < 1:
            raise PresentationError("saturation_budget must be >= 1")

    def to_dict(self) -> dict:
        return {
            "max_dim": self.max_dim,
            "dir_universe": self.dir_universe,
            "term_depth": self.term_depth,
            "saturation_budget": self.saturation_budget,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TruncationConfig":
        known = {"max_dim", "dir_universe", "term_depth", "saturation_budget"}
        extra = set(data) - known
        if extra:
            raise PresentationError(f"unknown config keys {sorted(extra)}")
        return cls(**data)


@dataclass(frozen=True)
class CellRef:
    """A named cell at a fixed level."""

    dim: int
    dirs: Dirs
    name: str
    # (dim, dirs) and the printed form, built once per cell rather than on
    # every read; they are not compared, so equality and hashing stay on
    # (dim, dirs, name)
    level: LevelKey = field(init=False, repr=False, compare=False)
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "level", (self.dim, self.dirs))
        object.__setattr__(self, "text", f"{format_level(self.level)}:{self.name}")

    def __str__(self) -> str:
        return self.text


@dataclass
class Violation:
    tag: str
    level: LevelKey | None
    detail: str

    def to_dict(self) -> dict:
        lvl = None if self.level is None else format_level(self.level)
        return {"tag": self.tag, "level": lvl, "detail": self.detail}


@dataclass
class ValidationReport:
    """Outcome of an exhaustive scan: how much was checked, what failed."""

    subject: str
    checked: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, tag: str, level: LevelKey | None, detail: str) -> None:
        self.violations.append(Violation(tag, level, detail))

    def merge(self, other: "ValidationReport") -> None:
        self.checked += other.checked
        self.violations.extend(other.violations)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "checked": self.checked,
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"{self.subject}: {self.checked} checks, {state}"


def format_level(level: LevelKey) -> str:
    dim, dirs = level
    return f"{dim}/{','.join(str(d) for d in dirs)}"


def parse_level(text: str) -> LevelKey:
    try:
        dim_part, _, dirs_part = text.partition("/")
        dim = int(dim_part)
        dirs = make_dirs(int(d) for d in dirs_part.split(",") if d != "")
    except (ValueError, PresentationError) as exc:
        raise PresentationError(f"malformed level key {text!r}: {exc}") from None
    if dim != len(dirs):
        raise PresentationError(
            f"level key {text!r}: dimension {dim} does not match {len(dirs)} direction(s)"
        )
    return (dim, dirs)


class CubicalSetPresentation:
    """Cells plus face tables, the generating data for every construction.

    ``cells`` maps a level to its cell names in load order; ``faces``
    maps ``(dim, dirs, d, side)`` to a name-to-name table sending each
    cell of the level to a cell name one level down.  Face tables are
    stored as written and only interpreted against the lower level when
    validated or queried, so a table entry naming a cell that does not
    exist at the expected level is representable (and reported).
    """

    def __init__(
        self,
        config: TruncationConfig,
        cells: dict[LevelKey, list[str]],
        faces: dict[tuple[int, Dirs, int, str], dict[str, str]],
        name: str = "",
    ) -> None:
        self.config = config
        self.name = name
        self.cells: dict[LevelKey, list[CellRef]] = {}
        seen_levels = set()
        for level, names in cells.items():
            dim, dirs = level
            dirs = make_dirs(dirs)
            if dim != len(dirs):
                raise PresentationError(
                    f"level {format_level((dim, dirs))}: dimension does not match direction count"
                )
            if dim > config.max_dim:
                raise PresentationError(
                    f"level {format_level((dim, dirs))} exceeds max_dim {config.max_dim}"
                )
            if dirs and dirs[-1] > config.dir_universe:
                raise PresentationError(
                    f"level {format_level((dim, dirs))} uses a direction beyond {config.dir_universe}"
                )
            if (dim, dirs) in seen_levels:
                raise PresentationError(f"duplicate level {format_level((dim, dirs))}")
            seen_levels.add((dim, dirs))
            refs = []
            names_seen = set()
            for n in names:
                if not isinstance(n, str) or n == "":
                    raise PresentationError(
                        f"level {format_level((dim, dirs))}: malformed cell name {n!r}"
                    )
                if n in names_seen:
                    raise PresentationError(
                        f"level {format_level((dim, dirs))}: duplicate cell {n!r}"
                    )
                names_seen.add(n)
                refs.append(CellRef(dim, dirs, n))
            self.cells[(dim, dirs)] = refs
        self.faces: dict[tuple[int, Dirs, int, str], dict[str, str]] = {}
        for key, table in faces.items():
            dim, dirs, d, side = key
            dirs = make_dirs(dirs)
            if side not in SIDES:
                raise PresentationError(f"face side must be 's' or 't', got {side!r}")
            if d not in dirs:
                raise PresentationError(
                    f"face table {format_level((dim, dirs))}/{d}/{side}: direction not in level"
                )
            self.faces[(dim, dirs, d, side)] = dict(table)
        self._index: dict[tuple[LevelKey, str], CellRef] = {
            (lv, c.name): c for lv, refs in self.cells.items() for c in refs
        }
        # (dim, dirs, d) -> the level one step down; filled by face()
        self._lower: dict[tuple[int, Dirs, int], LevelKey] = {}

    # -- queries -------------------------------------------------------

    def levels(self) -> list[LevelKey]:
        return sorted(self.cells.keys())

    def cell(self, dim: int, dirs, name: str) -> CellRef:
        """The cell named ``name`` at level ``(dim, dirs)``.

        A tuple is first looked up as it stands: index keys are
        canonical, so a tuple that hits already equals its canonical
        form.  Only on a miss are the directions canonicalized, which
        accepts lists and unsorted tuples and raises the same
        PresentationError for duplicate directions or unknown names.
        """
        if type(dirs) is tuple:
            ref = self._index.get(((dim, dirs), name))
            if ref is not None:
                return ref
        dirs = make_dirs(dirs)
        ref = self._index.get(((dim, dirs), name))
        if ref is None:
            raise PresentationError(f"no cell {name!r} at level {format_level((dim, dirs))}")
        return ref

    def has_cell(self, ref: CellRef) -> bool:
        return (ref.level, ref.name) in self._index

    def face(self, cell: CellRef, d: int, side: str) -> CellRef:
        """The source or target face of a cell in direction d.

        The face table is read on every call, so an edit to it after
        construction shows at once; only the lower level, a pure
        function of ``(dim, dirs, d)``, is memoized per instance.
        """
        if side not in SIDES:
            raise PresentationError(f"face side must be 's' or 't', got {side!r}")
        if d not in cell.dirs:
            raise PresentationError(f"cell {cell} has no direction {d}")
        table = self.faces.get((cell.dim, cell.dirs, d, side))
        if table is None or cell.name not in table:
            raise PresentationError(f"missing {side}-face of {cell} in direction {d}")
        image = table[cell.name]
        key = (cell.dim, cell.dirs, d)
        low = self._lower.get(key)
        if low is None:
            low = self._lower[key] = (cell.dim - 1, dirs_without(cell.dirs, d))
        ref = self._index.get((low, image))
        if ref is None:
            raise PresentationError(
                f"{side}-face of {cell} in direction {d} names {image!r}, "
                f"absent at level {format_level(low)}"
            )
        return ref

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        cells = {format_level(lv): [c.name for c in refs] for lv, refs in sorted(self.cells.items())}
        faces = {}
        for (dim, dirs, d, side), table in sorted(self.faces.items()):
            faces[f"{format_level((dim, dirs))}/{d}/{side}"] = dict(sorted(table.items()))
        return {"config": self.config.to_dict(), "cells": cells, "faces": faces}

    @classmethod
    def from_dict(cls, data: dict, name: str = "") -> "CubicalSetPresentation":
        if not isinstance(data, dict) or "config" not in data:
            raise PresentationError("presentation data must be an object with a 'config' key")
        config = TruncationConfig.from_dict(data["config"])
        cells: dict[LevelKey, list[str]] = {}
        for key, names in data.get("cells", {}).items():
            cells[parse_level(key)] = list(names)
        faces: dict[tuple[int, Dirs, int, str], dict[str, str]] = {}
        for key, table in data.get("faces", {}).items():
            parts = key.rsplit("/", 2)
            if len(parts) != 3:
                raise PresentationError(f"malformed face key {key!r}")
            level = parse_level(parts[0])
            try:
                d = int(parts[1])
            except ValueError:
                raise PresentationError(f"malformed face key {key!r}") from None
            side = parts[2]
            faces[(level[0], level[1], d, side)] = dict(table)
        return cls(config, cells, faces, name=name)

    @classmethod
    def from_file(cls, path: str) -> "CubicalSetPresentation":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise PresentationError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(data, name=path)

    def to_file(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def validate_quiver(p: CubicalSetPresentation) -> ValidationReport:
    """Check that every positive-dimensional cell has well-typed faces.

    Each cell needs a source and a target entry in every direction of
    its level, and each entry must name a cell that exists one level
    down.  Tables mentioning unknown cells are reported as well.
    """
    report = ValidationReport(subject=f"quiver({p.name or 'presentation'})")
    for (dim, dirs), refs in sorted(p.cells.items()):
        if dim == 0:
            continue
        names_here = {c.name for c in refs}
        for d in dirs:
            low = (dim - 1, dirs_without(dirs, d))
            low_names = {c.name for c in p.cells.get(low, [])}
            for side in SIDES:
                table = p.faces.get((dim, dirs, d, side), {})
                for cell in refs:
                    report.checked += 1
                    if cell.name not in table:
                        report.add(
                            "face-missing",
                            (dim, dirs),
                            f"cell {cell.name!r} has no {side}-face entry in direction {d}",
                        )
                        continue
                    image = table[cell.name]
                    if image not in low_names:
                        report.add(
                            "face-typing",
                            (dim, dirs),
                            f"{side}-face of {cell.name!r} in direction {d} names {image!r}, "
                            f"which is not a cell at level {format_level(low)}",
                        )
                for extra in sorted(set(table) - names_here):
                    report.add(
                        "face-unknown-cell",
                        (dim, dirs),
                        f"{side}-face table for direction {d} mentions unknown cell {extra!r}",
                    )
    return report


def validate_cubical_axioms(p: CubicalSetPresentation) -> ValidationReport:
    """Check that faces taken in distinct directions commute.

    For every cell of dimension two or more and every pair of distinct
    directions, the four ways of combining source and target faces must
    agree regardless of order.  Dimensions below two have nothing to
    check and pass vacuously.
    """
    report = ValidationReport(subject=f"cubical-axioms({p.name or 'presentation'})")
    for level, refs in sorted(p.cells.items()):
        faces_commute(report, level, refs, p.face, lambda c: repr(c.name))
    return report


def faces_commute(report: ValidationReport, level: LevelKey, elems, face, name) -> None:
    """Check the cubical identities on the elements of one level.

    face(x, d, side) is the face map of the structure and name(x)
    renders an element in a violation.  Every pair of distinct
    directions and every choice of sides is one check: the two orders
    of taking the faces must agree.
    """
    dirs = level[1]
    for x in elems:
        for i, d in enumerate(dirs):
            for e in dirs[i + 1 :]:
                for sd in SIDES:
                    for se in SIDES:
                        report.checked += 1
                        try:
                            via_d = face(face(x, d, sd), e, se)
                            via_e = face(face(x, e, se), d, sd)
                        except PresentationError as exc:
                            report.add("face-access", level, str(exc))
                            continue
                        if via_d != via_e:
                            report.add(
                                f"faces-commute-{sd}{se}",
                                level,
                                f"{name(x)}: {se}-face({e}) of {sd}-face({d}) is "
                                f"{name(via_d)} but {sd}-face({d}) of {se}-face({e}) "
                                f"is {name(via_e)}",
                            )


@dataclass
class SetMorphism:
    """A level-preserving map of presentations, given cellwise by name."""

    source: CubicalSetPresentation
    target: CubicalSetPresentation
    maps: dict[LevelKey, dict[str, str]]
    name: str = ""

    def __post_init__(self) -> None:
        for level, table in self.maps.items():
            if level not in self.source.cells and table:
                raise PresentationError(
                    f"morphism maps level {format_level(level)} absent from the source"
                )

    def apply(self, cell: CellRef) -> CellRef:
        table = self.maps.get(cell.level)
        if table is None or cell.name not in table:
            raise PresentationError(f"morphism undefined on {cell}")
        return self.target.cell(cell.dim, cell.dirs, table[cell.name])

    @classmethod
    def identity(cls, p: CubicalSetPresentation) -> "SetMorphism":
        maps = {lv: {c.name: c.name for c in refs} for lv, refs in p.cells.items()}
        return cls(p, p, maps, name="identity")

    def to_dict(self) -> dict:
        return {
            "maps": {format_level(lv): dict(sorted(t.items())) for lv, t in sorted(self.maps.items())}
        }


def validate_morphism(f: SetMorphism) -> ValidationReport:
    """Check totality, typing, and face compatibility of a morphism."""
    report = ValidationReport(subject=f"morphism({f.name or 'map'})")
    for (dim, dirs), refs in sorted(f.source.cells.items()):
        table = f.maps.get((dim, dirs), {})
        target_names = {c.name for c in f.target.cells.get((dim, dirs), [])}
        for cell in refs:
            report.checked += 1
            if cell.name not in table:
                report.add("map-missing", (dim, dirs), f"no image for cell {cell.name!r}")
                continue
            image = table[cell.name]
            if image not in target_names:
                report.add(
                    "map-typing",
                    (dim, dirs),
                    f"image {image!r} of {cell.name!r} is not a target cell at this level",
                )
                continue
            if dim == 0:
                continue
            image_ref = f.target.cell(dim, dirs, image)
            for d in dirs:
                for side in SIDES:
                    report.checked += 1
                    try:
                        lhs = f.target.face(image_ref, d, side)
                        rhs = f.apply(f.source.face(cell, d, side))
                    except PresentationError as exc:
                        report.add("face-access", (dim, dirs), str(exc))
                        continue
                    if lhs != rhs:
                        report.add(
                            "face-compat",
                            (dim, dirs),
                            f"cell {cell.name!r}, direction {d}, {side}-face: image face is "
                            f"{lhs.name!r} but face image is {rhs.name!r}",
                        )
    return report
