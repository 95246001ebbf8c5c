"""Free contractions over a presentation, built stage by stage.

A contraction equips the free structure with chosen filler cells: for
every pair of syntactically distinct terms x, y at the same level that
the word problem identifies, and every direction d the level does not
use, a cell kappa[d](x, y) one dimension up whose d-source is x, whose
d-target is y, and which projects onto the reflector of x in the
quotient.  Contracting a term against itself yields the reflector on
the nose, and the transverse faces of a contraction cell are the
contractions of the face pairs.

The build walks dimensions upward with one congruence session shared
by every stage.  At stage n it enumerates the universe up to dimension
n and hands it to the session, which closes the levels it has not
closed yet, a level a budget cut left open included, seeding one
relation instance per class tuple of operands that no earlier stage
covered (CongruenceSession.saturate_over_classes), and then certifies
every identified pair at dimension n and admits one contraction cell
per direction and ordered pair; the new cells are atoms of stage n+1.
Each stage's universe contains the previous one, so the shared closure
partitions the stage's universe as a fresh closure of its full
instance set does.  Identification is the session's verdict at the
current stage, so pairs the budgeted closure cannot identify are simply
not contracted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .congruence import CongruenceSession
from .presentation import (
    CubicalSetPresentation,
    SetMorphism,
    ValidationReport,
)
from .relations import reflector_dirs
from .term import (
    COMP,
    DUAL,
    GEN,
    KAPPA,
    REFL,
    Term,
    TermBuilder,
    TermError,
    TermUniverse,
    enumerate_free_magma,
)


class ContractionError(Exception):
    """Raised when a contraction structure cannot be built or mapped."""


@dataclass
class ContractionStage:
    """One stage of the build.

    session is a stats() snapshot of the shared session taken when the
    stage finished, so its counters cover this and every earlier stage.
    """

    dim: int
    universe_size: int
    kappa_added: int
    session: dict

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "universe_size": self.universe_size,
            "kappa_added": self.kappa_added,
            "session": dict(self.session),
        }


@dataclass
class ContractionData:
    """A built free contraction: universe, word problem, and filler table."""

    presentation: CubicalSetPresentation
    builder: TermBuilder
    universe: TermUniverse
    session: CongruenceSession
    kappa: dict[tuple[int, int, int], Term]  # (direction, source nid, target nid)
    stages: list[ContractionStage]

    def kappa_of(self, d: int, x: Term, y: Term) -> Term:
        """The chosen filler from x to y in direction d."""
        try:
            self.builder._own(x, y)
        except TermError as exc:
            # fillers are keyed by nid, which a term of another builder may share
            raise ContractionError(str(exc)) from None
        if x is y:
            return self.builder.refl(d, x)
        node = self.kappa.get((d, x.nid, y.nid))
        if node is None:
            raise ContractionError(
                f"no contraction cell kappa[{d}]({x.text},{y.text}); "
                "the pair was not identified when its stage was built"
            )
        return node

    def incomplete_stage(self) -> int | None:
        """The first stage whose closure the budget cut short, if any."""
        return next((s.dim for s in self.stages if not s.session["completed"]), None)

    def to_report_dict(self) -> dict:
        return {
            "universe": self.universe.counts(),
            "kappa_cells": len(self.kappa),
            "stages": [s.to_dict() for s in self.stages],
            "session": self.session.stats(),
        }


def build_free_contraction(
    p: CubicalSetPresentation,
    *,
    depth: int | None = None,
    size_cap: int | None = None,
    budget: int | None = None,
    max_side_size: int | None = None,
) -> ContractionData:
    """Build the free contraction over a presentation, stage by stage.

    One CongruenceSession serves every stage: each stage points it at
    the stage's universe and calls saturate_over_classes, which grounds
    only the levels it has not closed before, and whose class keys
    outlive the stage, so an operand-class tuple an earlier stage seeded
    is not seeded again.  budget bounds the merges of each stage's
    closure; a level a stage cut short stays open in the session, and
    the next stage's closure grounds it again.  A stage cut short records
    completed False in its session snapshot, and incomplete_stage names
    the first such stage.

    size_cap bounds the node count of enumerated terms; wide
    presentations need it because filler admission grows with the
    square of class sizes and composites over fillers compound that.
    Pairs the closure leaves apart, including those a budget cut short,
    get no filler.
    """
    builder = TermBuilder(p)
    cfg = builder.config
    atoms: list[Term] = []
    kappa_table: dict[tuple[int, int, int], Term] = {}
    stages: list[ContractionStage] = []
    universe: TermUniverse | None = None
    session: CongruenceSession | None = None

    for n in range(cfg.max_dim + 1):
        universe = enumerate_free_magma(
            builder, depth, size_cap=size_cap, max_stage_dim=n, extra_atoms=list(atoms)
        )
        if session is None:
            session = CongruenceSession(universe)
        else:
            session.universe = universe
        session.saturate_over_classes(max_side_size=max_side_size, budget=budget)
        added = 0
        for level, terms in sorted(universe.levels.items()):
            upper = reflector_dirs(cfg, level)
            if level[0] != n or not upper:
                continue
            for members in session.classes(terms):
                for i, x in enumerate(members):
                    for y in members[i + 1 :]:
                        builder.admit_kappa_pair(x, y)
                        for d in upper:
                            for a, b in ((x, y), (y, x)):
                                key = (d, a.nid, b.nid)
                                if key not in kappa_table:
                                    node = builder.kappa(d, a, b)
                                    kappa_table[key] = node
                                    atoms.append(node)
                                    # keep the degenerate companions in
                                    # the universe alongside the filler
                                    atoms.append(builder.refl(d, a))
                                    added += 1
        stages.append(
            ContractionStage(
                dim=n,
                universe_size=universe.size,
                kappa_added=added,
                session=session.stats(),
            )
        )
    return ContractionData(
        presentation=p,
        builder=builder,
        universe=universe,
        session=session,
        kappa=kappa_table,
        stages=stages,
    )


def validate_contraction(cd: ContractionData) -> ValidationReport:
    """Exhaustively check the five families of contraction invariants.

    Domain: the filler table covers exactly the ordered identified
    pairs below the top dimension.  Faces: each filler runs from its
    source to its target.  Transverse faces: fillers restrict to
    fillers of face pairs.  Projection: each filler is identified with
    the reflector of both endpoints.  Degeneracy: no table entry fills
    a diagonal pair (TermBuilder.kappa answers a diagonal request with
    the reflector itself, so only the table can go wrong here).

    When the budget cut a stage short, its fillers were admitted on an
    unfinished closure, so the two checks that need every closure
    finished, a filler for each identified pair and the projection of
    each filler, are left out; the rest still run.
    """
    report = ValidationReport(subject="contraction")
    b = cd.builder
    session = cd.session
    cfg = cd.builder.config
    finished = cd.incomplete_stage() is None

    expected: set[tuple[int, int, int]] = set()
    for level, terms in sorted(cd.universe.levels.items()):
        upper = reflector_dirs(cfg, level)
        if not upper:
            continue
        for members in session.classes(terms):
            for i, x in enumerate(members):
                for y in members[i + 1 :]:
                    for d in upper:
                        expected.add((d, x.nid, y.nid))
                        expected.add((d, y.nid, x.nid))
    missing = sorted(expected - set(cd.kappa)) if finished else []
    for d, xn, yn in missing:
        report.add(
            "kappa-domain-missing",
            None,
            f"identified pair ({b.terms[xn].text}, {b.terms[yn].text}) has no "
            f"filler in direction {d}",
        )
    for key in sorted(set(cd.kappa) - expected):
        d, xn, yn = key
        report.add(
            "kappa-domain-extra",
            None,
            f"filler kappa[{d}]({b.terms[xn].text},{b.terms[yn].text}) covers a pair "
            "that is not an identified non-diagonal pair of the universe",
        )
    report.checked += len(expected)

    for (d, xn, yn), node in sorted(cd.kappa.items()):
        x = b.terms[xn]
        y = b.terms[yn]
        level = node.level
        report.checked += 2
        if b.boundary(node, d, "s") is not x:
            report.add("kappa-source", level, f"{node.text}: d-source is not {x.text}")
        if b.boundary(node, d, "t") is not y:
            report.add("kappa-target", level, f"{node.text}: d-target is not {y.text}")
        if xn == yn:
            report.add("kappa-degenerate", level, f"{node.text} fills a diagonal pair")
        for e in x.dirs:
            for side in ("s", "t"):
                report.checked += 1
                got = b.boundary(node, e, side)
                fx = b.boundary(x, e, side)
                fy = b.boundary(y, e, side)
                try:
                    want = cd.kappa_of(d, fx, fy)
                except ContractionError:
                    # a corrupt entry can point at faces with no filler of their own
                    report.add(
                        "kappa-transverse",
                        level,
                        f"{side}-face({e}) of {node.text}: the face pair "
                        f"({fx.text}, {fy.text}) has no filler to compare against",
                    )
                    continue
                if got is not want:
                    report.add(
                        "kappa-transverse",
                        level,
                        f"{side}-face({e}) of {node.text} is {got.text}, expected {want.text}",
                    )
        if not finished:
            continue
        report.checked += 2
        for endpoint in (x, y):
            if not session.same(node, b.refl(d, endpoint)):
                report.add(
                    "kappa-projection",
                    level,
                    f"{node.text} does not project onto the reflector of {endpoint.text}",
                )
    return report


def universe_as_presentation(u: TermUniverse) -> CubicalSetPresentation:
    """View a boundary-closed universe as a presentation of its own.

    Cells are the terms, named by their printed form; face tables are
    read off the boundary operator.
    """
    cells = {level: [t.text for t in terms] for level, terms in u.levels.items()}
    faces: dict = {}
    b = u.builder
    for (dim, dirs), terms in u.levels.items():
        if dim == 0:
            continue
        for d in dirs:
            for side in ("s", "t"):
                faces[(dim, dirs, d, side)] = {
                    t.text: b.boundary(t, d, side).text for t in terms
                }
    return CubicalSetPresentation(u.builder.config, cells, faces, name="free-contraction-universe")


def unit_eta(cd: ContractionData) -> SetMorphism:
    """The unit: each generating cell becomes its own generator term."""
    p = cd.presentation
    target = universe_as_presentation(cd.universe)
    maps = {
        level: {c.name: cd.builder.gen(c).text for c in refs}
        for level, refs in p.cells.items()
    }
    return SetMorphism(p, target, maps, name="unit")


@dataclass
class ContractionMorphism:
    """The free extension of a presentation morphism to contractions."""

    source: ContractionData
    target: ContractionData
    f: SetMorphism
    # keyed by the source term itself: terms hash by identity, so a term
    # of another builder is outside the mapped universe
    term_map: dict[Term, Term]

    def phi(self, t: Term) -> Term:
        found = self.term_map.get(t)
        if found is None:
            raise ContractionError(f"{t.text} is outside the mapped universe")
        return found


def free_on_morphism(
    f: SetMorphism, source: ContractionData, target: ContractionData
) -> ContractionMorphism:
    """Extend a cell map to the whole contraction universe.

    Generators map through f, operations map structurally, and filler
    cells map to the target's chosen filler of the image pair.  Raises
    ContractionError if an image pair was not identified in the target,
    including a pair with a node the target's closure never ingested,
    since then no filler is available.
    """
    tb = target.builder
    term_map: dict[Term, Term] = {}

    def phi(t: Term) -> Term:
        found = term_map.get(t)
        if found is not None:
            return found
        if t.kind == GEN:
            out = tb.gen(f.apply(t.cell))
        elif t.kind == REFL:
            out = tb.refl(t.d, phi(t.body))
        elif t.kind == DUAL:
            out = tb.dual(t.d, phi(t.body))
        elif t.kind == COMP:
            out = tb.comp(t.d, phi(t.left), phi(t.right))
        elif t.kind == KAPPA:
            ix = phi(t.left)
            iy = phi(t.right)
            try:
                identified = ix is iy or target.session.same(ix, iy)
            except TermError:
                # a node the target's closure never ingested is in no class
                identified = False
            if not identified:
                raise ContractionError(
                    f"cannot map {t.text}: the image pair ({ix.text}, {iy.text}) "
                    "is not identified in the target"
                )
            out = target.kappa_of(t.d, ix, iy)
        else:  # pragma: no cover
            raise ContractionError(f"unknown node kind {t.kind!r}")
        term_map[t] = out
        return out

    for t in source.universe.all_terms():
        phi(t)
    # fold the nodes the map built into the target's word problem
    target.session.saturate()
    return ContractionMorphism(source=source, target=target, f=f, term_map=term_map)


def validate_contraction_morphism(m: ContractionMorphism) -> ValidationReport:
    """Check that a mapped contraction is structure-preserving.

    Covers: generators land on their images, boundaries commute,
    identified pairs stay identified (so the map descends to the
    quotients), and fillers map to fillers of image pairs.
    """
    report = ValidationReport(subject=f"contraction-morphism({m.f.name or 'map'})")
    sb = m.source.builder
    tb = m.target.builder
    for t in m.source.universe.all_terms():
        img = m.phi(t)
        report.checked += 1
        if t.kind == GEN and img is not tb.gen(m.f.apply(t.cell)):
            report.add("on-generators", t.level, f"{t.text} maps to {img.text}")
        for d in t.dirs:
            for side in ("s", "t"):
                report.checked += 1
                lhs = tb.boundary(img, d, side)
                rhs = m.phi(sb.boundary(t, d, side))
                if lhs is not rhs:
                    report.add(
                        "boundary-compat",
                        t.level,
                        f"{side}-face({d}) of the image of {t.text} is {lhs.text}, "
                        f"but the image of the face is {rhs.text}",
                    )
    for level, terms in m.source.universe.levels.items():
        for members in m.source.session.classes(terms):
            base = m.phi(members[0])
            for other in members[1:]:
                report.checked += 1
                if not m.target.session.same(base, m.phi(other)):
                    report.add(
                        "class-compat",
                        level,
                        f"{members[0].text} and {other.text} are identified at the "
                        "source but their images are not",
                    )
    for (d, xn, yn), node in sorted(m.source.kappa.items()):
        report.checked += 1
        ix = m.phi(sb.terms[xn])
        iy = m.phi(sb.terms[yn])
        try:
            want = m.target.kappa_of(d, ix, iy)
        except ContractionError:  # the images were not identified: no filler
            want = None
        if m.phi(node) is not want:
            report.add(
                "kappa-compat",
                node.level,
                f"image of {node.text} is not the target filler of "
                f"({ix.text}, {iy.text})",
            )
    return report

