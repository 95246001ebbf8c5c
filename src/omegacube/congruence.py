"""Word problem for free terms, decided by congruence closure.

The quotient that turns the free term algebra into a strict involutive
structure is generated by the relation schemes of the relations module,
plus, in a universe holding contraction cells, one scheme identifying
each contraction cell with the reflector of its source.

Every workflow closes a universe with
CongruenceSession.saturate_over_classes, a union-find plus
signature-table closure (Downey, Sethi and Tarjan) that seeds one
instance per family, directions and tuple of operand classes.  It
grounds the schemes over one representative per row, a class together
with its members' faces, and re-rows after merges, as egg's per-class
rebuilding does, so its work and its arena follow the number of classes
rather than the number of matches.

The session closes its own universe, and it alone decides which levels
still need closing.  It records each level a call finishes.  A later
call on a grown universe grounds only the levels that are new or
changed.  A level a budget cut left open stays open until a call
finishes it.

instantiate_relations builds every match; it is the syntactic
reference the class closure is checked against: the
relation-provability criterion builds every instance into the closed
session, seeds nothing more, and requires each one decided Equal.  A
congruence here is closed under faces as well, and neither
closure creates a term whose operation count exceeds those already
present, so saturation reaches a fixpoint whenever the budget allows.

Verdicts are three-valued.  Equal comes with a merge trace, NotEqual
requires a separating evaluation into a concrete strict model, and
anything else is reported as Unknown rather than guessed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache
from itertools import islice, repeat

from .presentation import ValidationReport, format_level
from .relations import (
    FAMILIES,
    NODE_COUNTS,
    SCHEMES,
    RelationInstance,
    ground_level,
    reflector_dirs,
)
from .strict import EvalError, Evaluator, GeneratorAssignment
from .term import (
    COMP_TAG,
    DUAL_TAG,
    GEN,
    KAPPA,
    REFL,
    REFL_TAG,
    Term,
    TermBuilder,
    TermError,
    TermUniverse,
)


# The sides of each scheme, plus contraction-projection: a filler k from
# x is identified with the reflector of x.  Its operands are (k, x), so,
# as for every scheme, both sides are built from the operands alone.
_SIDES = {**SCHEMES, "contraction-projection": lambda A, d, k, x: (k, A.refl(d, x))}


# the proof-forest reason of every congruence merge, one shared tuple;
# _merge tells it from the others by identity
_CONGRUENCE = ("congruence",)


# ground_level tests family membership for every element, so it gets a set
_ALL_FAMILIES = frozenset(FAMILIES)


def _schemes(builder, levels, max_side_size: int | None):
    """Yield (family, directions, operands) for every scheme match of the
    levels in ground_level's order, less those with a side over
    max_side_size nodes; a match's largest side, which its family,
    directions and operand sizes fix, is counted once per such tuple."""
    largest: dict[tuple, int] = {}
    for level, terms in levels.items():
        upper = reflector_dirs(builder.config, level)
        # every scheme has a side holding each operand once, so a side
        # outgrows the operands' total: the cap is a room for ground_level,
        # which never yields a match whose operands reach it
        for match in ground_level(builder, level, terms, upper, _ALL_FAMILIES, max_side_size):
            if max_side_size is not None:
                family, dirs, operands = match
                key = (family, dirs, *[t.size for t in operands])
                if key not in largest:
                    largest[key] = max(SCHEMES[family](NODE_COUNTS, *dirs, *key[2:]))
                if largest[key] > max_side_size:
                    continue
            yield match


def _projections(terms):
    """One contraction-projection match per contraction cell of terms."""
    return (("contraction-projection", (t.d,), (t, t.left)) for t in terms if t.kind == KAPPA)


def _matches(builder, levels, max_side_size: int | None):
    """Yield (family, directions, operands) for every relation match: per
    level, its scheme matches as _schemes yields them, then one
    contraction-projection match per contraction cell."""
    for level, terms in levels.items():
        yield from _schemes(builder, {level: terms}, max_side_size)
        yield from _projections(terms)


def instantiate_relations(
    universe: TermUniverse, *, max_side_size: int | None = None
) -> list[RelationInstance]:
    """Build every relation instance over the terms of a universe.

    max_side_size skips instances either side of which would exceed the
    given node count, without building them.  Each contraction cell, which
    exists only where admit_kappa_pair certified its pair, gets its
    projection instance.
    """
    b = universe.builder
    return [
        RelationInstance(family, *_SIDES[family](b, *dirs, *operands))
        for family, dirs, operands in _matches(b, universe.levels, max_side_size)
    ]


# -- congruence closure ------------------------------------------------


@dataclass
class Decision:
    verdict: str  # "equal" | "not-equal" | "unknown"
    witness: dict


class CongruenceSession:
    """Union-find over one builder arena, saturated against seeded pairs.

    The session tracks every node the builder has ever interned, so
    relation sides and boundary terms created on the fly participate in
    the closure automatically; saturation takes new nodes in only when
    the arena has grown.  Each merge re-signs the parents of the absorbed
    class, queueing signature collisions (operation compatibility), and
    adds an edge to the proof forest that merge traces are read from.
    A seed or face merge is also kept for the next face pass; a
    congruence merge is not, since signatures alone join its faces
    (_face_pass).
    Union is by use-list size, so each merge re-signs the shorter
    use-list; a proof-forest edge joins the merged pair itself.  A
    session may be seeded and saturated repeatedly; later seeds extend
    the same closure.  Contraction cells are atoms: two kappa nodes are
    merged only by seeded relations or faces, never by congruence on
    their arguments, as befits chosen fillers.

    Per-node state lives in flat int lists indexed by node id: the
    union-find parent, which alone holds the partition, and the proof
    forest, whose parent list holds -1 at a root and whose reason list
    holds the reason of each node's edge to its parent.  A class with no
    parent nodes, or one that has been absorbed, holds a shared empty
    tuple as its use-list.  A queue entry is a plain (a, b, reason)
    triple, skipped if its pair is joined when it is popped.  A
    signature is one int: the builder's op_key of the node's operation
    over the roots of its arguments.
    """

    def __init__(self, universe: TermUniverse):
        self.universe = universe
        self.builder = universe.builder
        self._parent: list[int] = []
        self._class_parents: list[list[int] | tuple] = []
        self._sig: dict[int, int] = {}
        self._pending: deque[tuple[int, int, object]] = deque()
        self._merged: list[int] = []
        self._pf_parent: list[int] = []
        self._pf_reason: list[object] = []
        self._images: dict[GeneratorAssignment, Evaluator] = {}
        self._seen: set[tuple] = set()
        self._keyed_at = 0
        self._ingested = 0
        self.processed = 0
        self.seeded = 0
        self.completed = False
        # level -> (terms, side cap) as a finished saturate_over_classes
        # call closed it, and the levels a cut call left open
        self._closed: dict = {}
        self._open: dict = {}
        self._ingest_new_nodes()

    # union-find ------------------------------------------------------

    def find(self, nid: int) -> int:
        parent = self._parent
        while parent[nid] != nid:
            parent[nid] = parent[parent[nid]]
            nid = parent[nid]
        return nid

    def same(self, a: Term, b: Term) -> bool:
        self._require_known(a)
        self._require_known(b)
        return self.find(a.nid) == self.find(b.nid)

    def classes(self, terms) -> list[list[Term]]:
        """Group terms by class, in the order of each group's first member."""
        groups: dict[int, list[Term]] = {}
        for t in terms:
            groups.setdefault(self.find(t.nid), []).append(t)
        return list(groups.values())

    def _require_known(self, t: Term) -> None:
        if t.nid >= self._ingested:
            raise TermError(f"term {t.text} was created after the last saturation pass")

    # node intake -----------------------------------------------------

    def _signature(self, node: Term) -> int | None:
        """The op_key of node's operation over its arguments' roots; a
        generator or a contraction cell has none."""
        kind = node.kind
        if kind == GEN or kind == KAPPA:
            return None
        args = node.args
        if len(args) == 1:
            tag = REFL_TAG if kind == REFL else DUAL_TAG
            return self.builder.op_key(tag, node.d, self.find(args[0].nid))
        return self.builder.op_key(COMP_TAG, node.d, self.find(args[0].nid), self.find(args[1].nid))

    def _ingest_new_nodes(self) -> None:
        terms = self.builder.terms
        start, count = self._ingested, len(terms) - self._ingested
        parent, uses = self._parent, self._class_parents
        uses.extend(repeat((), count))
        self._pf_parent.extend(repeat(-1, count))
        self._pf_reason.extend(repeat(None, count))
        self._ingested += count
        find, signature = self.find, self._signature
        sigs, pending = self._sig, self._pending
        for node in islice(terms, start, start + count):
            nid = node.nid
            parent.append(nid)
            for a in node.args:
                root = find(a.nid)
                if uses[root]:
                    uses[root].append(nid)
                else:
                    uses[root] = [nid]
            sig = signature(node)
            if sig is not None:
                existing = sigs.get(sig)
                if existing is None:
                    sigs[sig] = nid
                else:
                    pending.append((existing, nid, _CONGRUENCE))

    # merging ---------------------------------------------------------

    def _link_proof(self, a: int, b: int, reason: object) -> None:
        # re-root a's proof tree by reversing its path to the root in
        # place, so the new edge can point at b
        parent, why = self._pf_parent, self._pf_reason
        prev, prev_reason, cur = b, reason, a
        while cur != -1:
            nxt, nxt_reason = parent[cur], why[cur]
            parent[cur], why[cur] = prev, prev_reason
            prev, prev_reason, cur = cur, nxt_reason, nxt

    def _merge(self, a: int, b: int, ra: int, rb: int, reason: object) -> None:
        """Union the distinct classes ra and rb of a and b."""
        self._link_proof(a, b, reason)
        uses = self._class_parents
        # the class with the longer use-list absorbs the other, so only
        # the shorter list is re-signed below
        if len(uses[ra]) < len(uses[rb]):
            ra, rb = rb, ra
        parent = self._parent
        parent[rb] = ra
        self.processed += 1
        # signatures alone join the faces of a congruence merge (_face_pass)
        if reason is not _CONGRUENCE:
            self._merged += (a, b)

        # only parents of the absorbed class change signature; a non-empty
        # moved list means the absorbing use-list is a list too
        moved = uses[rb]
        if not moved:
            return
        uses[rb] = ()
        terms = self.builder.terms
        op_key = self.builder.op_key
        find = self.find
        sigs = self._sig
        pending = self._pending
        # each parent is re-signed inline, by _signature's rule; a parent is
        # never a generator, and a contraction cell has no signature
        for p in moved:
            node = terms[p]
            kind = node.kind
            if kind == KAPPA:
                continue
            args = node.args
            x = args[0].nid
            if parent[x] != x:
                x = find(x)
            if len(args) == 1:
                sig = op_key(REFL_TAG if kind == REFL else DUAL_TAG, node.d, x)
            else:
                y = args[1].nid
                if parent[y] != y:
                    y = find(y)
                sig = op_key(COMP_TAG, node.d, x, y)
            existing = sigs.get(sig)
            if existing is None:
                sigs[sig] = p
            else:
                pending.append((existing, p, _CONGRUENCE))
        uses[ra].extend(moved)

    def _face_pass(self) -> None:
        """Queue the differing faces of every seed or face merge since the
        last pass.

        Each such pair is compared once per direction, so the classes are
        closed under faces once the queue drains again (egg's deferred
        rebuild, applied to faces).

        A congruence merge needs no pass.  It joins op(x...) and op(y...)
        whose arguments were joined before it, and by FACE_LAWS each face
        of either node is the same face of one argument, or the same
        operation over the arguments' faces.  In an arena holding every
        face, induction on merge order then joins the faces of each merged
        pair: those of the arguments by the induction, and the operation
        over them through the signature table.  Building the faces the
        arena lacks adds nodes and no equation, and congruence closure
        over an arena closed under arguments derives exactly the
        equations its seed and face merges entail, so the classes of the
        nodes already held are those of the arena holding every face.
        audit_congruence checks this on the faces it compares.
        """
        merged, self._merged = self._merged, []
        terms = self.builder.terms
        boundary = self.builder.boundary
        for i in range(0, len(merged), 2):
            a, b = merged[i], merged[i + 1]
            term_a, term_b = terms[a], terms[b]
            for d in term_a.dirs:
                for side in ("s", "t"):
                    fa = boundary(term_a, d, side)
                    fb = boundary(term_b, d, side)
                    if fa is not fb:
                        self._pending.append((fa.nid, fb.nid, ("faces", a, b, d, side)))

    # public API ------------------------------------------------------

    def seed(self, relations: list[RelationInstance]) -> "CongruenceSession":
        for rel in relations:
            self._pending.append((rel.left.nid, rel.right.nid, _seed_reason(rel.family)))
            self.seeded += 1
        self.completed = False
        return self

    def saturate(self, budget: int | None = None) -> "CongruenceSession":
        """Process pending merges until fixpoint or until the budget runs out.

        The budget counts merges.  When the queue drains, one face pass
        over the seed and face merges since the last pass may queue more;
        the fixpoint is reached when the queue is empty after a pass.
        There the classes are closed under faces wherever the arena holds
        both faces; a face built later joins its counterpart by
        congruence once it is ingested, and joins no two classes held
        before (_face_pass).  While a saturate_over_classes call cut
        short has left levels to close, a drained queue is not the
        closure and completed stays False.
        """
        if budget is None:
            budget = self.builder.config.saturation_budget
        stop = self.processed + budget
        arena = self.builder.terms
        pending = self._pending
        parent, find = self._parent, self.find
        while True:
            if self._ingested < len(arena):
                self._ingest_new_nodes()
            if not pending:
                if self._merged:
                    # the pass may build faces the arena lacks; they are
                    # ingested on the next turn
                    self._face_pass()
                    continue
                self.completed = not self._open
                return self
            if self.processed >= stop:
                self.completed = False
                return self
            a, b, reason = pending.popleft()
            ra = a if parent[a] == a else find(a)
            rb = b if parent[b] == b else find(b)
            if ra != rb:
                self._merge(a, b, ra, rb, reason)

    def saturate_over_classes(
        self, *, max_side_size: int | None = None, budget: int | None = None
    ) -> "CongruenceSession":
        """Close the session's universe under the relation schemes, one
        instance per class tuple of operands.

        The call grounds each level of self.universe whose term list it
        has not closed before under the same side cap; max_side_size
        restricts the matches as for instantiate_relations.  A match is
        keyed by its family, its directions and the classes of its
        operands; only a match whose key the session has not seen is
        built and seeded, and the seen keys stay with the session, so a
        call on a grown universe seeds only the class tuples that are new.

        No match list is held.  A row is a class together with its
        members' faces, as terms, in every direction of their level.  The
        projections of contraction cells are keyed first, one per cell,
        since a row's representative need not be a cell.  Then round w,
        for each weight w in rising order, rows the terms of weight at
        most w and grounds the schemes over each row's first member,
        saturating after each round; the round over every term repeats
        until it merges nothing.

        The partition is that of seeding every instance.  ground_level
        tests composability only through faces, which a row keeps, so
        putting each operand of a syntactic match in place of its row's
        representative gives a match with the same key, and the last
        round keys the final rows.  So every match shares its operand
        classes with a seeded one, whose sides the same scheme builds from
        those operands, and congruence alone puts its sides in their
        classes; every seeded instance is also a syntactic one.  A level
        lists its terms by size first, so the side cap passes a
        representative whenever it passes any member of its row.

        budget bounds the merges of the whole call.  When it runs out the
        call stops at once, running no further round, and completed is
        False.  A level counts as closed only once a call finishes it, so
        the levels a cut call was grounding stay open: the next call
        grounds them again, from the seen keys, and reaches the closure an
        uncut call reaches.  Until then plain saturate leaves completed
        False.
        """
        if budget is None:
            budget = self.builder.config.saturation_budget
        stop = self.processed + budget
        cap, closed = max_side_size, self._closed
        levels = {lv: ts for lv, ts in self.universe.levels.items() if closed.get(lv) != (ts, cap)}
        self._open = {}
        rounds = self._rounds(levels, cap)
        while self.saturate(stop - self.processed).completed:
            matches = next(rounds, None)
            if matches is None:
                closed.update((lv, (ts, cap)) for lv, ts in levels.items())
                return self
            self._seed_new_classes(matches)
        self._open = levels
        return self

    def _rounds(self, levels, cap: int | None):
        """The matches of each round over levels under the side cap; the
        caller saturates a round before it draws the next."""
        terms = [t for ts in levels.values() for t in ts]
        yield _projections(terms)
        weights = sorted({t.weight for t in terms})
        for w in weights[:-1]:
            yield self._row_matches(levels, cap, w)
        before = None
        while weights and before != self.processed:
            before = self.processed
            yield self._row_matches(levels, cap, weights[-1])

    def _row_matches(self, levels, cap: int | None, weight: int):
        """Scheme matches over one representative per row, among terms of weight <= weight."""
        find, boundary = self.find, self.builder.boundary
        rows = {}
        for (dim, dirs), terms in levels.items():
            reps: dict[tuple, Term] = {}
            for t in terms:
                if t.weight <= weight:
                    faces = [boundary(t, d, side) for d in dirs for side in ("s", "t")]
                    reps.setdefault((find(t.nid), *faces), t)
            rows[dim, dirs] = list(reps.values())
        return _schemes(self.builder, rows, cap)

    def _seed_new_classes(self, matches) -> int:
        """Seed the matches whose class key is new; return how many were seeded.

        The seen keys are first moved to the current roots, which only a
        merge changes, so they are moved only when merges happened since
        the last move.
        """
        find = self.find
        if self._keyed_at != self.processed:
            self._seen = {(k[0], k[1], *map(find, k[2:])) for k in self._seen}
            self._keyed_at = self.processed
        seen = self._seen
        b = self.builder
        pending = self._pending
        fresh = 0
        for family, dirs, operands in matches:
            key = (family, dirs, *[find(t.nid) for t in operands])
            if key not in seen:
                seen.add(key)
                left, right = _SIDES[family](b, *dirs, *operands)
                pending.append((left.nid, right.nid, _seed_reason(family)))
                fresh += 1
        self.seeded += fresh
        self.completed = False
        return fresh

    # explanations ----------------------------------------------------

    def _explain(self, a: Term, b: Term) -> list[tuple[int, int, object]]:
        """A chain of proof-forest edges connecting two terms of one class,
        as ``(left nid, right nid, reason)`` steps from a to b;
        decide_equal returns it as the witness of an Equal verdict.

        Both ends climb towards the root in turn, each recording the
        nodes it has passed; the first node one climb finds on the
        other's is their nearest common ancestor, so the walk stops at
        the meet instead of the root.  A path in a tree is unique, so
        the chain is the one a walk to the root would give.
        """
        if a is b:
            return []

        parent, why = self._pf_parent, self._pf_reason
        pa, pb = [a.nid], [b.nid]
        on_a, on_b = {a.nid: 0}, {b.nid: 0}
        while True:
            # the tails are checked before either climbs again, so the
            # first node seen by both climbs is the lowest one they share
            x, y = pa[-1], pb[-1]
            if x in on_b:
                meet = x
                break
            if y in on_a:
                meet = y
                break
            x, y = parent[x], parent[y]
            if x != -1:
                on_a[x] = len(pa)
                pa.append(x)
            if y != -1:
                on_b[y] = len(pb)
                pb.append(y)
        steps = [(n, parent[n], why[n]) for n in pa[: on_a[meet]]]
        steps.extend((parent[n], n, why[n]) for n in reversed(pb[: on_b[meet]]))
        return steps

    def stats(self) -> dict:
        return {
            "nodes": self._ingested,
            "seeded": self.seeded,
            # processed counts the merges; reports keep both names
            "merges": self.processed,
            "processed": self.processed,
            "completed": self.completed,
        }

    def merge_reasons(self) -> dict[str, int]:
        """Proof-forest edges by reason: seed, congruence and faces.

        Each merge adds one edge, so the counts sum to ``processed``.
        They stay out of stats(), which reports embed.
        """
        counts = {"seed": 0, "congruence": 0, "faces": 0}
        for reason in self._pf_reason:
            if reason is not None:
                counts[reason[0]] += 1
        return counts


@cache
def _seed_reason(family: str) -> tuple[str, str]:
    """The proof-forest reason of a seeded pair, one tuple per family."""
    return ("seed", family)


def _reason_text(reason: object) -> str:
    kind = reason[0]
    if kind == "seed":
        return f"relation {reason[1]}"
    if kind == "faces":
        return f"{reason[4]}-face({reason[3]}) of a merged pair"
    return "operation compatibility"


def render_trace(builder: TermBuilder, trace: list) -> list[dict]:
    """An Equal verdict's trace in print.

    Each ``(left nid, right nid, reason)`` step of the builder's arena
    becomes ``{"left": text, "right": text, "by": reason text}``; this is
    the form reports and demos show.
    """
    terms = builder.terms
    return [
        {"left": terms[x].text, "right": terms[y].text, "by": _reason_text(reason)}
        for x, y, reason in trace
    ]


def decide_equal(
    session: CongruenceSession,
    t1: Term,
    t2: Term,
    separators: list = (),
) -> Decision:
    """Three-valued verdict on a pair of same-level terms.

    Equal when saturation merged the two terms; the witness's "trace" is
    the list of proof-forest steps ``(left nid, right nid, reason)``
    leading from t1 to t2, empty when t1 is t2, and render_trace turns
    it into text.  NotEqual only when some separating assignment
    evaluates the terms to different cells of its target model.  Unknown
    otherwise, with the session state and a cause in the witness:
    "budget" when saturation stopped short of its fixpoint,
    "no-separator" when no separator was given, "no-separator-applied"
    when every separator failed to evaluate a side, and "not-separated"
    otherwise.

    The session memoises each separator's images, keyed by the separator
    object, for as long as it lives, so a separator must not change once
    a session has used it.  Images depend on the separator and the term
    alone, so later seeding and saturation leave them valid.
    """
    # the level is compared field by field, without building either tuple
    if t1.dim != t2.dim or t1.dirs != t2.dirs:
        raise TermError(
            f"terms live at different levels {format_level(t1.level)} "
            f"and {format_level(t2.level)}"
        )
    arena = session.builder.terms
    n1, n2 = t1.nid, t2.nid
    if n1 >= len(arena) or arena[n1] is not t1 or n2 >= len(arena) or arena[n2] is not t2:
        raise TermError("decide_equal expects terms built by the session's own builder")
    # both terms are the session's own, so once ingested they are known
    if n1 >= session._ingested or n2 >= session._ingested:
        session.saturate()
    find = session.find
    if find(n1) == find(n2):
        return Decision("equal", {"trace": session._explain(t1, t2)})
    applied = 0
    images = session._images
    for i, assignment in enumerate(separators):
        ev = images.get(assignment)
        if ev is None:
            ev = images[assignment] = Evaluator(assignment)
        # a repeated term reads its image straight from the evaluator's memo
        memo = ev._cache
        v1 = memo.get(t1)
        v2 = memo.get(t2)
        try:
            if v1 is None:
                v1 = ev.eval(t1)
            if v2 is None:
                v2 = ev.eval(t2)
        except EvalError:
            continue
        if v1 is not v2 and v1 != v2:
            return Decision(
                "not-equal",
                {
                    "separator": i,
                    "target": assignment.target.name or "model",
                    "left_value": v1.text,
                    "right_value": v2.text,
                },
            )
        applied += 1
    if not session.completed:
        cause = "budget"
    elif not separators:
        cause = "no-separator"
    elif not applied:
        cause = "no-separator-applied"
    else:
        cause = "not-separated"
    return Decision("unknown", {"session": session.stats(), "cause": cause})


def audit_congruence(session: CongruenceSession) -> ValidationReport:
    """Re-scan a saturated session for closure violations.

    Confirms that signature-equal nodes share a class and that classes
    are closed under faces: each member of a class with more than one
    member has the faces of its first member.  Each held node's class
    is read from the union-find once, and signatures are rebuilt as
    tuples over those classes.  A clean report certifies the fixpoint
    really is a congruence on the enumerated fragment.

    The closure builds no face for a congruence merge, so a face the
    audit reads may not be held yet; boundary builds it, and the
    comparisons with such faces wait.  If any wait, a session at its
    fixpoint (completed, with an empty queue) is saturated once, as
    decide_equal does for late nodes; any two classes of the nodes held
    before that the saturation joined are reported under face-closure,
    the waiting comparisons are made, and a note in the report says that
    the audit saturated and whether that run finished.  A session not
    at its fixpoint is not saturated: the audit reports not-at-fixpoint
    and leaves the waiting comparisons out, as it does when its own
    saturation is cut.
    """
    report = ValidationReport(subject="congruence-closure")
    b = session.builder
    held = b.terms[: session._ingested]
    # each held node's class, read once from the union-find
    root = list(map(session.find, range(len(held))))
    _signatures_agree(report, held, root)
    # the classes that verdicts read, grouped from the union-find itself
    by_root: dict[int, list[Term]] = {}
    for node in held:
        by_root.setdefault(root[node.nid], []).append(node)
    classes = [members for members in by_root.values() if len(members) > 1]
    # each member's faces against its class's first member's; boundary
    # builds a face the closure never built, and a comparison with such a
    # face waits for the saturation that takes it in
    boundary = b.boundary
    n = len(held)
    late = []
    for members in classes:
        base = members[0]
        sides = [(d, side) for d in base.dirs for side in ("s", "t")]
        row = [boundary(base, d, side).nid for d, side in sides]
        report.checked += (len(members) - 1) * len(sides)
        for other in members[1:]:
            for (d, side), fa in zip(sides, row):
                fb = boundary(other, d, side).nid
                if fa >= n or fb >= n:
                    late.append((base, other, d, side, fa, fb))
                elif root[fa] != root[fb]:
                    _face_violation(report, base, other, d, side)
    if late:
        if not _saturate_over_faces(session, root, report):
            report.checked -= len(late)
            return report
        find = session.find
        for base, other, d, side, fa, fb in late:
            if find(fa) != find(fb):
                _face_violation(report, base, other, d, side)
    return report


def _face_violation(report: ValidationReport, base: Term, other: Term, d: int, side: str) -> None:
    report.add(
        "face-closure",
        base.level,
        f"classes of {base.text} and {other.text} agree but their "
        f"{side}-faces in direction {d} do not",
    )


def _signatures_agree(report: ValidationReport, held: list[Term], root: list[int]) -> None:
    """Report each two held nodes with equal signatures over the classes
    in root but different classes, under op-compat."""
    groups: dict[tuple, int] = {}
    checked = 0
    for node in held:
        kind = node.kind
        if kind == GEN or kind == KAPPA:
            continue
        # rebuilt here as a tuple, not read from the session, so the audit
        # shares no code with the closure it re-checks
        args = node.args
        if len(args) == 1:
            sig = (kind, node.d, root[args[0].nid])
        else:
            sig = (kind, node.d, root[args[0].nid], root[args[1].nid])
        checked += 1
        first = groups.setdefault(sig, node.nid)
        if root[first] != root[node.nid]:
            report.add(
                "op-compat",
                node.level,
                f"{held[first].text} and {node.text} have equal signatures "
                "but different classes",
            )
    report.checked += checked


def _saturate_over_faces(
    session: CongruenceSession, root: list[int], report: ValidationReport
) -> bool:
    """Take in the nodes built since the session's fixpoint, the faces the
    audit built among them, with one saturate, and report each class of
    the nodes held before, by root, that it joined to another.  False,
    with not-at-fixpoint reported, when the session was not at its
    fixpoint or the saturation was cut."""
    terms = session.builder.terms
    built = len(terms) - len(root)
    if not session.completed or session._pending:
        report.add(
            "not-at-fixpoint",
            None,
            f"the arena holds {built} node(s) the session has not taken in, and "
            "the session is not at its fixpoint: no face it lacks is compared",
        )
        return False
    session.saturate()
    finished = "finished" if session.completed else "was cut by its budget"
    report.notes.append(f"saturated over {built} node(s) the session did not hold; {finished}")
    # each class now, named by the old class of its first node; every
    # other old class in it is reported once, at its old root
    find = session.find
    met: dict[int, int] = {}
    for n, old in enumerate(root):
        first = met.setdefault(find(n), old)
        if first != old and n == old:
            report.add(
                "face-closure",
                terms[old].level,
                f"classes of {terms[first].text} and {terms[old].text} were joined "
                "once the faces of their members were taken in",
            )
    if not session.completed:
        report.add(
            "not-at-fixpoint",
            None,
            "the audit's saturation over the faces it built was cut by its budget: "
            "no face the session lacked is compared",
        )
    return session.completed
