"""Congruence closure: saturation, verdicts, proofs, audits."""

import gc
import hashlib
import json
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from omegacube import (
    CongruenceSession,
    CubicalSetPresentation,
    FAMILIES,
    GeneratorAssignment,
    KappaError,
    RelationInstance,
    TermError,
    TermBuilder,
    TruncationConfig,
    decide_equal,
    enumerate_free_magma,
    instantiate_relations,
    audit_congruence,
    render_trace,
    as_strict_table,
    cyclic_group_category,
    two_generator_quiver,
    validate_involutive,
    validate_strict,
    word_separator,
)
from omegacube import strict
from omegacube.acceptance import DIM1_CONFIG, ORACLE_DEPTH, ORACLE_SIDE_CAP, ORACLE_SIZE_CAP
from omegacube.congruence import _matches
from omegacube.relations import NODE_COUNTS, SCHEMES, ground_level, reflector_dirs
from omegacube.term import KAPPA
from reference_closure import ReferenceClosure


def by_text(universe, text):
    return next(t for t in universe.all_terms() if t.text == text)


def trace(session, a, b):
    """The merge trace of an Equal verdict on a and b, rendered as text."""
    decision = decide_equal(session, a, b)
    assert decision.verdict == "equal"
    return render_trace(session.builder, decision.witness["trace"])


def test_family_catalogue_is_fixed():
    assert len(FAMILIES) == 12
    assert "assoc" in FAMILIES
    assert "contraction-projection" in FAMILIES


DEPTH3_INSTANCES = {
    None: (
        {
            "assoc": 38149,
            "unit-left": 200,
            "unit-right": 200,
            "id-functoriality": 1453,
            "exchange": 7640,
            "involutive": 200,
            "star-commute": 61,
            "star-antihomo": 2292,
            "star-homo-transverse": 839,
            "id-hermitian": 84,
            "id-hermitian-transverse": 78,
        },
        "5a2e2a03909dce5a2d578c7dc79e5293054b87b9061e1907a807f444945065cb",
    ),
    7: (
        {
            "assoc": 32,
            "unit-left": 64,
            "unit-right": 64,
            "id-functoriality": 26,
            "involutive": 184,
            "star-commute": 61,
            "star-antihomo": 29,
            "star-homo-transverse": 3,
            "id-hermitian": 68,
            "id-hermitian-transverse": 62,
        },
        "f1002c0e798a4d00acab3e6322a9de91a04df52acce80e812228fbc2746e7224",
    ),
}


@pytest.mark.parametrize("cap", [None, 7])
def test_depth_three_instances_per_family(quiver, cap):
    counts, digest = DEPTH3_INSTANCES[cap]
    rels = instantiate_relations(enumerate_free_magma(quiver, 3), max_side_size=cap)
    assert Counter(r.family for r in rels) == counts
    # the sequence itself, in order, down to the text of each side
    h = hashlib.sha256()
    for r in rels:
        h.update(f"{r.family} {r.left.text} {r.right.text}\n".encode())
    assert h.hexdigest() == digest


def test_every_scheme_has_a_side_larger_than_its_operands(quiver):
    u = enumerate_free_magma(quiver, 3)
    seen = set()
    for level, terms in u.levels.items():
        upper = reflector_dirs(quiver.config, level)
        for family, dirs, operands in ground_level(u.builder, level, terms, upper, SCHEMES):
            sizes = [t.size for t in operands]
            assert max(SCHEMES[family](NODE_COUNTS, *dirs, *sizes)) > sum(sizes)
            seen.add(family)
    assert seen == set(SCHEMES)


def test_each_scheme_is_checked_by_exactly_one_validator(monkeypatch, iso_square):
    grounded = {}
    real = strict.ground_level

    def recording(*args):
        for match in real(*args):
            grounded.setdefault(current, Counter())[match[0]] += 1
            yield match

    monkeypatch.setattr(strict, "ground_level", recording)
    current = "involutive"
    involutive = validate_involutive(iso_square)
    current = "strict"
    validate_strict(iso_square)
    schemes = set(FAMILIES) - {"contraction-projection"}
    assert set(grounded["strict"]) | set(grounded["involutive"]) == schemes
    assert not set(grounded["strict"]) & set(grounded["involutive"])
    assert involutive.checked == sum(grounded["involutive"].values())


def ground_all(u, room=None):
    """Every match over u's levels as (family, directions, operand nids)."""
    out = []
    for level, terms in u.levels.items():
        upper = reflector_dirs(u.builder.config, level)
        for family, dirs, operands in ground_level(
            u.builder, level, terms, upper, set(FAMILIES), room
        ):
            out.append((family, dirs, tuple(t.nid for t in operands)))
    return out


def test_grounding_within_a_room_drops_only_the_oversized_matches(quiver):
    # the word problem passes its side cap as ground_level's room, so no
    # match whose operands reach the cap is generated; this is exact
    # because every scheme has a side larger than its operands (above)
    u, _, cap = closure_case("oracle-dim1", quiver)
    terms = u.builder.terms
    unbounded = ground_all(u)
    assert len(unbounded) == 223249
    for room in (5, 9, 13):
        fitting = [m for m in unbounded if sum(terms[n].size for n in m[2]) < room]
        assert ground_all(u, room) == fitting
    assert len(ground_all(u, cap)) == 25960
    assert len(instantiate_relations(u, max_side_size=cap)) == 13009


def test_instances_pair_terms_at_one_level(universe3):
    rels = instantiate_relations(universe3)
    assert rels
    for rel in rels:
        assert rel.left.level == rel.right.level
    # a universe without filler cells has no projection instances
    assert "contraction-projection" not in {r.family for r in rels}


def test_certified_pair_yields_a_filler_and_its_projection(quiver):
    u = enumerate_free_magma(quiver, 2)
    b = u.builder
    f = by_text(u, "gen(f)")
    ff = by_text(u, "dual[1](dual[1](gen(f)))")
    with pytest.raises(KappaError):
        b.kappa(2, f, ff)
    b.admit_kappa_pair(f, ff)
    k = b.kappa(2, f, ff)
    assert k.kind == KAPPA
    assert (b.boundary(k, 2, "s"), b.boundary(k, 2, "t")) == (f, ff)
    with_filler = enumerate_free_magma(b, 2, extra_atoms=[k])
    projections = [
        (r.left, r.right)
        for r in instantiate_relations(with_filler)
        if r.family == "contraction-projection"
    ]
    assert projections == [(k, b.refl(2, f))]


def test_side_size_cap_prunes_instances(universe3):
    def assoc(rels):
        return [r for r in rels if r.family == "assoc"]

    full = assoc(instantiate_relations(universe3))
    slim = assoc(instantiate_relations(universe3, max_side_size=7))
    assert 0 < len(slim) < len(full)
    assert all(max(r.left.size, r.right.size) <= 7 for r in slim)


def test_expected_identifications_hold(saturated):
    u = saturated.universe
    b = u.builder
    f = by_text(u, "gen(f)")
    a = by_text(u, "gen(a)")
    assert saturated.same(b.comp(1, f, b.refl(1, a)), f)
    assert saturated.same(b.dual(1, b.dual(1, f)), f)
    assert saturated.same(b.dual(1, b.refl(1, a)), b.refl(1, a))
    g = by_text(u, "gen(g)")
    gf = b.comp(1, g, f)
    assert saturated.same(b.dual(1, gf), b.comp(1, b.dual(1, f), b.dual(1, g)))
    assert saturated.same(b.refl(2, gf), b.comp(1, b.refl(2, g), b.refl(2, f)))


def test_expected_distinctions_survive(saturated):
    u = saturated.universe
    assert not saturated.same(by_text(u, "gen(f)"), by_text(u, "gen(g)"))
    assert not saturated.same(by_text(u, "gen(a)"), by_text(u, "gen(b)"))
    b = u.builder
    f = by_text(u, "gen(f)")
    assert not saturated.same(f, b.dual(1, f))


def test_class_counts_at_depth_three(saturated):
    got = {}
    for level, terms in sorted(saturated.universe.levels.items()):
        got[level] = len({saturated.find(t.nid) for t in terms})
    assert got == {(0, ()): 3, (1, (1,)): 19, (1, (2,)): 3, (2, (1, 2)): 13}
    assert saturated.universe.size == 142
    # the arena is still the one the fixture saturated: no late nodes yet
    assert saturated.stats() == {
        "nodes": 93825,
        "seeded": 51196,
        "merges": 93570,
        "processed": 93570,
        "completed": True,
    }
    assert saturated.merge_reasons() == {"seed": 47328, "congruence": 46242, "faces": 0}


def test_representative_is_the_smallest_member(saturated):
    u = saturated.universe
    b = u.builder
    f = by_text(u, "gen(f)")
    padded = b.comp(1, b.refl(1, by_text(u, "gen(b)")), f)
    members = [t for t in u.all_terms() if saturated.find(t.nid) == saturated.find(f.nid)]
    assert padded in members
    assert min(members, key=lambda m: m.sort_key) is f


def test_explain_produces_a_connected_chain(saturated):
    u = saturated.universe
    b = u.builder
    f = by_text(u, "gen(f)")
    t1 = b.dual(1, b.dual(1, f))
    t2 = b.comp(1, f, b.refl(1, by_text(u, "gen(a)")))
    steps = trace(saturated, t1, t2)
    assert steps
    chain = [t1.text] + [s["right"] for s in steps]
    assert chain[-1] == t2.text
    for prev, step in zip(chain, steps):
        assert step["left"] == prev
        assert step["by"]
    assert trace(saturated, f, f) == []


def test_traces_of_every_depth_three_instance_are_pinned(saturated):
    # the proof forest's layout may change; the traces it yields may not
    rels = instantiate_relations(saturated.universe)
    assert len(rels) == 51196
    h = hashlib.sha256()
    for r in rels:
        h.update(json.dumps(trace(saturated, r.left, r.right)).encode())
    assert h.hexdigest() == "407c257a4c9537d75b021d70310946b148174a0f53481593896eb373fd8d08e5"


def full_path_explain(session, a, b):
    """Reference trace: walk both proof-forest paths to the root, then cut
    them at the first shared node; kept apart from the session's own walk."""
    parent, why = session._pf_parent, session._pf_reason
    if a is b:
        return []

    def path_to_root(n):
        out = [n]
        while parent[n] != -1:
            n = parent[n]
            out.append(n)
        return out

    def reason_text(reason):
        if reason[0] == "seed":
            return f"relation {reason[1]}"
        if reason[0] == "faces":
            return f"{reason[4]}-face({reason[3]}) of a merged pair"
        return "operation compatibility"

    pa, pb = path_to_root(a.nid), path_to_root(b.nid)
    on_a = {n: i for i, n in enumerate(pa)}
    meet = next(n for n in pb if n in on_a)
    steps = [(n, parent[n], why[n]) for n in pa[: on_a[meet]]]
    steps += [(parent[n], n, why[n]) for n in reversed(pb[: pb.index(meet)])]
    terms = session.builder.terms
    return [
        {"left": terms[x].text, "right": terms[y].text, "by": reason_text(r)}
        for x, y, r in steps
    ]


def reversed_trace(steps):
    return [{"left": s["right"], "right": s["left"], "by": s["by"]} for s in reversed(steps)]


def test_explain_matches_the_full_path_walk_inside_every_universe_class(saturated):
    classes = saturated.classes(saturated.universe.all_terms())
    assert len(classes) == 38
    pairs = longest = 0
    for members in classes:
        for a in members:
            for b in members:
                steps = trace(saturated, a, b)
                assert steps == full_path_explain(saturated, a, b)
                assert trace(saturated, b, a) == reversed_trace(steps)
                pairs += 1
                longest = max(longest, len(steps))
    assert pairs == 802
    assert longest == 9


def test_explain_matches_the_full_path_walk_on_random_arena_pairs(saturated):
    terms = saturated.builder.terms
    by_root = {}
    for n in range(saturated.stats()["nodes"]):
        by_root.setdefault(saturated.find(n), []).append(n)
    rng = random.Random(20261018)
    nodes = range(saturated.stats()["nodes"])
    for _ in range(20000):
        a = rng.choice(nodes)
        b = rng.choice(by_root[saturated.find(a)])
        steps = trace(saturated, terms[a], terms[b])
        assert steps == full_path_explain(saturated, terms[a], terms[b])
        assert trace(saturated, terms[b], terms[a]) == reversed_trace(steps)


def test_decide_equal_three_verdicts(saturated, quiver):
    u = saturated.universe
    b = u.builder
    f = by_text(u, "gen(f)")
    g = by_text(u, "gen(g)")
    eq = decide_equal(saturated, f, b.dual(1, b.dual(1, f)))
    assert eq.verdict == "equal"
    assert eq.witness["trace"]

    sep = word_separator(quiver)
    ne = decide_equal(saturated, f, g, [sep])
    assert ne.verdict == "not-equal"
    assert ne.witness["left_value"] != ne.witness["right_value"]

    # distinct dim-2 classes, and the word separator cannot evaluate squares
    unk = decide_equal(saturated, b.refl(2, f), b.refl(2, g), [sep])
    assert unk.verdict == "unknown"
    assert "session" in unk.witness
    assert unk.witness["cause"] == "no-separator-applied"


def collapsing_assignment(quiver):
    """One object and one arrow: f and g land on the same cell."""
    return GeneratorAssignment(
        quiver,
        as_strict_table(cyclic_group_category(1)),
        {(0, ()): {"a": "e", "b": "e", "c": "e"}, (1, (1,)): {"f": "g0", "g": "g0"}},
    )


def test_unknown_verdicts_without_a_separating_model_name_their_cause(saturated, quiver):
    u = saturated.universe
    f = by_text(u, "gen(f)")
    g = by_text(u, "gen(g)")
    alone = decide_equal(saturated, f, g)
    assert alone.verdict == "unknown"
    assert alone.witness["cause"] == "no-separator"
    collapse = collapsing_assignment(quiver)
    blind = decide_equal(saturated, f, g, [collapse])
    assert blind.verdict == "unknown"
    assert blind.witness["cause"] == "not-separated"


def counted_applies(monkeypatch):
    """Count every generator image a separator is asked for."""
    calls = []
    real = GeneratorAssignment.apply

    def apply(self, cell):
        calls.append(self)
        return real(self, cell)

    monkeypatch.setattr(GeneratorAssignment, "apply", apply)
    return calls


@pytest.fixture()
def small_closure(quiver):
    u = enumerate_free_magma(quiver, 2)
    return u, instantiate_relations(u)


def test_separator_images_are_memoised_per_session(monkeypatch, small_closure, quiver):
    u, rels = small_closure
    f, g = by_text(u, "gen(f)"), by_text(u, "gen(g)")
    sep = word_separator(quiver)
    calls = counted_applies(monkeypatch)
    session = CongruenceSession(u).seed(rels).saturate()
    first = decide_equal(session, f, g, [sep])
    assert first.verdict == "not-equal"
    assert first.witness == {
        "separator": 0,
        "target": "free-words-6(two-generator-quiver)",
        "left_value": "1/1:f",
        "right_value": "1/1:g",
    }
    assert len(calls) == 2
    # the same pair again evaluates nothing
    assert decide_equal(session, f, g, [sep]) == first
    assert len(calls) == 2
    # a second session keeps no images of the first
    other = CongruenceSession(u).seed(rels).saturate()
    assert decide_equal(other, f, g, [sep]) == first
    assert len(calls) == 4


def test_distinct_separators_keep_their_own_images(monkeypatch, small_closure, quiver):
    u, rels = small_closure
    b = u.builder
    f, g = by_text(u, "gen(f)"), by_text(u, "gen(g)")
    word = word_separator(quiver)
    collapse = collapsing_assignment(quiver)
    calls = counted_applies(monkeypatch)
    session = CongruenceSession(u).seed(rels).saturate()
    both = decide_equal(session, f, g, [collapse, word])
    assert both.verdict == "not-equal"
    assert both.witness["separator"] == 1
    assert both.witness["left_value"] == "1/1:f"
    assert Counter(id(a) for a in calls) == {id(collapse): 2, id(word): 2}
    del calls[:]
    # each separator answers from its own images, in either order and alone
    assert decide_equal(session, f, g, [collapse]).witness["cause"] == "not-separated"
    swapped = decide_equal(session, f, g, [word, collapse])
    assert swapped.witness == {**both.witness, "separator": 0}
    assert calls == []
    # a new term over a memoised generator needs no new generator image
    flipped = decide_equal(session, f, b.dual(1, f), [collapse, word])
    assert flipped.witness["separator"] == 1
    assert flipped.witness["right_value"] == "1/1:f'"
    assert calls == []


def test_decide_equal_accepts_late_nodes(saturated):
    u = saturated.universe
    b = u.builder
    f = by_text(u, "gen(f)")
    fresh = b.dual(1, b.dual(1, b.dual(1, b.dual(1, f))))
    verdict = decide_equal(saturated, fresh, f)
    assert verdict.verdict == "equal"


def test_decide_equal_rejects_foreign_terms(saturated, quiver):
    other = TermBuilder(quiver)
    foreign = other.gen(quiver.cell(1, (1,), "f"))
    with pytest.raises(TermError):
        decide_equal(saturated, foreign, foreign)
    u = saturated.universe
    with pytest.raises(TermError):
        decide_equal(saturated, by_text(u, "gen(a)"), by_text(u, "gen(f)"))
    # one dimension, different directions: the level test compares both
    with pytest.raises(TermError, match="different levels"):
        decide_equal(saturated, by_text(u, "id[1](gen(a))"), by_text(u, "id[2](gen(a))"))
    own = by_text(u, "gen(f)")
    for pair in ((own, foreign), (foreign, own)):
        with pytest.raises(TermError, match="own builder"):
            decide_equal(saturated, *pair)


def test_audit_confirms_the_fixpoint(saturated):
    report = audit_congruence(saturated)
    assert report.ok
    assert report.checked == 342788


def test_saturation_leaves_the_queue_empty(saturated):
    assert saturated.completed
    assert not saturated._pending


def partition_digest(session, universe):
    h = hashlib.sha256()
    for group in session.classes(universe.all_terms()):
        h.update((" ".join(t.text for t in group) + "\n").encode())
    return h.hexdigest()


# the depth-2 universe closed under only the instances whose sides are
# squares: the arrow instances among their faces are left unseeded
SQUARE_SEEDED = "6a14625b84f60ae006fa16893f9a3f57c6189dee586b44f50e765706d36c890f"
# the 51 classes of the depth-4 universe, as keying every syntactic match gives them
DEPTH_FOUR_PARTITION = "2fd748fe0f8bdfeae93c8e9118080999aa9c73a940f56de96ce4c32fc3986ed9"


@pytest.fixture()
def square_seeds(quiver):
    u = enumerate_free_magma(quiver, 2)
    return u, [r for r in instantiate_relations(u) if r.left.dim == 2]


def test_fixpoint_face_pass_finds_unseeded_face_merges(square_seeds):
    u, rels = square_seeds
    assert len(rels) == 1175
    session = CongruenceSession(u).seed(rels).saturate()
    assert session.completed
    assert session.stats()["merges"] == 4399
    assert session.merge_reasons()["faces"] > 0
    assert len(session.classes(u.all_terms())) == 27
    assert partition_digest(session, u) == SQUARE_SEEDED
    report = audit_congruence(session)
    assert report.ok and report.checked == 17144


def test_budget_running_out_after_a_face_pass_is_reported(square_seeds):
    u, rels = square_seeds
    # 1,847 merges drain the seeded queue, and the face pass queues more
    session = CongruenceSession(u).seed(rels).saturate(budget=1850)
    assert not session.completed
    assert session.merge_reasons()["faces"] > 0
    verdict = decide_equal(session, by_text(u, "gen(f)"), by_text(u, "gen(g)"))
    assert verdict.verdict == "unknown"
    assert verdict.witness["cause"] == "budget"
    session.saturate()
    assert session.completed
    assert partition_digest(session, u) == SQUARE_SEEDED


def _split_out(session, t):
    """Make t a class of its own, bypassing the closure."""
    for n in range(session.stats()["nodes"]):
        session.find(n)  # flatten, so no other node points through t
    assert session.find(t.nid) != t.nid
    session._parent[t.nid] = t.nid


def _union(session, x, y):
    """Join the classes of x and y, bypassing the closure and the face pass."""
    session._parent[session.find(y.nid)] = session.find(x.nid)


def test_audit_reports_each_planted_fault_under_its_tag(quiver):
    u = enumerate_free_magma(quiver, 2)
    rels = instantiate_relations(u)
    b = u.builder
    f = by_text(u, "gen(f)")

    split = CongruenceSession(u).seed(rels).saturate()
    assert audit_congruence(split).ok
    twice = b.refl(2, b.dual(1, b.dual(1, f)))
    assert split.same(twice, b.refl(2, f))
    _split_out(split, twice)
    report = audit_congruence(split)
    assert {v.tag for v in report.violations} == {"op-compat"}
    assert twice.text in report.violations[0].detail

    joined = CongruenceSession(u).seed(rels).saturate()
    ida = b.refl(2, b.refl(1, by_text(u, "gen(a)")))
    idb = b.refl(2, b.refl(1, by_text(u, "gen(b)")))
    assert not joined.same(ida, idb)
    _union(joined, ida, idb)
    report = audit_congruence(joined)
    assert {v.tag for v in report.violations} == {"face-closure"}


def test_budget_exhaustion_reports_honestly(quiver):
    u = enumerate_free_magma(quiver, 2)
    session = CongruenceSession(u).seed(instantiate_relations(u)).saturate(budget=5)
    assert not session.completed
    stats = session.stats()
    assert stats["processed"] <= 5 < stats["seeded"]
    f = by_text(u, "gen(f)")
    cut_short = decide_equal(session, f, by_text(u, "gen(g)"))
    assert cut_short.verdict == "unknown"
    assert cut_short.witness["cause"] == "budget"
    b = u.builder
    left_alone = decide_equal(session, b.comp(1, f, b.refl(1, by_text(u, "gen(a)"))), f)
    assert left_alone.verdict in {"equal", "unknown"}
    session.saturate()
    assert session.completed


def test_manual_merges_propagate_to_faces(quiver):
    u = enumerate_free_magma(quiver, 1)
    session = CongruenceSession(u)
    session.saturate()
    f = by_text(u, "gen(f)")
    g = by_text(u, "gen(g)")
    assert not session.same(by_text(u, "gen(a)"), by_text(u, "gen(b)"))
    session.seed([RelationInstance("manual", f, g)])
    session.saturate()
    # endpoints follow the merged arrows
    assert session.same(by_text(u, "gen(a)"), by_text(u, "gen(b)"))
    assert session.same(by_text(u, "gen(b)"), by_text(u, "gen(c)"))
    assert audit_congruence(session).ok
    reasons = session.merge_reasons()
    assert reasons["faces"] > 0
    assert sum(reasons.values()) == session.processed


def test_equal_trace_names_a_face_merge():
    u = enumerate_free_magma(two_generator_quiver(DIM1_CONFIG), 1, max_stage_dim=1)
    f = by_text(u, "gen(f)")
    g = by_text(u, "gen(g)")
    session = CongruenceSession(u).seed([RelationInstance("manual", f, g)]).saturate()
    decision = decide_equal(session, by_text(u, "gen(a)"), by_text(u, "gen(b)"))
    assert decision.verdict == "equal"
    assert render_trace(u.builder, decision.witness["trace"]) == [
        {"left": "gen(a)", "right": "gen(b)", "by": "s-face(1) of a merged pair"}
    ]


def test_same_rejects_a_term_built_after_saturation(quiver):
    u = enumerate_free_magma(quiver, 1)
    session = CongruenceSession(u).saturate()
    f = by_text(u, "gen(f)")
    late = u.builder.dual(1, u.builder.dual(1, f))
    with pytest.raises(TermError, match="created after the last saturation pass"):
        session.same(late, f)


def test_intern_keys_hold_no_terms(quiver):
    # keys of ints and strings are untracked by the cyclic collector
    u = enumerate_free_magma(quiver, 2)
    session = CongruenceSession(u).seed(instantiate_relations(u)).saturate()
    gc.collect()
    keys = u.builder._intern
    assert len(keys) == len(u.builder)
    assert not any(gc.is_tracked(key) for key in keys)
    # an operation node is interned, and signed, under one int each
    gen_keys = [k for k, t in keys.items() if t.kind == "gen"]
    assert len(gen_keys) == 5 and all(isinstance(k, tuple) for k in gen_keys)
    assert all(type(k) is int for k, t in keys.items() if t.kind != "gen")
    assert session._sig and all(type(k) is int for k in session._sig)


def test_deciding_every_instance_formats_no_text_outside_the_universe(quiver):
    u = enumerate_free_magma(quiver, 3)
    rels = instantiate_relations(u)
    session = CongruenceSession(u).seed(rels).saturate()
    for r in rels:
        decision = decide_equal(session, r.left, r.right)
        assert decision.verdict == "equal"
    inside = {t.nid for t in u.all_terms()}
    assert len(u.builder) == 93825
    assert not [t for t in u.builder.terms if t.nid not in inside and t._text is not None]


def test_equal_witness_is_a_list_of_node_id_steps(saturated):
    u = saturated.universe
    f = by_text(u, "gen(f)")
    t1 = u.builder.dual(1, u.builder.dual(1, f))
    steps = decide_equal(saturated, t1, f).witness["trace"]
    assert steps[0][0] == t1.nid and steps[-1][1] == f.nid
    for left, right, reason in steps:
        assert type(left) is int and type(right) is int
        assert saturated._pf_reason[left] is reason or saturated._pf_reason[right] is reason
    assert render_trace(saturated.builder, steps) == [
        {"left": "dual[1](dual[1](gen(f)))", "right": "gen(f)", "by": "relation involutive"}
    ]


def test_signature_merging_is_congruent(quiver):
    u = enumerate_free_magma(quiver, 2)
    session = CongruenceSession(u).seed(instantiate_relations(u)).saturate()
    b = u.builder
    f = by_text(u, "gen(f)")
    padded = b.comp(1, f, b.refl(1, by_text(u, "gen(a)")))
    # equal arguments force equal duals without a seeded pair for them
    assert session.same(b.dual(1, padded), b.dual(1, f))
    assert session.same(b.refl(2, padded), b.refl(2, f))


# -- closure over classes ------------------------------------------------


def second_pass_seeds(session, levels, cap=None):
    """Key every syntactic match of levels once more and return how many
    keys it finds unseen; a closed session leaves none."""
    fresh = session._seed_new_classes(_matches(session.builder, levels, cap))
    # keying clears completed; with nothing seeded, saturating restores it
    session.saturate()
    return fresh


def test_class_closure_partitions_the_depth_three_universe_as_the_syntactic_one(
    quiver, saturated
):
    u = enumerate_free_magma(quiver, 3)
    session = CongruenceSession(u).saturate_over_classes()
    assert session.completed
    assert len(session.classes(u.all_terms())) == 38
    assert partition_digest(session, u) == partition_digest(saturated, saturated.universe)
    # the 51,196 matches fall into 1,787 operand-class tuples
    assert len(session._seen) == 1787
    assert session.stats()["nodes"] < saturated.stats()["nodes"] // 20
    assert audit_congruence(session).ok
    # the rounds over rows left no syntactic match's key unseen
    assert second_pass_seeds(session, u.levels) == 0
    assert session.completed
    # a second call finds every level closed and grounds none of them
    stats = session.stats()
    session.saturate_over_classes()
    assert session.stats() == stats
    assert len(session._seen) == 1787
    # every syntactic instance, built into the arena, is closed by
    # congruence alone: the seed merges stay those of the class closure
    seed_merges = session.merge_reasons()["seed"]
    assert seed_merges == 1936
    rels = instantiate_relations(u)
    session.saturate()
    assert session.merge_reasons()["seed"] == seed_merges
    assert all(session.same(r.left, r.right) for r in rels)
    assert session.stats() == {
        "nodes": 93825, "seeded": 2125, "merges": 93570, "processed": 93570, "completed": True
    }


def test_class_closure_partitions_the_depth_four_universe(quiver):
    # 468 terms; the partition is the one keying every match gives
    u = enumerate_free_magma(quiver, 4)
    session = CongruenceSession(u).saturate_over_classes()
    assert session.completed
    assert u.size == 468
    assert len(session.classes(u.all_terms())) == 51
    assert partition_digest(session, u) == DEPTH_FOUR_PARTITION
    assert len(session._seen) == 4069
    assert session.stats() == {
        "nodes": 8199, "seeded": 4407, "merges": 7687, "processed": 7687, "completed": True
    }
    assert audit_congruence(session).ok
    assert second_pass_seeds(session, u.levels) == 0


def closure_case(name, quiver):
    """A universe, the part of it to close and the side cap of a named case."""
    if name == "oracle-dim1":
        p = two_generator_quiver(DIM1_CONFIG)
        u = enumerate_free_magma(p, ORACLE_DEPTH, size_cap=ORACLE_SIZE_CAP, max_stage_dim=1)
        return u, u, ORACLE_SIDE_CAP
    # the square levels of the square_seeds universe, whose merges reach
    # the unseeded arrows only through faces
    u = enumerate_free_magma(quiver, 2)
    return u, replace(u, levels={lv: ts for lv, ts in u.levels.items() if lv[0] == 2}), None


def reference(u, cap=None):
    """The plain-pass closure of every relation instance of u."""
    return ReferenceClosure(u.builder, instantiate_relations(u, max_side_size=cap))


@pytest.mark.parametrize("case", ["oracle-dim1", "square-levels"])
def test_class_closure_matches_a_fresh_syntactic_closure(quiver, case):
    u, part, cap = closure_case(case, quiver)
    rels = instantiate_relations(part, max_side_size=cap)
    ref = ReferenceClosure(u.builder, rels)
    v, part, cap = closure_case(case, quiver)
    by_class = CongruenceSession(part).saturate_over_classes(max_side_size=cap)
    assert by_class.completed
    # both digests read the whole universe, the unseeded levels included
    assert partition_digest(by_class, v) == partition_digest(ref, u)
    assert by_class.stats()["seeded"] <= len(rels)
    if case == "square-levels":
        assert ref.unions["faces"] > 0
        assert by_class.merge_reasons()["faces"] > 0
    assert audit_congruence(by_class).ok


def test_class_closure_out_of_budget_resumes_from_the_seen_keys(quiver):
    u = enumerate_free_magma(quiver, 2)
    # the budget runs out in an early round, before the heavier terms are rowed
    session = CongruenceSession(u).saturate_over_classes(budget=10)
    assert not session.completed
    assert session.stats() == {
        "nodes": 49, "seeded": 18, "merges": 10, "processed": 10, "completed": False
    }
    # the levels the cut call was grounding stay open, none closed
    assert session._open == u.levels
    assert session._closed == {}
    f, g = by_text(u, "gen(f)"), by_text(u, "gen(g)")
    assert decide_equal(session, f, g).witness["cause"] == "budget"
    # draining the queue is not the closure while levels are left open,
    # also when a term built since makes decide_equal saturate
    b = u.builder
    ida = b.refl(1, by_text(u, "gen(a)"))
    fresh = b.comp(1, b.comp(1, f, ida), ida)
    assert fresh.nid >= session._ingested
    assert decide_equal(session, fresh, g).witness["cause"] == "budget"
    session.saturate()
    assert not session.completed
    # a second call grounds the open levels again, seeds the class tuples
    # the first one left unseen and finishes the same closure
    session.saturate_over_classes()
    assert session.completed
    assert session._open == {}
    assert session._closed == {lv: (ts, None) for lv, ts in u.levels.items()}
    full = enumerate_free_magma(quiver, 2)
    assert partition_digest(session, u) == partition_digest(reference(full), full)


def test_class_closure_cut_short_is_finished_by_a_call_on_other_levels(quiver):
    u = enumerate_free_magma(quiver, 2)
    arrows = replace(u, levels={lv: ts for lv, ts in u.levels.items() if lv[0] <= 1})
    session = CongruenceSession(arrows).saturate_over_classes(budget=10)
    assert not session.completed
    assert session._open == arrows.levels
    # the universe grows by the square levels; the arrow levels did not
    # change, yet no call finished them, so the next call grounds them too
    session.universe = u
    session.saturate_over_classes()
    assert session.completed
    assert session._open == {}
    assert set(session._closed) == set(u.levels)
    full = enumerate_free_magma(quiver, 2)
    assert partition_digest(session, u) == partition_digest(reference(full), full)


def test_class_closure_out_of_budget_runs_no_further_round(quiver):
    u, _, cap = closure_case("oracle-dim1", quiver)
    session = CongruenceSession(u).saturate_over_classes(max_side_size=cap, budget=20)
    assert not session.completed
    # the first round keys the weight-0 terms alone; the budget runs out
    # in its saturation, so exactly its keys are seeded and no later round
    # keys the heavier terms
    v, _, _ = closure_case("oracle-dim1", quiver)
    lightest = {lv: [t for t in ts if t.weight == 0] for lv, ts in v.levels.items()}
    first_round = CongruenceSession(v)._seed_new_classes(_matches(v.builder, lightest, cap))
    assert session.stats()["seeded"] == first_round == 10
    # every level stays open, to be grounded whole by the next call
    assert session._open == u.levels
    session.saturate_over_classes(max_side_size=cap)
    v, _, cap = closure_case("oracle-dim1", quiver)
    unbudgeted = CongruenceSession(v).saturate_over_classes(max_side_size=cap)
    assert session.stats() == unbudgeted.stats() == {
        "nodes": 1366, "seeded": 583, "merges": 1299, "processed": 1299, "completed": True
    }
    w, _, cap = closure_case("oracle-dim1", quiver)
    assert partition_digest(session, u) == partition_digest(reference(w, cap), w)


@st.composite
def small_quivers(draw):
    """Up to three objects and three direction-1 generators between them."""
    objects = ["a", "b", "c"][: draw(st.integers(1, 3))]
    arrows = draw(
        st.lists(st.tuples(st.sampled_from(objects), st.sampled_from(objects)), min_size=1, max_size=3)
    )
    names = [f"f{i}" for i in range(len(arrows))]
    return CubicalSetPresentation(
        TruncationConfig(max_dim=2, dir_universe=2, term_depth=2),
        cells={(0, ()): objects, (1, (1,)): names},
        faces={
            (1, (1,), 1, "s"): {n: s for n, (s, _) in zip(names, arrows)},
            (1, (1,), 1, "t"): {n: t for n, (_, t) in zip(names, arrows)},
        },
        name="random-quiver",
    )


@settings(max_examples=15, deadline=None)
@given(p=small_quivers(), cap=st.sampled_from([None, 7]))
def test_class_closure_matches_the_syntactic_one_on_random_quivers(p, cap):
    u = enumerate_free_magma(p, 2, size_cap=3)
    v = enumerate_free_magma(p, 2, size_cap=3)
    by_class = CongruenceSession(v).saturate_over_classes(max_side_size=cap)
    assert by_class.completed
    assert partition_digest(by_class, v) == partition_digest(reference(u, cap), u)
    assert second_pass_seeds(by_class, v.levels, cap) == 0
