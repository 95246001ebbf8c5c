"""Free contractions: filler certification, units, induced maps."""

import copy
import random
from dataclasses import replace

import pytest

from omegacube import (
    CongruenceSession,
    ContractionError,
    CubicalSetPresentation,
    SetMorphism,
    TermBuilder,
    TruncationConfig,
    build_free_contraction,
    decide_equal,
    enumerate_free_magma,
    free_on_morphism,
    instantiate_relations,
    random_set_morphism,
    rich_loop_target,
    two_generator_quiver,
    unit_eta,
    universe_as_presentation,
    validate_contraction,
    validate_contraction_morphism,
    validate_cubical_axioms,
    validate_morphism,
    validate_quiver,
)
from omegacube.congruence import _matches
from omegacube.relations import reflector_dirs
from reference_closure import ReferenceClosure


def by_text(cd, text):
    return next(t for t in cd.universe.all_terms() if t.text == text)


def identity_map(p):
    """The identity morphism of a presentation."""
    return SetMorphism(p, p, {lv: {c.name: c.name for c in refs} for lv, refs in p.cells.items()})


@pytest.fixture()
def scratch(quiver):
    """A private size-capped build that mutation tests may deface."""
    return build_free_contraction(quiver, depth=2, size_cap=3)


def loop_target(seed_config):
    """Two objects, parallel arrows A, B: u -> v and a loop m: v -> v."""
    return CubicalSetPresentation(
        seed_config,
        cells={(0, ()): ["u", "v"], (1, (1,)): ["A", "B", "m"]},
        faces={
            (1, (1,), 1, "s"): {"A": "u", "B": "u", "m": "v"},
            (1, (1,), 1, "t"): {"A": "v", "B": "v", "m": "v"},
        },
        name="loop-target",
    )


def test_stagewise_build_reaches_the_cap(contraction):
    assert [(s.dim, s.universe_size, s.kappa_added) for s in contraction.stages] == [
        (0, 3, 0),
        (1, 31, 36),
        (2, 94, 0),
    ]
    assert all(s.session["completed"] for s in contraction.stages)
    assert contraction.session.completed
    assert len(contraction.kappa) == 36


def test_all_filler_invariants_hold(contraction):
    report = validate_contraction(contraction)
    assert report.ok
    assert report.checked == 252


def test_fillers_connect_identified_pairs(contraction):
    f = by_text(contraction, "gen(f)")
    padded = by_text(contraction, "comp[1](gen(f),id[1](gen(a)))")
    assert contraction.session.same(f, padded)
    k = contraction.kappa_of(2, f, padded)
    b = contraction.builder
    assert b.boundary(k, 2, "s") is f
    assert b.boundary(k, 2, "t") is padded
    # the filler projects onto the degenerate square on both ends
    assert contraction.session.same(k, b.refl(2, f))


def test_diagonal_requests_collapse_to_reflectors(contraction):
    b = contraction.builder
    requests = 0
    for level, terms in contraction.universe.levels.items():
        for d in reflector_dirs(contraction.builder.config, level):
            for t in terms:
                assert b.kappa(d, t, t) is b.refl(d, t)
                assert contraction.kappa_of(d, t, t) is b.refl(d, t)
                requests += 1
    assert requests == 34


def test_unidentified_pairs_have_no_filler(contraction):
    f = by_text(contraction, "gen(f)")
    g = by_text(contraction, "gen(g)")
    assert not contraction.session.same(f, g)
    with pytest.raises(ContractionError):
        contraction.kappa_of(2, f, g)


def test_fillers_reject_terms_of_other_builders(contraction):
    stranger = TermBuilder(contraction.presentation)
    enumerate_free_magma(stranger, 2)
    # a filler key whose nids both name terms of the second builder
    d, xn, yn = next(k for k in sorted(contraction.kappa) if max(k[1:]) < len(stranger))
    x, y = stranger.terms[xn], stranger.terms[yn]
    with pytest.raises(ContractionError, match="another builder"):
        contraction.kappa_of(d, x, y)
    with pytest.raises(ContractionError, match="another builder"):
        contraction.kappa_of(d, x, x)
    own = contraction.builder.terms
    assert contraction.kappa_of(d, own[xn], own[yn]) is contraction.kappa[(d, xn, yn)]


def test_missing_filler_is_detected(scratch):
    key = sorted(scratch.kappa)[0]
    del scratch.kappa[key]
    report = validate_contraction(scratch)
    assert {v.tag for v in report.violations} == {"kappa-domain-missing"}


def test_misrouted_filler_is_detected(scratch):
    keys = sorted(scratch.kappa)
    scratch.kappa[keys[0]] = scratch.kappa[keys[-1]]
    report = validate_contraction(scratch)
    assert not report.ok
    tags = {v.tag for v in report.violations}
    assert tags <= {"kappa-source", "kappa-target", "kappa-transverse", "kappa-projection"}
    assert "kappa-source" in tags or "kappa-target" in tags


def test_filler_for_a_separated_pair_is_detected(scratch):
    f = by_text(scratch, "gen(f)")
    g = by_text(scratch, "gen(g)")
    donor = scratch.kappa[sorted(scratch.kappa)[0]]
    scratch.kappa[(2, f.nid, g.nid)] = donor
    report = validate_contraction(scratch)
    assert any(v.tag == "kappa-domain-extra" for v in report.violations)


# a class of four identified 1-cells of the depth-2 contraction
F_CLASS = (
    "gen(f)",
    "comp[1](gen(f),id[1](gen(a)))",
    "comp[1](id[1](gen(b)),gen(f))",
    "dual[1](dual[1](gen(f)))",
)


def plant(cd, tag):
    """Deface a copy of a contraction so that the invariant behind tag fails.

    The copy owns its filler table; anything else that is swapped out
    is replaced on the copy, never changed in place.
    """
    x, y, x2, y2 = (by_text(cd, text) for text in F_CLASS)
    key = (2, x.nid, y.nid)
    if tag == "kappa-source":
        cd.kappa[key] = cd.kappa[(2, x2.nid, y.nid)]
    elif tag == "kappa-target":
        cd.kappa[key] = cd.kappa[(2, x.nid, y2.nid)]
    elif tag == "kappa-degenerate":
        cd.kappa[(2, x.nid, x.nid)] = cd.builder.refl(2, x)
    elif tag == "kappa-transverse":
        # a builder copy that reports a wrong 1-face for one filler
        node = cd.kappa[key]
        wrong = cd.builder.refl(2, by_text(cd, "gen(b)"))
        b = copy.copy(cd.builder)
        real = b.boundary
        b.boundary = lambda t, d, side: wrong if t is node and d == 1 else real(t, d, side)
        cd.builder = b
    elif tag == "kappa-projection":
        # a word problem that lacks the contraction-projection instances
        relations = [
            r for r in instantiate_relations(cd.universe) if r.family != "contraction-projection"
        ]
        cd.session = CongruenceSession(cd.universe).seed(relations).saturate()


# the two domain tags have their planted faults in the tests above
@pytest.mark.parametrize(
    "tag, reported",
    [
        ("kappa-source", {"kappa-source"}),
        ("kappa-target", {"kappa-target"}),
        # a diagonal pair is never in the domain either
        ("kappa-degenerate", {"kappa-domain-extra", "kappa-degenerate"}),
        ("kappa-transverse", {"kappa-transverse"}),
        ("kappa-projection", {"kappa-projection"}),
    ],
)
def test_planted_fault_is_reported_under_its_tag(contraction, tag, reported):
    defaced = replace(contraction, kappa=dict(contraction.kappa))
    assert validate_contraction(defaced).ok
    plant(defaced, tag)
    report = validate_contraction(defaced)
    assert {v.tag for v in report.violations} == reported


def test_universe_reads_back_as_a_presentation(contraction):
    p = universe_as_presentation(contraction.universe)
    assert validate_quiver(p).ok
    assert validate_cubical_axioms(p).ok
    assert sum(len(cs) for cs in p.cells.values()) == contraction.universe.size


def test_unit_lands_generators_on_their_terms(contraction):
    eta = unit_eta(contraction)
    assert validate_morphism(eta).ok
    assert eta.maps[(1, (1,))]["f"] == "gen(f)"
    assert eta.maps[(0, ())]["a"] == "gen(a)"


def test_identity_morphism_extends_to_the_identity(contraction):
    ident = identity_map(contraction.presentation)
    ext = free_on_morphism(ident, contraction, contraction)
    assert validate_contraction_morphism(ext).ok
    for text in ("gen(f)", "comp[1](gen(g),gen(f))", "id[1](gen(b))"):
        t = by_text(contraction, text)
        assert ext.phi(t) is t


# One wrong image is also seen at the faces of the terms above it, so
# most faults report boundary-compat next to their own tag.
@pytest.mark.parametrize(
    "source, image, reported",
    [
        ("gen(a)", "gen(b)", {"on-generators", "boundary-compat"}),
        ("dual[1](gen(f))", "gen(f)", {"boundary-compat"}),
        ("id[2](gen(f))", "id[2](gen(g))", {"boundary-compat", "class-compat"}),
        ("id[1](gen(a))", "dual[1](id[1](gen(a)))", {"boundary-compat", "kappa-compat"}),
        # the target has no filler for the image pair (gen(g), gen(f))
        (
            "gen(f)",
            "gen(g)",
            {"on-generators", "boundary-compat", "class-compat", "kappa-compat"},
        ),
    ],
)
def test_planted_morphism_fault_is_reported_under_its_tag(contraction, source, image, reported):
    ident = identity_map(contraction.presentation)
    ext = free_on_morphism(ident, contraction, contraction)
    term_map = {**ext.term_map, by_text(contraction, source): by_text(contraction, image)}
    report = validate_contraction_morphism(replace(ext, term_map=term_map))
    assert {v.tag for v in report.violations} == reported


def test_extended_morphism_rejects_terms_of_other_builders(contraction):
    p = contraction.presentation
    ext = free_on_morphism(identity_map(p), contraction, contraction)
    stranger = TermBuilder(p).gen(p.cell(1, (1,), "g"))
    assert contraction.builder.terms[stranger.nid] in ext.term_map
    with pytest.raises(ContractionError, match="outside the mapped universe"):
        ext.phi(stranger)


def test_morphisms_extend_with_naturality(quiver, seed_config, contraction):
    target_p = loop_target(seed_config)
    target = build_free_contraction(target_p, depth=2)
    fold = SetMorphism(
        quiver,
        target_p,
        {
            (0, ()): {"a": "u", "b": "v", "c": "v"},
            (1, (1,)): {"f": "A", "g": "m"},
        },
        name="fold",
    )
    assert validate_morphism(fold).ok
    ext = free_on_morphism(fold, contraction, target)
    report = validate_contraction_morphism(ext)
    assert report.ok
    assert report.checked > 0
    gf = by_text(contraction, "comp[1](gen(g),gen(f))")
    assert ext.phi(gf).text == "comp[1](gen(m),gen(A))"
    f = by_text(contraction, "gen(f)")
    padded = by_text(contraction, "comp[1](gen(f),id[1](gen(a)))")
    filler = contraction.kappa_of(2, f, padded)
    image = ext.phi(filler)
    assert target.session.same(image, target.builder.refl(2, ext.phi(f)))


@pytest.mark.parametrize("budget", [1, 5])
def test_unidentified_image_pair_is_a_contraction_error(quiver, seed_config, budget):
    # with budget 1 the image pair holds a node the target never ingested
    source = build_free_contraction(quiver, depth=2, size_cap=3)
    target = build_free_contraction(rich_loop_target(seed_config), depth=0, size_cap=3, budget=budget)
    f = random_set_morphism(quiver, target.presentation, random.Random(0))
    with pytest.raises(ContractionError, match="is not identified in the target"):
        free_on_morphism(f, source, target)


def test_level_one_classes_of_the_contraction(contraction):
    classes = contraction.session.classes(contraction.universe.level(1, (1,)))
    assert len(classes) == 13
    f = by_text(contraction, "gen(f)")
    padded = by_text(contraction, "comp[1](gen(f),id[1](gen(a)))")
    # level lists are sorted by (size, text), so f leads its class
    assert next(members for members in classes if padded in members)[0] is f


def partition(session, universe):
    classes: dict[int, list[int]] = {}
    for t in universe.all_terms():
        classes.setdefault(session.find(t.nid), []).append(t.nid)
    return sorted(sorted(c) for c in classes.values())


def build_with_stage_snapshots(monkeypatch, p, **kwargs):
    """Build, recording each stage's universe and its partition under the
    shared session right after the stage closes over its classes."""
    snapshots = []
    close = CongruenceSession.saturate_over_classes

    def spy(self, **kwargs):
        out = close(self, **kwargs)
        snapshots.append((self.universe, partition(self, self.universe)))
        return out

    monkeypatch.setattr(CongruenceSession, "saturate_over_classes", spy)
    cd = build_free_contraction(p, **kwargs)
    monkeypatch.undo()
    return cd, snapshots


@pytest.mark.parametrize(
    "kwargs, sessions",
    [
        (
            {"depth": 2, "size_cap": 3},
            [(15, 6, 6), (302, 167, 252), (1058, 669, 1005)],
        ),
        (
            {"depth": 2},
            [(15, 6, 6), (854, 460, 739), (1747, 1053, 1634)],
        ),
    ],
    ids=["size-cap-3", "depth-2"],
)
def test_shared_session_matches_fresh_closure_per_stage(monkeypatch, quiver, kwargs, sessions):
    cd, snapshots = build_with_stage_snapshots(monkeypatch, quiver, **kwargs)
    assert len(snapshots) == len(cd.stages)
    expected_kappa = set()
    for n, (universe, shared) in enumerate(snapshots):
        fresh = CongruenceSession(universe).seed(instantiate_relations(universe)).saturate()
        assert fresh.completed
        assert partition(fresh, universe) == shared
        if n == cd.builder.config.max_dim:
            continue
        for (dim, dirs), terms in universe.levels.items():
            if dim != n:
                continue
            upper = [d for d in range(1, cd.builder.config.dir_universe + 1) if d not in dirs]
            for x in terms:
                for y in terms:
                    if x is not y and fresh.same(x, y):
                        expected_kappa.update((d, x.nid, y.nid) for d in upper)
    assert set(cd.kappa) == expected_kappa
    # stage stats are cumulative snapshots of the shared session
    assert [s.session for s in cd.stages] == [
        {"nodes": nodes, "seeded": seeded, "merges": merges, "processed": merges,
         "completed": True}
        for nodes, seeded, merges in sessions
    ]


# the source presentation and build settings of the contraction-rich benchmark
W2_CONFIG = TruncationConfig(max_dim=2, dir_universe=2, term_depth=2)
W2_BUILD = {"depth": 2, "size_cap": 3, "max_side_size": 12}


def test_contraction_out_of_budget_ends_unknown():
    p = two_generator_quiver(W2_CONFIG)
    cd = build_free_contraction(p, budget=100, **W2_BUILD)
    assert [s.session["completed"] for s in cd.stages] == [True, False, False]
    assert cd.incomplete_stage() == 1
    # no violation blames the data for the budget
    assert validate_contraction(cd).ok
    u = cd.universe
    f, g = (next(t for t in u.all_terms() if t.text == text) for text in ("gen(f)", "gen(g)"))
    verdict = decide_equal(cd.session, f, g)
    assert verdict.verdict == "unknown"
    assert verdict.witness["cause"] == "budget"


def test_rich_target_contraction_leaves_no_key_for_a_second_pass():
    cd = build_free_contraction(rich_loop_target(W2_CONFIG), **W2_BUILD)
    session = cd.session
    assert session.completed
    # every match of the final universe has the key of some stage's rows
    matches = _matches(cd.builder, cd.universe.levels, W2_BUILD["max_side_size"])
    assert session._seed_new_classes(matches) == 0


def test_stages_cut_short_leave_their_levels_to_the_next_closure(quiver):
    # the budget runs out in stages 1 and 2; no stage finishes the levels
    # it grounds, so they stay open in the session, and one more closure
    # of the unchanged final universe finishes it
    cd = build_free_contraction(quiver, depth=2, budget=100)
    assert [s.session["completed"] for s in cd.stages] == [True, False, False]
    session = cd.session
    u = cd.universe
    assert {lv: len(ts) for lv, ts in session._open.items()} == {
        (1, (1,)): 22, (1, (2,)): 6, (2, (1, 2)): 63
    }
    assert all(ts is u.levels[lv] for lv, ts in session._open.items())
    # stage 0 finished its level, which no later stage changed
    assert set(session._closed) == {(0, ())}
    session.saturate()
    assert not session.completed
    session.saturate_over_classes()
    assert session.completed
    assert session._open == {}
    assert set(session._closed) == set(u.levels)
    ref = ReferenceClosure(u.builder, instantiate_relations(u))
    assert partition(session, u) == partition(ref, u)
