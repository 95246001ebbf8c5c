"""Finite models: factories, products, word normal forms, the oracle."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from omegacube import (
    CongruenceSession,
    CubicalSetPresentation,
    InvolutiveOneCategory,
    ModelError,
    RelationInstance,
    TermBuilder,
    TruncationConfig,
    as_strict_table,
    build_product,
    cyclic_group_category,
    enumerate_free_magma,
    instantiate_relations,
    normal_form_dim1,
    oracle_compare,
    pair_groupoid,
    random_assignment,
    random_set_morphism,
    rich_loop_target,
    truncated_free_involutive_category,
    two_generator_quiver,
    validate_involutive,
    validate_morphism,
    validate_strict,
    walking_isomorphism,
    word_oracle_sweep,
    word_separator,
)
from omegacube.cli import _load_json
from rewriting import rewrite_normalize, word_of_reduced

CFG1 = TruncationConfig(max_dim=1, dir_universe=1, term_depth=5)
QUIVER1 = two_generator_quiver(CFG1)
UNIVERSE1 = enumerate_free_magma(QUIVER1, 3, max_stage_dim=1)
DIM1_TERMS = UNIVERSE1.level(1, (1,))


def strict_view_reports(c):
    """The two validators on the direction-1 strict view of a category."""
    view = as_strict_table(c)
    return validate_strict(view), validate_involutive(view)


@pytest.mark.parametrize(
    "factory",
    [
        walking_isomorphism,
        lambda: pair_groupoid(3),
        lambda: cyclic_group_category(4),
        lambda: truncated_free_involutive_category(QUIVER1, max_len=3),
        lambda: truncated_free_involutive_category(QUIVER1, max_len=6),
    ],
)
def test_involutive_factories_satisfy_their_axioms(factory):
    assert all(r.ok for r in strict_view_reports(factory()))


FAULT_BASES = {
    "iso": walking_isomorphism,
    "c3": lambda: cyclic_group_category(3),
    "c4": lambda: cyclic_group_category(4),
}

# keyed by the category axiom the fault breaks, as a 1-categorical
# check would name it: (base category, planted fault, the tag the
# strict view reports it under)
CATEGORY_FAULTS = {
    "arrow-typing": ("iso", lambda c: c.arrows.update(u=("a", "c")), "face-typing"),
    "identity-missing": ("iso", lambda c: c.identity.pop("b"), "refl-total"),
    "identity-typing": ("iso", lambda c: c.identity.update(a="u"), "refl-degenerate"),
    "compose-total": ("iso", lambda c: c.compose.pop(("u", "v")), "comp-total"),
    "compose-typing": ("iso", lambda c: c.compose.update({("u", "v"): "ia"}), "comp-source"),
    "compose-domain": ("iso", lambda c: c.compose.update({("u", "u"): "u"}), "comp-domain"),
    "assoc": ("c3", lambda c: c.compose.update({("g1", "g1"): "g1"}), "assoc"),
    "unit-right": ("c3", lambda c: c.compose.update({("g1", "g0"): "g2"}), "unit-right"),
    "unit-left": ("c3", lambda c: c.compose.update({("g0", "g1"): "g2"}), "unit-left"),
    "star-total": ("iso", lambda c: c.star.pop("u"), "dual-total"),
    "star-typing": ("iso", lambda c: c.star.update(u="u"), "dual-swap"),
    "involutive": ("c3", lambda c: c.star.update(g1="g1", g2="g1"), "involutive"),
    "star-antihomo": ("c4", lambda c: c.star.update(g1="g2", g2="g1", g3="g3"), "star-antihomo"),
    "id-hermitian": ("c4", lambda c: c.star.update(g0="g2", g2="g0"), "id-hermitian"),
}


@pytest.mark.parametrize("fault", list(CATEGORY_FAULTS))
def test_the_strict_view_rejects_every_category_fault(fault):
    base, plant, tag = CATEGORY_FAULTS[fault]
    c = FAULT_BASES[base]()
    plant(c)
    assert tag in {v.tag for r in strict_view_reports(c) for v in r.violations}


def test_cyclic_composition_and_inverses():
    c = cyclic_group_category(3)
    assert c.compose[("g1", "g1")] == "g2"
    assert c.compose[("g2", "g1")] == "g0"
    assert c.star["g1"] == "g2" and c.star["g0"] == "g0"


def test_pair_groupoid_stars_are_inverses():
    pg = pair_groupoid(3)
    assert pg.star["p12"] == "p21"
    assert pg.compose[("p12", "p21")] == pg.identity["o1"]


def test_category_json_roundtrip(tmp_path):
    c = pair_groupoid(2)
    path = tmp_path / "pg2.json"
    c.to_file(path)
    back = InvolutiveOneCategory.from_dict(_load_json(path))
    assert back.to_dict() == c.to_dict()
    assert all(r.ok for r in strict_view_reports(back))


def test_product_needs_one_factor_per_direction():
    cfg = TruncationConfig(max_dim=2, dir_universe=2, term_depth=1)
    with pytest.raises(ModelError):
        build_product([walking_isomorphism()], cfg)


def test_product_counts_are_slotwise(iso_square):
    p = iso_square.underlying
    # arrows occupy exactly the slots named by the level's directions
    assert len(p.cells[(0, ())]) == 2 * 2
    assert len(p.cells[(1, (1,))]) == 4 * 2
    assert len(p.cells[(1, (2,))]) == 2 * 4
    assert len(p.cells[(2, (1, 2))]) == 4 * 4


def test_product_operations_act_per_slot(iso_square):
    p = iso_square.underlying
    comp1 = iso_square.comp_of(1, p.cell(1, (1,), "u|a"), p.cell(1, (1,), "v|a"))
    assert comp1.name == "ib|a"
    assert iso_square.dual_of(p.cell(1, (1,), "u|a"), 1).name == "v|a"
    assert iso_square.refl_of(p.cell(1, (1,), "u|b"), 2).name == "u|ib"
    comp2 = iso_square.comp_of(2, p.cell(2, (1, 2), "u|u"), p.cell(2, (1, 2), "u|ia"))
    assert comp2.name == "u|u"


def all_pairs_comp_tables(table, family):
    """The comp tables by the all-pairs loop that build_product once ran."""
    k = len(family)
    out = {}
    for (dim, dirs), refs in table.underlying.cells.items():
        tuples = [tuple(c.name.split("|")) for c in refs]
        for d in dirs:
            c = family[d - 1]
            entries = {}
            for xs in tuples:
                for ys in tuples:
                    if any(xs[j] != ys[j] for j in range(k) if j != d - 1):
                        continue
                    z = c.compose.get((xs[d - 1], ys[d - 1]))
                    if z is None:
                        continue
                    zs = tuple(z if j == d else xs[j - 1] for j in range(1, k + 1))
                    entries[("|".join(xs), "|".join(ys))] = "|".join(zs)
            out[(dim, dirs, d)] = entries
    return out


@pytest.mark.parametrize(
    "family,dims",
    [
        ([walking_isomorphism(), pair_groupoid(3)], 2),
        ([walking_isomorphism(), pair_groupoid(3), cyclic_group_category(2)], 3),
        ([pair_groupoid(4), pair_groupoid(3), cyclic_group_category(3)], 3),
    ],
)
def test_product_comp_tables_match_the_all_pairs_reference(family, dims):
    cfg = TruncationConfig(max_dim=dims, dir_universe=dims, term_depth=1)
    table = build_product(family, cfg)
    want = all_pairs_comp_tables(table, family)
    # equal including the insertion order of every table
    assert [(key, list(t.items())) for key, t in table.comp.items()] == [
        (key, list(t.items())) for key, t in want.items()
    ]


def test_strict_view_of_a_category_keeps_its_shape():
    c = as_strict_table(cyclic_group_category(2))
    p = c.underlying
    assert [x.name for x in p.cells[(1, (1,))]] == ["g0", "g1"]
    assert c.comp_of(1, p.cell(1, (1,), "g1"), p.cell(1, (1,), "g1")).name == "g0"


def sample_terms():
    b = UNIVERSE1.builder
    q = QUIVER1
    f = b.gen(q.cell(1, (1,), "f"))
    g = b.gen(q.cell(1, (1,), "g"))
    a = b.gen(q.cell(0, (), "a"))
    return b, f, g, a


def test_word_normal_forms_match_hand_reduction():
    b, f, g, a = sample_terms()
    assert str(normal_form_dim1(b.comp(1, g, f))) == "g.f"
    assert str(normal_form_dim1(b.dual(1, b.comp(1, g, f)))) == "f'.g'"
    assert str(normal_form_dim1(b.comp(1, f, b.refl(1, a)))) == "f"
    unit = normal_form_dim1(b.refl(1, a))
    assert unit.is_identity and str(unit) == "1(a)"
    assert str(normal_form_dim1(b.dual(1, b.dual(1, f)))) == "f"


def test_rewriting_agrees_with_direct_normal_forms():
    b = UNIVERSE1.builder
    rng = random.Random(0)
    for t in DIM1_TERMS:
        reduced = rewrite_normalize(b, t, rng)
        assert word_of_reduced(reduced) == normal_form_dim1(t)


@settings(max_examples=60, deadline=None)
@given(nid=st.sampled_from(range(len(DIM1_TERMS))), seed=st.integers(0, 2**16))
def test_rewriting_is_confluent_under_random_strategies(nid, seed):
    t = DIM1_TERMS[nid]
    reduced = rewrite_normalize(UNIVERSE1.builder, t, random.Random(seed))
    assert word_of_reduced(reduced) == normal_form_dim1(t)


def table_digest(c):
    """The sha256 of a category's table, written in one fixed order."""
    return hashlib.sha256(json.dumps(c.to_dict(), sort_keys=True).encode()).hexdigest()


def test_word_category_refuses_more_arrows_than_its_bound():
    target = rich_loop_target()
    c = truncated_free_involutive_category(target, max_len=2)
    assert (len(c.arrows), len(c.compose)) == (150, 11250)
    assert table_digest(c) == "50b1fddf3f83e690ba0ccbdf4f7a0f32d045d19d162ae45c43885044a0b7a528"
    with pytest.raises(ModelError, match="exceed 2000 arrows"):
        word_separator(target)


def test_truncated_word_category_is_a_finite_involutive_model():
    c = truncated_free_involutive_category(QUIVER1, max_len=3)
    assert (len(c.arrows), len(c.compose)) == (30, 306)
    assert table_digest(c) == "29c2e99f9f677ce86aa9138b407769bc8ef837dbd761765755e8b8ac6b745a33"
    strict, involutive = strict_view_reports(c)
    assert strict.ok and involutive.ok
    assert (strict.checked, involutive.checked) == (4251, 339)
    longer = truncated_free_involutive_category(QUIVER1, max_len=6)
    assert (len(longer.arrows), len(longer.compose)) == (82, 2274)
    assert table_digest(longer) == "8026abde3a2bd816e5154c691bbd1df3da2a90207bf8c34cc6d7e3e99fd3d1ce"


def test_truncation_absorbs_overflow_into_zero_arrows():
    c = truncated_free_involutive_category(QUIVER1, max_len=2)
    # f'.f after f' would have length three
    assert c.compose[("f'.f", "f'")] == "z.b.a"
    assert c.compose[("z.b.a", "e.b")] == "z.b.a"
    assert c.star["z.b.a"] == "z.a.b"
    assert c.star["f'.f"] == "f'.f"


def test_a_generator_named_like_a_dual_letter_keeps_its_own_star():
    # alone, f' is an ordinary letter: its dual is f'', and the star of
    # f' names f'' rather than an absent arrow f
    p = CubicalSetPresentation(
        CFG1,
        cells={(0, ()): ["a", "b"], (1, (1,)): ["f'"]},
        faces={(1, (1,), 1, "s"): {"f'": "a"}, (1, (1,), 1, "t"): {"f'": "b"}},
    )
    c = truncated_free_involutive_category(p, max_len=2)
    assert c.star["f'"] == "f''" and c.star["f'.f''"] == "f'.f''"
    strict, involutive = strict_view_reports(c)
    assert strict.ok and involutive.ok


def test_word_separator_separates_and_respects_equality():
    from omegacube import Evaluator

    b, f, g, a = sample_terms()
    ev = Evaluator(word_separator(QUIVER1))
    assert ev.eval(f) != ev.eval(g)
    assert ev.eval(b.comp(1, f, b.refl(1, a))) == ev.eval(f)
    assert ev.eval(b.dual(1, b.dual(1, f))) == ev.eval(f)


def test_oracle_sweep_is_clean_on_a_small_slice():
    report = oracle_compare(QUIVER1, depth=4, size_cap=5)
    assert report.ok
    assert report.unknown_pairs == 0
    assert report.pairs == report.equal_pairs + report.not_equal_pairs


def test_oracle_sweep_at_depth_five_without_caps():
    # neither the enumeration nor the closure is capped: 813 terms
    report = oracle_compare(QUIVER1, depth=5, size_cap=None)
    assert report.ok
    assert (report.universe_size, report.pairs, report.equal_pairs) == (813, 327648, 14567)
    assert report.unknown_pairs == 0
    assert report.contradictions == [] and report.incomplete == []
    assert report.session == {
        "nodes": 11033, "seeded": 5483, "merges": 10306, "processed": 10306, "completed": True
    }


def test_oracle_detects_a_dropped_relation_family():
    u = enumerate_free_magma(QUIVER1, 4, size_cap=5, max_stage_dim=1)
    relations = [r for r in instantiate_relations(u) if r.family != "star-antihomo"]
    session = CongruenceSession(u).seed(relations).saturate()
    report = word_oracle_sweep(session, word_separator(QUIVER1))
    assert not report.ok
    assert report.incomplete
    # soundness is untouched: nothing merged that the words refute
    assert not report.contradictions


def planted_sweep_inputs():
    """The depth-2 universe of the one-direction quiver, and its separator."""
    p = two_generator_quiver(TruncationConfig(max_dim=1, dir_universe=1))
    return p, enumerate_free_magma(p, 2, max_stage_dim=1), word_separator(p)


def test_oracle_reports_pairs_identified_against_their_words():
    p, u, separator = planted_sweep_inputs()
    session = CongruenceSession(u).saturate_over_classes(u.levels)
    b = u.builder
    f, g = (b.gen(c) for c in p.cells[(1, (1,))])
    session.seed([RelationInstance("manual", f, g)]).saturate()
    report = word_oracle_sweep(session, separator)
    assert not report.ok
    assert len(report.contradictions) == 34
    assert report.contradictions[0] == {
        "left": "gen(a)",
        "right": "gen(b)",
        "problem": "identified by the closure but the words differ: 1(a) vs 1(b)",
    }


def test_oracle_reports_pairs_separated_against_their_words():
    _, u, separator = planted_sweep_inputs()
    # f composed with the identity at its source no longer evaluates to f
    separator.target.comp[(1, (1,), 1)][("f", "e.a")] = "z.a.b"
    report = word_oracle_sweep(CongruenceSession(u), separator)
    assert not report.ok
    assert len(report.contradictions) == 3
    assert all(
        c["problem"] == "separated by evaluation but the words agree"
        and "comp[1](gen(f),id[1](gen(a)))" in (c["left"], c["right"])
        for c in report.contradictions
    )


@pytest.mark.parametrize("budget", [10, 100])
def test_oracle_out_of_budget_drops_no_equal_pair(budget):
    # the contraction-rich benchmark's source presentation and term bounds
    p = two_generator_quiver(TruncationConfig(max_dim=2, dir_universe=2, term_depth=2))
    bounds = {"depth": 2, "size_cap": 3, "max_side_size": 12}
    full = oracle_compare(p, **bounds)
    assert full.ok and full.session["completed"]
    report = oracle_compare(p, budget=budget, **bounds)
    assert not report.session["completed"]
    assert not report.ok
    assert report.session["processed"] == budget
    assert not report.contradictions
    # each pair the finished closure identifies is identified or listed incomplete
    assert report.equal_pairs + len(report.incomplete) == full.equal_pairs


def test_random_draws_are_seed_deterministic():
    tab = as_strict_table(pair_groupoid(3))
    a1 = random_assignment(QUIVER1, tab, random.Random(5))
    a2 = random_assignment(QUIVER1, tab, random.Random(5))
    assert a1.maps == a2.maps
    assert a1.validate().ok
    target = rich_loop_target(CFG1)
    m1 = random_set_morphism(QUIVER1, target, random.Random(5))
    m2 = random_set_morphism(QUIVER1, target, random.Random(5))
    assert m1.maps == m2.maps
    assert validate_morphism(m1).ok
