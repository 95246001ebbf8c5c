"""Free terms: hash-consing, typing rules, boundaries, enumeration."""

import pytest

from omegacube import (
    CompositionMismatch,
    KappaError,
    TermBuilder,
    TermError,
    TermParseError,
    TruncationConfig,
    brute_force_level_counts,
    check_cubical_on_terms,
    enumerate_free_magma,
    parse_term,
    two_generator_quiver,
)
from omegacube.term import COMP, DUAL, GEN, KAPPA, REFL


@pytest.fixture()
def builder(quiver):
    return TermBuilder(quiver)


def gens(b):
    p = b.presentation
    return {c.name: b.gen(p.cell(c.dim, c.dirs, c.name)) for lv in p.levels() for c in p.cells[lv]}


def test_hash_consing_returns_identical_nodes(builder):
    g = gens(builder)
    t1 = builder.comp(1, g["g"], g["f"])
    t2 = builder.comp(1, g["g"], g["f"])
    assert t1 is t2
    assert builder.refl(1, g["a"]) is builder.refl(1, g["a"])
    assert builder.dual(1, t1) is builder.dual(1, t2)


def test_terms_carry_no_instance_dict(builder):
    # slots keep the per-node footprint of the arena fixed
    t = builder.comp(1, gens(builder)["g"], gens(builder)["f"])
    assert not hasattr(t, "__dict__")


def test_text_is_formatted_on_first_read(builder):
    g = gens(builder)
    sq = builder.refl(2, g["f"])
    nodes = {
        "gen(f)": g["f"],
        "id[2](gen(f))": sq,
        "dual[1](gen(f))": builder.dual(1, g["f"]),
        "comp[1](gen(g),gen(f))": builder.comp(1, g["g"], g["f"]),
        "comp[2](id[2](gen(f)),id[2](gen(f)))": builder.comp(2, sq, sq),
    }
    assert all(t._text is None for t in builder.terms)
    for text, t in nodes.items():
        assert t.text == text
        # the string is kept, so a second read formats nothing
        assert t._text is t.text
    assert repr(sq) == "<id[2](gen(f))>"


def test_contraction_cells_print_their_operands(contraction):
    cells = [t for t in contraction.universe.all_terms() if t.kind == KAPPA]
    assert len(cells) == 36
    for k in cells:
        assert k.text == f"kappa[{k.d}]({k.left.text},{k.right.text})"


@pytest.mark.parametrize("which", ["universe3", "contraction"])
def test_text_parse_roundtrip_on_larger_universes(which, request):
    universe = request.getfixturevalue(which)
    if which == "contraction":
        universe = universe.universe
    b = universe.builder
    kinds = set()
    for t in universe.all_terms():
        assert parse_term(t.text, b) is t
        kinds.add(t.kind)
    operations = {REFL, DUAL, COMP, KAPPA} if which == "contraction" else {REFL, DUAL, COMP}
    assert kinds == {GEN} | operations


def test_operation_keys_separate_directions_past_any_bit_field():
    # a 5-bit direction field would fold direction 33 onto direction 1
    wide = two_generator_quiver(TruncationConfig(max_dim=2, dir_universe=40, term_depth=1))
    b = TermBuilder(wide)
    g = gens(b)
    # id[1](id[33](a)) composes with itself in both of its directions
    sq = b.refl(1, b.refl(33, g["a"]))
    built = {}
    for d in (1, 33):
        built["id", d] = b.refl(d, g["a"])
        built["dual", d] = b.dual(d, sq)
        built["comp", d] = b.comp(d, sq, sq)
    assert len({t.nid for t in built.values()}) == len(built)
    for (kind, d), t in built.items():
        assert (t.kind, t.d) == (kind, d)
    assert b.refl(33, g["a"]) is built["id", 33]
    assert b.dual(33, sq) is built["dual", 33]
    assert b.comp(33, sq, sq) is built["comp", 33]


def test_levels_of_each_constructor(builder):
    g = gens(builder)
    assert g["a"].level == (0, ())
    assert g["f"].level == (1, (1,))
    assert builder.refl(2, g["f"]).level == (2, (1, 2))
    assert builder.dual(1, g["f"]).level == (1, (1,))
    assert builder.comp(1, g["g"], g["f"]).level == (1, (1,))


def test_boundaries_of_derived_terms(builder):
    g = gens(builder)
    gf = builder.comp(1, g["g"], g["f"])
    assert builder.boundary(gf, 1, "s") is g["a"]
    assert builder.boundary(gf, 1, "t") is g["c"]
    df = builder.dual(1, g["f"])
    assert builder.boundary(df, 1, "s") is g["b"]
    assert builder.boundary(df, 1, "t") is g["a"]
    r = builder.refl(2, g["f"])
    # the new direction degenerates, the old one passes through
    assert builder.boundary(r, 2, "s") is g["f"]
    assert builder.boundary(r, 2, "t") is g["f"]
    assert builder.boundary(r, 1, "s") is builder.refl(2, g["a"])


def test_transverse_boundary_of_a_square_composite(builder):
    g = gens(builder)
    rf = builder.refl(2, g["f"])
    rg = builder.refl(2, g["g"])
    sq = builder.comp(1, rg, rf)
    assert builder.boundary(sq, 1, "s") is builder.refl(2, g["a"])
    assert builder.boundary(sq, 2, "s").text == "comp[1](gen(g),gen(f))"


def test_typing_violations_raise(builder):
    g = gens(builder)
    with pytest.raises(CompositionMismatch):
        builder.comp(1, g["f"], g["g"])  # f after g needs t(g) = s(f)
    with pytest.raises(TermError):
        builder.comp(2, g["f"], g["f"])  # no direction 2 on a 1/1 cell
    with pytest.raises(TermError):
        builder.refl(1, g["f"])  # already extends along 1
    with pytest.raises(TermError):
        builder.refl(3, g["a"])  # direction outside the universe
    with pytest.raises(TermError):
        builder.refl(1, builder.refl(2, g["f"]))  # would exceed max_dim
    with pytest.raises(TermError):
        builder.dual(2, g["f"])
    with pytest.raises(KappaError):
        builder.kappa(1, g["a"], g["b"])  # the pair carries no certificate


def test_text_parse_roundtrip_at_depth_two(quiver):
    u = enumerate_free_magma(quiver, 2)
    b = u.builder
    for t in u.all_terms():
        assert parse_term(t.text, b) is t


@pytest.mark.parametrize(
    "bad",
    [
        "gen(zzz)",
        "comp[1](gen(f))",
        "id[](gen(a))",
        "dual[1](gen(f)) trailing",
        "frob(gen(a))",
        "comp[1](gen(f),gen(g))",  # parses but fails the typing rule
    ],
)
def test_parse_rejects_malformed_text(builder, bad):
    with pytest.raises((TermParseError, CompositionMismatch)):
        parse_term(bad, builder)


def test_depth_one_census_is_exact(quiver):
    u = enumerate_free_magma(quiver, 1)
    assert u.counts() == {"0/": 3, "1/1": 8, "1/2": 3, "2/1,2": 2}
    assert u.size == 16
    assert u.truncated


def test_census_matches_independent_enumerator(quiver):
    # the reference first computes transverse faces at depth 3
    for depth in range(1, 6):
        live = enumerate_free_magma(quiver, depth).counts()
        assert live == brute_force_level_counts(quiver, depth)


def test_enumeration_is_monotone_and_boundary_closed(quiver):
    u1 = enumerate_free_magma(quiver, 1)
    u2 = enumerate_free_magma(quiver, 2)
    texts1 = {t.text for t in u1.all_terms()}
    texts2 = {t.text for t in u2.all_terms()}
    assert texts1 <= texts2
    b = u2.builder
    # terms hash by identity, so this holds terms of u2's builder only
    members = set(u2.all_terms())
    for t in members:
        for d in t.dirs:
            for side in ("s", "t"):
                assert b.boundary(t, d, side) in members


def test_enumeration_rejects_a_negative_depth(quiver):
    with pytest.raises(ValueError, match="depth must be >= 0"):
        enumerate_free_magma(quiver, -1)


def test_constructors_reject_terms_of_other_builders(quiver):
    b1 = TermBuilder(quiver)
    f1 = b1.gen(quiver.cell(1, (1,), "f"))
    df1 = b1.dual(1, f1)
    # fill the slots that g2's nid would land on
    b1.refl(2, f1)
    b1.boundary(f1, 1, "s")
    b1.boundary(f1, 1, "t")
    b2 = TermBuilder(quiver)
    g2 = b2.gen(quiver.cell(1, (1,), "g"))
    # the two arenas number their nodes independently, so nids collide
    assert g2.nid == f1.nid
    before = len(b1)
    for build in (
        lambda: b1.refl(2, g2),
        lambda: b1.dual(1, g2),
        lambda: b1.comp(1, g2, f1),
        lambda: b1.comp(1, f1, g2),
        lambda: b1.kappa(2, f1, g2),
        lambda: b1.boundary(g2, 1, "s"),
        lambda: b1.boundary(g2, 1, "t"),
        lambda: b1.admit_kappa_pair(f1, g2),
    ):
        with pytest.raises(TermError, match="another builder"):
            build()
    assert len(b1) == before
    assert b1.dual(1, f1) is df1
    assert df1.text == "dual[1](gen(f))"


def test_boundary_rejects_bad_arguments(builder):
    g = gens(builder)
    f = g["f"]
    # with f's faces cached, a bad direction must not read a neighbour's slot
    builder.boundary(f, 1, "s")
    builder.boundary(f, 1, "t")
    before = len(builder)
    top = builder.config.dir_universe + 1
    for t, d, side, text in (
        (f, 1, "x", "side must be"),
        (f, 0, "s", "no direction 0"),
        (f, top, "t", f"no direction {top}"),
        (f, 2, "s", "no direction 2"),
        (g["a"], 1, "s", "no direction 1"),
    ):
        with pytest.raises(TermError, match=text):
            builder.boundary(t, d, side)
    assert len(builder) == before


def test_size_cap_and_stage_dim_restrict_the_universe(quiver):
    capped = enumerate_free_magma(quiver, 3, size_cap=3)
    assert all(t.size <= 3 for t in capped.all_terms())
    low = enumerate_free_magma(quiver, 2, max_stage_dim=1)
    assert all(lv[0] <= 1 for lv in low.levels)


def test_empty_presentation_is_not_truncated():
    cfg = TruncationConfig(max_dim=1, dir_universe=1, term_depth=2)
    from omegacube import CubicalSetPresentation

    empty = CubicalSetPresentation(cfg, {}, {})
    u = enumerate_free_magma(empty, 2)
    assert u.size == 0
    assert not u.truncated


def test_cubical_axioms_hold_on_enumerated_terms(universe3):
    report = check_cubical_on_terms(universe3)
    assert report.ok
    assert report.checked == 244
