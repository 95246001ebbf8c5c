"""Strict tables: validators under tampering, evaluation, factorization."""

from collections import Counter

import pytest

from omegacube import (
    EvalError,
    Evaluator,
    GeneratorAssignment,
    StrictCategoryTable,
    TermBuilder,
    TruncationConfig,
    as_strict_table,
    build_product,
    check_universal_factorization,
    cyclic_group_category,
    enumerate_free_magma,
    pair_groupoid,
    tabular_extension,
    two_generator_quiver,
    validate_cubical_axioms,
    validate_involutive,
    validate_strict,
    walking_isomorphism,
    word_separator,
)
from omegacube import strict
from omegacube.cli import _load_json, run
from omegacube.presentation import format_level
from omegacube.relations import FACE_LAWS

CFG1 = TruncationConfig(max_dim=1, dir_universe=1, term_depth=3)


def iso_table():
    return as_strict_table(walking_isomorphism())


def arrow_assignment():
    """f |-> u, g |-> v into the isomorphism table."""
    q = two_generator_quiver(CFG1)
    maps = {
        (0, ()): {"a": "a", "b": "b", "c": "a"},
        (1, (1,)): {"f": "u", "g": "v"},
    }
    return q, GeneratorAssignment(q, iso_table(), maps, name="fold")


def test_isomorphism_table_is_a_valid_model():
    c = iso_table()
    assert validate_strict(c).ok
    assert validate_involutive(c).ok


def test_dim_two_product_table_is_valid(iso_square):
    assert validate_strict(iso_square).ok
    assert validate_involutive(iso_square).ok


def test_table_json_roundtrip(tmp_path, iso_square):
    # product --out writes the table, which the CLI reads back with from_dict
    iso = tmp_path / "iso.json"
    walking_isomorphism().to_file(iso)
    path = tmp_path / "table.json"
    assert run(["product", str(iso), str(iso), "--out", str(path)]) == 0
    back = StrictCategoryTable.from_dict(_load_json(path))
    assert back.to_dict() == iso_square.to_dict()
    assert validate_strict(back).ok
    p = back.underlying
    x, y = p.cell(1, (1,), "u|a"), p.cell(1, (1,), "v|a")
    assert back.comp_of(1, x, y).name == "ib|a"


def test_missing_reflector_entry_is_reported_not_raised():
    c = iso_table()
    del c.refl[(1, (1,), 1)]["a"]
    report = validate_strict(c)
    assert {v.tag for v in report.violations} == {"refl-total"}


def test_mistyped_dual_entry_is_reported():
    c = iso_table()
    c.dual[(1, (1,), 1)]["u"] = "zz"
    report = validate_strict(c)
    assert {v.tag for v in report.violations} == {"dual-typing"}


def test_an_entry_naming_an_absent_cell_cannot_be_evaluated():
    c = iso_table()
    c.dual[(1, (1,), 1)]["u"] = "zz"
    u = c.underlying.cell(1, (1,), "u")
    with pytest.raises(EvalError, match="names 'zz', absent at level 1/1"):
        c.dual_of(u, 1)
    # validate_involutive reports the undefined sides instead of raising
    report = validate_involutive(c)
    assert report.violations
    assert all("names 'zz', absent" in v.detail for v in report.violations)


def test_noncomposable_comp_entry_is_reported():
    c = iso_table()
    c.comp[(1, (1,), 1)][("u", "u")] = "u"
    report = validate_strict(c)
    assert {v.tag for v in report.violations} == {"comp-domain"}


def test_wrong_composite_breaks_boundary_laws():
    c = iso_table()
    c.comp[(1, (1,), 1)][("u", "v")] = "ia"  # lands at the wrong corner
    report = validate_strict(c)
    assert not report.ok
    assert {v.tag for v in report.violations} <= {"comp-source", "comp-target"}


def test_wrong_square_composite_breaks_transverse_laws():
    cfg = TruncationConfig(max_dim=2, dir_universe=2, term_depth=1)
    c = build_product([walking_isomorphism(), walking_isomorphism()], cfg)
    level = (2, (1, 2), 1)
    key = sorted(c.comp[level])[0]
    good = c.comp[level][key]
    other = next(n.name for n in c.underlying.cells[(2, (1, 2))] if n.name != good)
    c.comp[level][key] = other
    report = validate_strict(c)
    assert not report.ok
    assert {v.tag for v in report.violations} <= {
        "comp-source",
        "comp-target",
        "comp-transverse",
    }


ISO_ARROWS, ISO_SQUARES = (1, (1,), 1), (2, (1, 2), 1)


@pytest.mark.parametrize(
    "plant, tags",
    [
        (lambda c: c.refl[ISO_ARROWS].pop("a|a"), {"refl-total": 1}),
        (lambda c: c.refl[ISO_ARROWS].update({"a|a": "zz"}), {"refl-typing": 1}),
        (lambda c: c.refl[ISO_ARROWS].update({"ghost": "ia|a"}), {"refl-unknown-cell": 1}),
        (lambda c: c.dual[ISO_ARROWS].pop("u|a"), {"dual-total": 1}),
        (lambda c: c.dual[ISO_ARROWS].update({"u|a": "zz"}), {"dual-typing": 1}),
        (lambda c: c.dual[ISO_ARROWS].update({"ghost": "u|a"}), {"dual-unknown-cell": 1}),
        (lambda c: c.comp[ISO_ARROWS].pop(("u|a", "v|a")), {"comp-total": 1}),
        (lambda c: c.comp[ISO_ARROWS].update({("u|a", "v|a"): "zz"}), {"comp-typing": 1}),
        (lambda c: c.comp[ISO_ARROWS].update({("u|a", "u|a"): "u|a"}), {"comp-domain": 1}),
        (
            lambda c: c.refl[ISO_ARROWS].update({"a|a": "ib|a"}),
            {"refl-degenerate": 2, "refl-transverse": 4},
        ),
        (
            lambda c: c.refl[(2, (1, 2), 2)].update({"u|a": "u|ib"}),
            {"refl-degenerate": 2, "refl-transverse": 2},
        ),
        (
            lambda c: c.dual[ISO_ARROWS].update({"u|a": "u|a"}),
            {"dual-swap": 2, "dual-transverse": 4},
        ),
        (
            lambda c: c.dual[ISO_SQUARES].update({"u|v": "v|u"}),
            {"dual-swap": 2, "dual-transverse": 2},
        ),
        (
            lambda c: c.comp[ISO_ARROWS].update({("u|a", "v|a"): "u|a"}),
            {"comp-source": 1, "comp-transverse": 4},
        ),
        (
            lambda c: c.comp[ISO_ARROWS].update({("u|a", "v|a"): "v|a"}),
            {"comp-target": 1, "comp-transverse": 4},
        ),
        (
            lambda c: c.comp[ISO_SQUARES].update({("u|ia", "v|ia"): "ib|ib"}),
            {"comp-source": 1, "comp-target": 1, "comp-transverse": 2},
        ),
    ],
    ids=[
        "refl-total",
        "refl-typing",
        "refl-unknown-cell",
        "dual-total",
        "dual-typing",
        "dual-unknown-cell",
        "comp-total",
        "comp-typing",
        "comp-domain",
        "refl-degenerate",
        "refl-transverse",
        "dual-swap",
        "dual-transverse",
        "comp-source",
        "comp-target",
        "comp-transverse",
    ],
)
def test_planted_structural_faults_carry_their_tags(request, plant, tags):
    cfg = TruncationConfig(max_dim=2, dir_universe=2, term_depth=1)
    c = build_product([walking_isomorphism(), walking_isomorphism()], cfg)
    plant(c)
    report = validate_strict(c)
    assert request.node.callspec.id in tags
    assert Counter(v.tag for v in report.violations) == tags
    # table faults stop before the face laws, face-law faults before the schemes
    assert report.checked == (328 if len(tags) == 1 else 888)


def test_face_laws_are_read_by_the_builder_and_the_validator(monkeypatch, quiver, iso_square):
    real = FACE_LAWS["dual"]

    def unswapped(A, k, d, side, x):
        # a dual that keeps the faces of x in its own direction
        return A.boundary(x, d, side) if d == k else real(A, k, d, side, x)

    monkeypatch.setitem(FACE_LAWS, "dual", unswapped)
    b = TermBuilder(quiver)
    f = b.gen(quiver.cell(1, (1,), "f"))
    assert b.boundary(b.dual(1, f), 1, "s") is b.boundary(f, 1, "s")
    report = validate_strict(iso_square)
    # every dual with distinct faces in its direction now breaks the law
    assert Counter(v.tag for v in report.violations) == {"dual-swap": 48}


def test_a_table_edited_between_calls_is_checked_as_edited():
    c = iso_table()
    arrows = (1, (1,), 1)
    assert validate_strict(c).ok and validate_involutive(c).ok
    good = c.comp[arrows][("u", "v")]
    c.comp[arrows][("u", "v")] = "ia"
    report = validate_strict(c)
    assert not report.ok
    assert {v.tag for v in report.violations} <= {"comp-source", "comp-target"}
    c.comp[arrows][("u", "v")] = good
    assert validate_strict(c).ok
    c.dual[arrows].update({"u": "u", "v": "v"})
    assert "star-antihomo" in {v.tag for v in validate_involutive(c).violations}
    c.dual[arrows].update({"u": "v", "v": "u"})
    assert validate_involutive(c).ok


def test_self_inverse_dual_breaks_antihomomorphism():
    c = iso_table()
    c.dual[(1, (1,), 1)]["u"] = "u"
    c.dual[(1, (1,), 1)]["v"] = "v"
    report = validate_involutive(c)
    assert not report.ok
    assert any(v.tag == "star-antihomo" for v in report.violations)


@pytest.mark.parametrize(
    "factors, max_dim, strict_checked, involutive_checked, cubical_checked",
    [
        ((walking_isomorphism, lambda: pair_groupoid(3)), 2, 3510, 648, 144),
        (
            (walking_isomorphism, lambda: pair_groupoid(3), lambda: cyclic_group_category(2)),
            3,
            19536,
            3762,
            1248,
        ),
        (
            (lambda: pair_groupoid(4), lambda: pair_groupoid(3), lambda: cyclic_group_category(3)),
            3,
            143952,
            24300,
            6768,
        ),
    ],
    ids=["72-cells", "216-cells", "960-cells"],
)
def test_validator_check_counts_on_product_tables(
    factors, max_dim, strict_checked, involutive_checked, cubical_checked
):
    cfg = TruncationConfig(max_dim=max_dim, dir_universe=max_dim, term_depth=1)
    c = build_product([make() for make in factors], cfg)
    strict, involutive = validate_strict(c), validate_involutive(c)
    cubical = validate_cubical_axioms(c.underlying)
    assert strict.ok and involutive.ok and cubical.ok
    assert (strict.checked, involutive.checked) == (strict_checked, involutive_checked)
    assert cubical.checked == cubical_checked


def test_word_separator_of_the_dimension_one_quiver_is_a_model():
    cfg = TruncationConfig(max_dim=1, dir_universe=1, term_depth=5)
    table = word_separator(two_generator_quiver(cfg)).target
    strict, involutive = validate_strict(table), validate_involutive(table)
    assert strict.ok and involutive.ok
    assert (strict.checked, involutive.checked) == (70639, 2359)


ARROWS = (1, (1,), 1)


@pytest.mark.parametrize(
    "plant, strict_tags, involutive_tags, example",
    [
        (
            lambda c: c.comp[ARROWS].update({("g1", "g1"): "g1"}),
            {"assoc": 4},
            {"star-antihomo": 2},
            "assoc on cells 'g1', 'g1', 'g2', direction(s) 1: 'g1' vs 'g0'",
        ),
        (
            lambda c: c.dual[ARROWS].update({"g0": "g1", "g1": "g2", "g2": "g0"}),
            {},
            {"involutive": 3, "id-hermitian": 1, "star-antihomo": 9},
            "id-hermitian on cells 'e', direction(s) 1: 'g1' vs 'g0'",
        ),
        (
            lambda c: c.refl[ARROWS].update({"e": "g1"}),
            {"unit-left": 3, "unit-right": 3},
            {"id-hermitian": 1},
            "unit-right on cells 'g0', 'e', direction(s) 1: 'g1' vs 'g0'",
        ),
    ],
    ids=["comp", "dual", "refl"],
)
def test_planted_axiom_faults_carry_their_scheme_tags(
    plant, strict_tags, involutive_tags, example
):
    c = as_strict_table(cyclic_group_category(3))
    plant(c)
    strict, involutive = validate_strict(c), validate_involutive(c)
    assert Counter(v.tag for v in strict.violations) == strict_tags
    assert Counter(v.tag for v in involutive.violations) == involutive_tags
    assert (strict.checked, involutive.checked) == (78, 13)
    # a violation names its operand cells, its directions and both values
    assert example in [v.detail for v in strict.violations + involutive.violations]


# A direction-1 dual that fixes one square instead of starring its
# first slot; validate_involutive runs no face-law pass, so the wrong
# entry reaches the schemes that act on squares.
@pytest.mark.parametrize(
    "square, tags",
    [
        (
            "u|v",
            {"star-commute": 2, "involutive": 1, "star-antihomo": 4, "star-homo-transverse": 4},
        ),
        (
            "u|ia",
            {
                "id-hermitian-transverse": 1,
                "involutive": 1,
                "star-antihomo": 4,
                "star-homo-transverse": 3,
            },
        ),
    ],
    ids=["star-commute", "id-hermitian-transverse"],
)
def test_planted_square_dual_faults_carry_their_scheme_tags(square, tags):
    cfg = TruncationConfig(max_dim=2, dir_universe=2, term_depth=1)
    c = build_product([walking_isomorphism(), walking_isomorphism()], cfg)
    c.dual[ISO_SQUARES][square] = square
    report = validate_involutive(c)
    assert Counter(v.tag for v in report.violations) == tags
    assert report.checked == 264


def test_deleted_dual_entry_yields_undefined_side_reports():
    c = iso_table()
    del c.dual[(1, (1,), 1)]["u"]
    report = validate_involutive(c)
    assert not report.ok
    assert all("undefined" in v.detail for v in report.violations)


def test_evaluation_matches_hand_computed_values():
    q, assignment = arrow_assignment()
    b = TermBuilder(q)
    f = b.gen(q.cell(1, (1,), "f"))
    g = b.gen(q.cell(1, (1,), "g"))
    a = b.gen(q.cell(0, (), "a"))
    ev = Evaluator(assignment)
    assert ev.eval(b.comp(1, g, f)).name == "ia"
    assert ev.eval(b.dual(1, f)).name == "v"
    assert ev.eval(b.refl(1, a)).name == "ia"
    assert Evaluator(assignment).eval(b.comp(1, g, f)).name == "ia"


def test_evaluator_keeps_terms_of_other_builders_apart():
    q, assignment = arrow_assignment()
    first, second = TermBuilder(q), TermBuilder(q)
    f = first.gen(q.cell(1, (1,), "f"))
    g = second.gen(q.cell(1, (1,), "g"))
    assert f.nid == g.nid
    ev = Evaluator(assignment)
    assert ev.eval(f).name == "u"
    assert ev.eval(g).name == "v"


def test_contraction_cells_have_no_tabular_value(quiver):
    b = TermBuilder(quiver)
    f = b.gen(quiver.cell(1, (1,), "f"))
    a = b.gen(quiver.cell(0, (), "a"))
    padded = b.comp(1, f, b.refl(1, a))
    b.admit_kappa_pair(f, padded)
    filler = b.kappa(2, f, padded)
    _, assignment = arrow_assignment()
    with pytest.raises(EvalError):
        Evaluator(assignment).eval(filler)


def test_assignment_validate_catches_endpoint_mismatch():
    q = two_generator_quiver(CFG1)
    maps = {
        (0, ()): {"a": "a", "b": "b", "c": "a"},
        (1, (1,)): {"f": "ia", "g": "v"},  # f: a->b cannot land on ia: a->a
    }
    bad = GeneratorAssignment(q, iso_table(), maps)
    report = bad.validate()
    assert any(v.tag == "face-compat" for v in report.violations)


def test_assignment_json_roundtrip():
    q, assignment = arrow_assignment()
    data = {"maps": {format_level(lv): t for lv, t in assignment.maps.items()}}
    back = GeneratorAssignment.from_dict(data, q, assignment.target)
    assert back.maps == assignment.maps
    assert back.validate().ok


def test_both_extensions_agree_everywhere():
    q, assignment = arrow_assignment()
    universe = enumerate_free_magma(q, 3)
    second = tabular_extension(universe, assignment)
    ev = Evaluator(assignment)
    for t in universe.all_terms():
        assert second[t.nid] == ev.eval(t)


def test_factorization_certificate_on_a_clean_target():
    q, assignment = arrow_assignment()
    universe = enumerate_free_magma(q, 3)
    report = check_universal_factorization(assignment, universe)
    assert report.ok
    assert report.checked > universe.size


def test_factorization_detects_a_broken_target():
    q, assignment = arrow_assignment()
    assignment.target.comp[(1, (1,), 1)][("v", "u")] = "ib"
    universe = enumerate_free_magma(q, 2)
    report = check_universal_factorization(assignment, universe)
    assert not report.ok
    assert {v.tag for v in report.violations} == {"hom-boundary"}


def test_factorization_detects_a_second_extension_that_disagrees(monkeypatch):
    q, assignment = arrow_assignment()
    universe = enumerate_free_magma(q, 2)
    real = strict.tabular_extension
    gen_f = next(t for t in universe.all_terms() if t.text == "gen(f)")

    def one_image_off(u, a):
        images = real(u, a)
        images[gen_f.nid] = a.target.underlying.cell(1, (1,), "v")
        return images

    monkeypatch.setattr(strict, "tabular_extension", one_image_off)
    report = check_universal_factorization(assignment, universe)
    assert Counter(v.tag for v in report.violations) == {"extension-unique": 1}
    assert report.violations[0].detail == "recursive and tabular extensions disagree on gen(f)"
