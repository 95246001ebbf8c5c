"""Strict tables: validators under tampering, evaluation, factorization."""

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
    enumerate_free_magma,
    eval_term,
    tabular_extension,
    two_generator_quiver,
    validate_involutive,
    validate_strict,
    walking_isomorphism,
)

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
    path = tmp_path / "table.json"
    iso_square.to_file(path)
    back = StrictCategoryTable.from_file(path)
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


def test_self_inverse_dual_breaks_antihomomorphism():
    c = iso_table()
    c.dual[(1, (1,), 1)]["u"] = "u"
    c.dual[(1, (1,), 1)]["v"] = "v"
    report = validate_involutive(c)
    assert not report.ok
    assert any(v.tag == "star-antihomo" for v in report.violations)


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
    assert eval_term(b.comp(1, g, f), assignment).name == "ia"


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
    b = TermBuilder(quiver, mode="contraction")
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
    data = assignment.to_dict()
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
