"""Presentations: level bookkeeping, face access, validators, morphisms."""

import re
from collections import Counter

import pytest

from omegacube import (
    CellRef,
    CubicalSetPresentation,
    PresentationError,
    SetMorphism,
    TruncationConfig,
    rich_loop_target,
    two_generator_quiver,
    validate_cubical_axioms,
    validate_morphism,
    validate_quiver,
)
from omegacube.cli import _load_json
from omegacube.presentation import format_level, make_dirs, parse_level


def test_make_dirs_sorts_and_rejects():
    assert make_dirs([2, 1]) == (1, 2)
    assert make_dirs(()) == ()
    with pytest.raises(PresentationError):
        make_dirs([1, 1])
    with pytest.raises(PresentationError):
        make_dirs([0, 1])


def test_config_rejects_incoherent_caps():
    with pytest.raises(PresentationError):
        TruncationConfig(max_dim=-1)
    # a dim-3 cell needs three distinct directions
    with pytest.raises(PresentationError):
        TruncationConfig(max_dim=3, dir_universe=2)
    cfg = TruncationConfig(max_dim=2, dir_universe=2, term_depth=3)
    assert TruncationConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "level,text",
    [((0, ()), "0/"), ((1, (2,)), "1/2"), ((2, (1, 2)), "2/1,2")],
)
def test_level_key_roundtrip(level, text):
    assert format_level(level) == text
    assert parse_level(text) == level


def test_parse_level_rejects_mismatched_dimension():
    with pytest.raises(PresentationError):
        parse_level("2/1")
    with pytest.raises(PresentationError):
        parse_level("x/1")


def test_constructor_rejects_malformed_shapes():
    cfg = TruncationConfig(max_dim=1, dir_universe=1, term_depth=1)
    with pytest.raises(PresentationError):
        CubicalSetPresentation(cfg, {(1, ()): ["f"]}, {})
    with pytest.raises(PresentationError):
        CubicalSetPresentation(cfg, {(2, (1, 2)): ["s"]}, {})
    with pytest.raises(PresentationError):
        CubicalSetPresentation(cfg, {(0, ()): ["a", "a"]}, {})
    with pytest.raises(PresentationError):
        CubicalSetPresentation(cfg, {(0, ()): ["a"]}, {(1, (1,), 2, "s"): {}})
    with pytest.raises(PresentationError):
        CubicalSetPresentation(cfg, {(0, ()): ["a"]}, {(1, (1,), 1, "middle"): {}})


def test_face_access_and_errors(quiver):
    f = quiver.cell(1, (1,), "f")
    assert quiver.face(f, 1, "s").name == "a"
    assert quiver.face(f, 1, "t").name == "b"
    with pytest.raises(PresentationError):
        quiver.face(f, 2, "s")
    with pytest.raises(PresentationError):
        quiver.face(f, 1, "left")
    a = quiver.cell(0, (), "a")
    with pytest.raises(PresentationError):
        quiver.face(a, 1, "s")


def test_cell_lookup_canonicalizes_directions_on_a_miss(iso_square):
    p = iso_square.underlying
    name = p.cells[(2, (1, 2))][0].name
    ref = p.cell(2, (1, 2), name)
    assert ref.level == (2, (1, 2))
    assert p.cell(2, (2, 1), name) is ref
    assert p.cell(2, [2, 1], name) is ref
    with pytest.raises(PresentationError, match=re.escape("duplicate directions in (1, 1)")):
        p.cell(2, (1, 1), name)
    with pytest.raises(PresentationError, match=re.escape("no cell 'nope' at level 2/1,2")):
        p.cell(2, (2, 1), "nope")


def test_cell_level_is_computed_once(quiver):
    cell = quiver.cell(1, (1,), "f")
    assert cell.level is cell.level
    assert cell.level == (1, (1,))
    # level is not compared: equality and hashing ignore it
    fresh = CellRef(1, (1,), "f")
    assert fresh == cell and hash(fresh) == hash(cell)
    assert CellRef(1, (1,), "g") != cell


def test_cells_of_two_presentations_compare_by_their_fields(seed_config):
    p, q = two_generator_quiver(seed_config), two_generator_quiver(seed_config)
    f, other = p.cell(1, (1,), "f"), q.cell(1, (1,), "f")
    assert f is not other
    assert f == other and hash(f) == hash(other)
    assert hash(f) == hash((1, (1,), "f"))
    assert {f: "image"}[other] == "image"
    assert f != q.cell(1, (1,), "g")
    assert f != CellRef(1, (2,), "f") and f != CellRef(2, (1, 2), "f")
    assert f != (1, (1,), "f")


def test_face_reads_an_edited_table(seed_config):
    p = two_generator_quiver(seed_config)
    f = p.cell(1, (1,), "f")
    assert p.face(f, 1, "t").name == "b"
    p.faces[(1, (1,), 1, "t")]["f"] = "c"
    assert p.face(f, 1, "t").name == "c"
    p.faces[(1, (1,), 1, "t")]["f"] = "zz"
    with pytest.raises(PresentationError, match="names 'zz', absent at level 0/"):
        p.face(f, 1, "t")


def test_quiver_validator_flags_missing_and_dangling_faces():
    cfg = TruncationConfig(max_dim=1, dir_universe=1, term_depth=2)
    p = CubicalSetPresentation(
        cfg,
        cells={(0, ()): ["a"], (1, (1,)): ["f", "g"]},
        faces={
            (1, (1,), 1, "s"): {"f": "a", "g": "zz", "ghost": "a"},
            (1, (1,), 1, "t"): {"f": "a"},
        },
    )
    report = validate_quiver(p)
    assert not report.ok
    tags = sorted(v.tag for v in report.violations)
    assert tags == ["face-missing", "face-typing", "face-unknown-cell"]


def test_quiver_validator_passes_clean_inputs(quiver):
    assert validate_quiver(quiver).ok
    assert validate_quiver(rich_loop_target()).ok


def test_cubical_axioms_on_product(iso_square):
    report = validate_cubical_axioms(iso_square.underlying)
    assert report.ok
    # 16 squares, one direction pair, four side combinations
    assert report.checked == 64


def test_cubical_axioms_catch_noncommuting_faces(iso_square):
    p = iso_square.underlying
    data = p.to_dict()
    square = data["cells"]["2/1,2"][0]
    table = data["faces"]["2/1,2/1/s"]
    # misroute one face so the two orders of taking faces disagree
    old = table[square]
    candidates = [n for n in data["cells"]["1/2"] if n != old]
    swapped = next(
        n
        for n in candidates
        if data["faces"]["1/2/2/s"][n] != data["faces"]["1/2/2/s"][old]
        or data["faces"]["1/2/2/t"][n] != data["faces"]["1/2/2/t"][old]
    )
    table[square] = swapped
    broken = CubicalSetPresentation.from_dict(data)
    report = validate_cubical_axioms(broken)
    assert not report.ok
    assert all(v.tag.startswith("faces-commute-") for v in report.violations)


def test_cubical_axioms_report_a_face_naming_a_missing_cell(iso_square):
    data = iso_square.underlying.to_dict()
    square = data["cells"]["2/1,2"][0]
    data["faces"]["2/1,2/1/s"][square] = "ghost"
    report = validate_cubical_axioms(CubicalSetPresentation.from_dict(data))
    # the s-face in direction 1 is missing, so both orders that start
    # from it fail, once for each side in direction 2
    assert Counter(v.tag for v in report.violations) == {"face-access": 2}
    assert report.checked == 64


def test_presentation_json_roundtrip(tmp_path, quiver):
    path = tmp_path / "quiver.json"
    quiver.to_file(path)
    back = CubicalSetPresentation.from_dict(_load_json(path))
    assert back.to_dict() == quiver.to_dict()
    assert back.config == quiver.config
    assert [c.name for c in back.cells.get((1, (1,)), [])] == ["f", "g"]


def test_identity_and_composition_of_morphisms(quiver):
    maps = {lv: {c.name: c.name for c in refs} for lv, refs in quiver.cells.items()}
    ident = SetMorphism(quiver, quiver, maps)
    assert validate_morphism(ident).ok
    f = quiver.cell(1, (1,), "f")
    assert ident.apply(f) is f
    assert ident.apply(ident.apply(f)) is f


def test_morphism_validator_flags_face_incompatibility(quiver):
    maps = {
        (0, ()): {"a": "a", "b": "b", "c": "c"},
        (1, (1,)): {"f": "f", "g": "f"},  # g: b->c cannot land on f: a->b
    }
    m = SetMorphism(quiver, quiver, maps)
    report = validate_morphism(m)
    assert not report.ok
    assert {v.tag for v in report.violations} == {"face-compat"}


def test_morphism_validator_flags_missing_and_mistyped_images(quiver):
    maps = {
        (0, ()): {"a": "a", "b": "b", "c": "nowhere"},
        (1, (1,)): {"f": "f"},
    }
    report = validate_morphism(SetMorphism(quiver, quiver, maps))
    tags = sorted(v.tag for v in report.violations)
    assert tags == ["map-missing", "map-typing"]
