"""The command line: subcommands, exit statuses, JSON reports."""

import json

import pytest

from omegacube import (
    CongruenceSession,
    TruncationConfig,
    as_strict_table,
    cyclic_group_category,
    pair_groupoid,
    rich_loop_target,
    truncated_free_involutive_category,
    two_generator_quiver,
    walking_isomorphism,
)
from omegacube.cli import run


@pytest.fixture()
def quiver_file(tmp_path):
    cfg = TruncationConfig(max_dim=2, dir_universe=2, term_depth=3)
    path = tmp_path / "quiver.json"
    two_generator_quiver(cfg).to_file(path)
    return str(path)


@pytest.fixture()
def iso_file(tmp_path):
    path = tmp_path / "iso.json"
    walking_isomorphism().to_file(path)
    return str(path)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_validate_presentation(quiver_file, tmp_path):
    out = tmp_path / "report.json"
    assert run(["validate", quiver_file, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["ok"] and report["kind"] == "presentation"


def test_validate_strict_table(tmp_path):
    path = tmp_path / "table.json"
    as_strict_table(pair_groupoid(2)).to_file(path)
    out = tmp_path / "report.json"
    assert run(["validate", str(path), "--out", str(out)]) == 0
    report = read_report(out)
    assert report["ok"] and report["kind"] == "strict-table"


def test_validate_flags_a_corrupt_table(tmp_path, capsys):
    table = as_strict_table(pair_groupoid(2))
    data = table.to_dict()
    data["dual"]["1/1/1"]["p12"] = "p12"  # not an inverse
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert run(["validate", str(path)]) == 1
    assert "violation" in capsys.readouterr().out


def test_validate_missing_file_is_a_usage_error(tmp_path, capsys):
    assert run(["validate", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_malformed_json_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert run(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_enumerate_reports_exact_counts(quiver_file, tmp_path):
    out = tmp_path / "terms.json"
    assert run(["enumerate", quiver_file, "--depth", "1", "--out", str(out)]) == 0
    report = read_report(out)
    assert report["counts"] == {"0/": 3, "1/1": 8, "1/2": 3, "2/1,2": 2}
    assert "id[1](gen(a))" in report["terms"]["1/1"]


def test_decide_equal_pair(quiver_file, capsys):
    rc = run(
        [
            "decide",
            quiver_file,
            "--t1",
            "comp[1](gen(f),id[1](gen(a)))",
            "--t2",
            "gen(f)",
        ]
    )
    assert rc == 0
    assert "equal" in capsys.readouterr().out


def test_decide_separated_pair(quiver_file, capsys):
    rc = run(["decide", quiver_file, "--t1", "gen(f)", "--t2", "gen(g)"])
    assert rc == 0
    assert "not-equal" in capsys.readouterr().out


def test_decide_unknown_exits_nonzero(quiver_file):
    # distinct square classes, but the CLI wires no dim-2 separator yet
    rc = run(["decide", quiver_file, "--t1", "id[2](gen(f))", "--t2", "id[2](gen(g))"])
    assert rc == 1


@pytest.fixture()
def rich_file(tmp_path):
    path = tmp_path / "rich.json"
    rich_loop_target().to_file(path)
    return str(path)


def test_decide_without_a_word_model_is_unknown(rich_file, tmp_path):
    # the rich target's words up to length 6 pass MAX_WORD_ARROWS
    out = tmp_path / "decide.json"
    argv = ["decide", rich_file, "--t1", "gen(Auv)", "--t2", "gen(Buv)", "--depth", "1"]
    assert run(argv + ["--out", str(out)]) == 1
    report = read_report(out)
    assert report["verdict"] == "unknown"
    assert report["witness"]["cause"] == "no-separator"


def test_oracle_without_a_word_model_is_a_usage_error(rich_file, capsys, monkeypatch):
    # the word model is built first, so the closure never runs
    def spy(*args, **kwargs):
        raise AssertionError("saturate_over_classes ran before the word model failed")

    monkeypatch.setattr(CongruenceSession, "saturate_over_classes", spy)
    for depth in ("0", "1"):
        assert run(["oracle", rich_file, "--depth", depth]) == 2
        assert "words up to length 6 exceed 2000 arrows" in capsys.readouterr().err


def word_category_file(tmp_path, plant=None):
    c = truncated_free_involutive_category(two_generator_quiver(), max_len=3)
    if plant:
        plant(c)
    path = tmp_path / "words.json"
    c.to_file(path)
    return str(path)


def test_decide_accepts_a_valid_separator(quiver_file, tmp_path, capsys):
    sep = word_category_file(tmp_path)
    rc = run(
        ["decide", quiver_file, "--t1", "gen(f)", "--t2", "dual[1](gen(f))",
         "--depth", "1", "--separator", sep]
    )
    assert rc == 0
    assert "not-equal" in capsys.readouterr().out


def break_right_unit_of_f(c):
    other = next(x for x, ends in sorted(c.arrows.items()) if ends == c.arrows["f"] and x != "f")
    c.compose[("f", c.identity["a"])] = other


def test_decide_rejects_an_invalid_separator(quiver_file, tmp_path, capsys):
    sep = word_category_file(tmp_path, break_right_unit_of_f)
    rc = run(
        ["decide", quiver_file, "--t1", "gen(f)", "--t2", "dual[1](gen(f))",
         "--depth", "1", "--separator", sep]
    )
    assert rc == 2
    assert "not a valid involutive category" in capsys.readouterr().err


def test_decide_unknown_generator_is_a_usage_error(quiver_file, capsys):
    rc = run(["decide", quiver_file, "--t1", "gen(zzz)", "--t2", "gen(f)"])
    assert rc == 2
    assert "zzz" in capsys.readouterr().err


def test_product_writes_a_valid_table(iso_file, tmp_path):
    pg = tmp_path / "pg3.json"
    pair_groupoid(3).to_file(pg)
    out = tmp_path / "product.json"
    assert run(["product", iso_file, str(pg), "--out", str(out)]) == 0
    assert run(["validate", str(out)]) == 0
    table = read_report(out)
    assert len(table["cells"]["2/1,2"]) == 4 * 9


def star_not_reversing():
    c = walking_isomorphism()
    c.star["u"] = "u"
    return c


def compose_not_associative():
    c = cyclic_group_category(3)
    c.compose[("g1", "g1")] = "g1"
    return c


def identity_not_self_dual():
    c = cyclic_group_category(4)
    c.star.update(g0="g2", g2="g0")
    return c


@pytest.mark.parametrize(
    "bad_category", [star_not_reversing, compose_not_associative, identity_not_self_dual]
)
def test_product_rejects_an_invalid_category(tmp_path, capsys, bad_category):
    bad = tmp_path / "bad_cat.json"
    bad_category().to_file(bad)
    assert run(["product", str(bad), str(bad)]) == 2
    assert "not a valid involutive category" in capsys.readouterr().err


def test_contract_certifies_the_build(quiver_file, tmp_path):
    out = tmp_path / "contraction.json"
    assert run(["contract", quiver_file, "--depth", "2", "--out", str(out)]) == 0
    report = read_report(out)
    assert report["ok"]
    assert len(report["kappa_table"]) == 36
    assert report["invariants_checked"] == 252


def test_eval_computes_product_values(iso_file, tmp_path, quiver_file):
    pg = tmp_path / "pg3.json"
    pair_groupoid(3).to_file(pg)
    table_path = tmp_path / "product.json"
    assert run(["product", iso_file, str(pg), "--out", str(table_path)]) == 0
    assign_path = tmp_path / "assign.json"
    assign_path.write_text(
        json.dumps(
            {
                "source": read_report(quiver_file),
                "maps": {
                    "0/": {"a": "a|o1", "b": "b|o1", "c": "a|o1"},
                    "1/1": {"f": "u|o1", "g": "v|o1"},
                },
            }
        )
    )
    out = tmp_path / "value.json"
    rc = run(
        [
            "eval",
            str(table_path),
            "--assign",
            str(assign_path),
            "--term",
            "comp[1](gen(g),gen(f))",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert read_report(out)["value"] == "ia|o1"


def test_eval_rejects_a_mistyped_assignment(iso_file, tmp_path, quiver_file):
    assign_path = tmp_path / "assign.json"
    assign_path.write_text(
        json.dumps(
            {
                "source": read_report(quiver_file),
                "maps": {
                    "0/": {"a": "a", "b": "b", "c": "a"},
                    "1/1": {"f": "ia", "g": "v"},  # f cannot land on an identity
                },
            }
        )
    )
    table_path = tmp_path / "iso_table.json"
    as_strict_table(walking_isomorphism()).to_file(table_path)
    rc = run(["eval", str(table_path), "--assign", str(assign_path), "--term", "gen(f)"])
    assert rc == 2


def test_oracle_subcommand_passes(quiver_file, tmp_path):
    out = tmp_path / "oracle.json"
    assert run(["oracle", quiver_file, "--depth", "4", "--out", str(out)]) == 0
    report = read_report(out)
    assert report["ok"]
    assert report["pairs"] == 7143
    assert report["equal_pairs"] == 493
    assert report["not_equal_pairs"] == 6650
    assert report["unknown_pairs"] == 0
