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


def write_table(path, table):
    """Write a strict table as JSON, the form product --out writes."""
    path.write_text(json.dumps(table.to_dict()))


def test_validate_presentation(quiver_file, tmp_path):
    out = tmp_path / "report.json"
    assert run(["validate", quiver_file, "--out", str(out)]) == 0
    report = read_report(out)
    assert report["ok"] and report["kind"] == "presentation"


def test_validate_strict_table(tmp_path):
    path = tmp_path / "table.json"
    write_table(path, as_strict_table(pair_groupoid(2)))
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


@pytest.mark.parametrize("op", ["refl", "dual", "comp"])
def test_validate_reports_an_entry_naming_an_absent_cell(op, tmp_path, capsys):
    # validate_involutive evaluates its schemes on the unchecked table, so
    # the absent cell must reach it as an undefined side, not an exception
    data = as_strict_table(pair_groupoid(2)).to_dict()
    if op == "comp":
        data["comp"]["1/1/1"][0][2] = "zz"
    else:
        table = data[op]["1/1/1"]
        table[next(iter(table))] = "zz"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    assert run(["validate", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    tags = {v["tag"] for v in read_report(out)["violations"]}
    assert f"{op}-typing" in tags


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


def _category(**changes):
    return {**pair_groupoid(2).to_dict(), **changes}


def _presentation(**changes):
    return {**two_generator_quiver().to_dict(), **changes}


def _table(**changes):
    return {**as_strict_table(pair_groupoid(2)).to_dict(), **changes}


def _one_object(**changes):
    """The terminal category, with one-character names, so that a string
    of names unpacks like a list of them."""
    data = {
        "name": "one",
        "objects": ["o"],
        "arrows": {"i": ["o", "o"]},
        "compose": [["i", "i", "i"]],
        "identity": {"o": "i"},
        "star": {"i": "i"},
    }
    return {**data, **changes}


def _short_arrow():
    return _category(arrows={**pair_groupoid(2).to_dict()["arrows"], "p12": ["o2"]})


# Each input parses as JSON but has the wrong shape somewhere: the
# subcommand, then the file it reads and the arguments after that file.
MALFORMED = {
    "category arrow of one object": ("product", _short_arrow(), []),
    "category arrows as a list": ("product", _category(arrows=[]), []),
    "separator arrow of one object": (
        "decide",
        _short_arrow(),
        ["--t1", "gen(f)", "--t2", "gen(g)", "--depth", "0"],
    ),
    "presentation cells as a list": ("validate", _presentation(cells=[]), []),
    "level names as a number": ("validate", _presentation(cells={"0/": 5}), []),
    "config as a list": ("validate", _presentation(config=[]), []),
    "max_dim as a string": (
        "validate",
        _presentation(config={**TruncationConfig().to_dict(), "max_dim": "2"}),
        [],
    ),
    "table refl as a list": ("validate", _table(refl=[]), []),
    "assignment maps as a list": (
        "eval",
        {"source": two_generator_quiver().to_dict(), "maps": []},
        ["--term", "gen(f)"],
    ),
    "face naming a list": (
        "validate",
        _presentation(faces={"1/1/1/s": {"f": [], "g": "b"}, "1/1/1/t": {"f": "b", "g": "c"}}),
        [],
    ),
    "dual naming a list": ("validate", _table(dual={"1/1/1": {"p12": []}}), []),
    "comp entry naming a list": ("validate", _table(comp={"1/1/1": [[["p11"], "p11", "p11"]]}), []),
    "comp table as a number": ("validate", _table(comp={"1/1/1": 5}), []),
    "comp table as null": ("validate", _table(comp={"1/1/1": None}), []),
    "category star naming a list": ("product", _category(star={"p12": []}), []),
    "category composite naming a list": ("product", _category(compose=[["p11", "p11", []]]), []),
    "category endpoints as a string": ("product", _one_object(arrows={"i": "oo"}), []),
    "category composite as a string": ("product", _one_object(compose=["iii"]), []),
    "category objects as a string": ("product", _one_object(objects="o"), []),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_shapes_are_usage_errors(case, quiver_file, tmp_path, capsys):
    subcommand, data, rest = MALFORMED[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    table = tmp_path / "table.json"
    write_table(table, as_strict_table(walking_isomorphism()))
    argv = {
        "product": ["product", str(path)],
        "decide": ["decide", quiver_file, "--separator", str(path)],
        "validate": ["validate", str(path)],
        "eval": ["eval", str(table), "--assign", str(path)],
    }[subcommand]
    assert run(argv + rest) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


SQUARES = ["--t1", "id[2](gen(f))", "--t2", "id[2](gen(g))"]


def test_decide_unknown_exits_nonzero(quiver_file, tmp_path):
    # distinct square classes, but the CLI wires no dim-2 separator yet
    out = tmp_path / "decide.json"
    assert run(["decide", quiver_file, *SQUARES, "--out", str(out)]) == 1
    witness = read_report(out)["witness"]
    assert witness["cause"] == "no-separator"
    # decide closes over classes; the syntactic closure of the same
    # universe seeds 51,196 instances and builds 93,825 nodes
    assert witness["session"]["seeded"] == 2125
    assert witness["session"]["nodes"] == 3770
    assert witness["session"]["completed"]


def test_decide_out_of_budget_is_unknown(quiver_file, tmp_path):
    out = tmp_path / "decide.json"
    assert run(["decide", quiver_file, *SQUARES, "--budget", "5", "--out", str(out)]) == 1
    report = read_report(out)
    assert report["config"]["budget"] == 5
    assert report["verdict"] == "unknown"
    assert report["witness"]["cause"] == "budget"
    assert report["witness"]["session"]["processed"] == 5


@pytest.mark.parametrize(
    "argv",
    [
        [sub, flag, value]
        for sub in ("enumerate", "decide", "contract", "oracle")
        for flag in ("--depth", "--budget")
        for value in ("-1", "-2")
        if (sub, flag) != ("enumerate", "--budget")
    ],
    ids=" ".join,
)
def test_negative_counts_are_usage_errors(quiver_file, capsys, argv):
    # a negative --depth once crashed enumerate and ran oracle and
    # contract over an empty universe
    sub, *rest = argv
    if sub == "decide":
        rest += SQUARES
    assert run([sub, quiver_file, *rest]) == 2
    assert "non-negative" in capsys.readouterr().err


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


def one_direction_quiver(objects, arrows):
    """A presentation file body: objects and (name, source, target) arrows."""
    return {
        "config": {"max_dim": 1, "dir_universe": 1, "term_depth": 3},
        "cells": {"0/": objects, "1/1": [n for n, _, _ in arrows]},
        "faces": {
            "1/1/1/s": {n: s for n, s, _ in arrows},
            "1/1/1/t": {n: t for n, _, t in arrows},
        },
    }


NAME_CLASHES = [
    pytest.param(
        one_direction_quiver(["a", "b"], [("f", "a", "b"), ("f'", "b", "a")]),
        ("gen(f')", "dual[1](gen(f))"),
        "clashes with the letter of a dual",
        id="f-and-f'",
    ),
    pytest.param(
        one_direction_quiver(
            ["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c"), ("g.f", "a", "c")]
        ),
        ("comp[1](gen(g),gen(f))", "gen(g.f)"),
        "are both named 'g.f'",
        id="g.f-next-to-g-and-f",
    ),
]


@pytest.mark.parametrize("quiver, pair, message", NAME_CLASHES)
def test_a_name_clashing_with_the_word_syntax_gets_no_word_model(
    quiver, pair, message, tmp_path, capsys, monkeypatch
):
    # the word model once merged the clashing names: oracle reported
    # false incomplete pairs and decide a not-separated unknown
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(quiver))
    out = tmp_path / "decide.json"
    t1, t2 = pair
    assert run(["decide", str(path), "--t1", t1, "--t2", t2, "--out", str(out)]) == 1
    report = read_report(out)
    assert report["verdict"] == "unknown"
    assert report["witness"]["cause"] == "no-separator"

    def spy(*args, **kwargs):
        raise AssertionError("saturate_over_classes ran before the word model failed")

    monkeypatch.setattr(CongruenceSession, "saturate_over_classes", spy)
    assert run(["oracle", str(path), "--depth", "3"]) == 2
    assert message in capsys.readouterr().err


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
    assert "incomplete" not in report


def test_contract_out_of_budget_is_incomplete_not_invalid(quiver_file, tmp_path, capsys):
    out = tmp_path / "contraction.json"
    argv = ["contract", quiver_file, "--depth", "2", "--budget", "100", "--out", str(out)]
    assert run(argv) == 1
    report = read_report(out)
    # stage 1 spends its budget before seeding any projection; the checks
    # that need the finished closure are left out rather than failed
    assert report["incomplete"] == {"stage": 1, "cause": "budget"}
    assert report["violations"] == []
    assert not report["ok"]
    assert len(report["kappa_table"]) == 36
    assert report["invariants_checked"] == 180
    assert "incomplete at stage 1 (budget)" in capsys.readouterr().out


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
    write_table(table_path, as_strict_table(walking_isomorphism()))
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
