"""The headline guarantees, one test and one printed verdict per criterion."""

import json
import random

import pytest

from omegacube import CongruenceSession, acceptance
from omegacube.cli import run

SEED = acceptance.DEFAULT_SEED


@pytest.fixture(scope="module")
def report():
    return acceptance.run_all(SEED, include_timing=True)


@pytest.fixture(scope="module")
def results(report):
    return {c["criterion"]: c for c in report["criteria"]}


def verdict(payload):
    state = "PASS" if payload["ok"] else "FAIL"
    print(f"acceptance [{payload['criterion']}]: {state}")
    assert payload["ok"], payload


def test_product_models_certify_against_all_validators(results):
    payload = results["product-models"]
    runs = payload["details"]
    assert runs["two-factor"]["cells"] == 72
    assert runs["three-factor"]["cells"] == 216
    assert all(r["violations"] == 0 for r in runs.values())
    assert payload["timing_s"] < 30
    verdict(payload)


def test_free_magma_enumeration_is_sound_and_exactly_counted(results):
    payload = results["free-magma-soundness"]
    details = payload["details"]
    assert details["identity_violations"] == 0
    assert details["depth3_counts"] == details["reference_counts"]
    assert details["depth3_counts"] == {"0/": 3, "1/1": 66, "1/2": 12, "2/1,2": 61}
    verdict(payload)


def test_every_relation_instance_is_provable_and_audited(results):
    payload = results["relation-provability"]
    details = payload["details"]
    assert details["instances"] == 51196
    assert details["proved_fraction"] == 1.0
    assert details["universe_size"] <= details["universe_cap"]
    assert details["closure_audit_ok"]
    assert details["assignments"] == 100
    assert details["evaluation_violations"] == []
    # seeded over classes; the syntactic instances are built and checked
    # by congruence alone
    assert details["session"] == {
        "nodes": 93825, "seeded": 2125, "merges": 93570, "processed": 93570, "completed": True
    }
    verdict(payload)


def test_the_instance_check_reports_what_the_class_closure_missed(monkeypatch):
    # a class closure that never seeds star-antihomo leaves some of those
    # syntactic instances unproved, and no others
    real = CongruenceSession._seed_new_classes

    def dropping(session, matches):
        return real(session, [m for m in matches if m[0] != "star-antihomo"])

    monkeypatch.setattr(CongruenceSession, "_seed_new_classes", dropping)
    payload = acceptance.criterion_relation_provability(SEED)
    details = payload["details"]
    assert not payload["ok"]
    # 1,233 of the 51,196 instances stay unproved
    assert details["proved_fraction"] == (51196 - 1233) / 51196
    assert all(r.startswith("<star-antihomo: ") for r in details["unproved"])


@pytest.fixture()
def broken_targets(monkeypatch):
    # one wrong composite in the first product target: comp[2] of a 1-cell
    # of direction 2 is met only by three-operation terms at the top of the
    # depth-3 universe, so no deeper composite leaves it undefined
    real = acceptance._product_targets

    def planted():
        targets = real()
        targets[0].comp[(1, (2,), 2)][("a|p11", "a|p11")] = "a|p12"
        return targets

    monkeypatch.setattr(acceptance, "_product_targets", planted)
    monkeypatch.setattr(acceptance, "AUDIT_ASSIGNMENTS", 3)
    monkeypatch.setattr(acceptance, "FACTORIZATION_ASSIGNMENTS", 3)


def test_the_evaluation_audit_reports_a_broken_target(broken_targets):
    payload = acceptance.criterion_relation_provability(SEED)
    details = payload["details"]
    assert not payload["ok"]
    # the closure itself is untouched: every instance is still proved
    assert details["proved_fraction"] == 1.0 and details["closure_audit_ok"]
    assert details["evaluation_violations"][0] == {
        "assignment": 2,
        "left": "id[2](gen(a))",
        "right": "comp[2](id[2](gen(a)),id[2](gen(a)))",
    }


def test_universal_factorization_reports_a_broken_target(broken_targets):
    payload = acceptance.criterion_universal_factorization(SEED)
    failures = payload["details"]["failures"]
    assert not payload["ok"]
    assert [f["assignment"] for f in failures] == [2]
    assert {v["tag"] for v in failures[0]["violations"]} == {"hom-boundary"}


@pytest.fixture()
def undefined_composite(monkeypatch):
    # one wrong composite in the first product target: comp[1] of
    # (ia|o1, v|o1) is set to ia|o1, so a composite deeper terms meet,
    # (ia|o1, u|o1), has no entry and their images are undefined
    real = acceptance._product_targets

    def planted():
        targets = real()
        targets[0].comp[(1, (1,), 1)][("ia|o1", "v|o1")] = "ia|o1"
        return targets

    monkeypatch.setattr(acceptance, "_product_targets", planted)
    monkeypatch.setattr(acceptance, "AUDIT_ASSIGNMENTS", 3)
    monkeypatch.setattr(acceptance, "FACTORIZATION_ASSIGNMENTS", 3)


def test_the_evaluation_audit_reports_an_undefined_composite(undefined_composite):
    payload = acceptance.criterion_relation_provability(SEED)
    assert not payload["ok"]
    assert {
        "assignment": 2,
        "tag": "eval-undefined",
        "class": "comp[1](gen(g),gen(f))",
        "error": "no composite of (ia|o1, u|o1) in direction 1",
    } in payload["details"]["evaluation_violations"]


def test_universal_factorization_reports_an_undefined_composite(undefined_composite):
    payload = acceptance.criterion_universal_factorization(SEED)
    assert not payload["ok"]
    assert [f["assignment"] for f in payload["details"]["failures"]] == [2]
    # the criterion shows five violations; the full report of the failing
    # assignment names the undefined images under their own tag
    p = acceptance.two_generator_quiver(acceptance.SEED_CONFIG)
    universe = acceptance.enumerate_free_magma(p, depth=3)
    rng = random.Random(SEED)
    targets = acceptance._product_targets()
    assignments = [
        acceptance.random_assignment(p, targets[i % 2], rng, name=f"factor-{i}") for i in range(3)
    ]
    report = acceptance.check_universal_factorization(assignments[2], universe)
    tags = {v.tag for v in report.violations}
    assert tags == {"hom-boundary", "eval-undefined"}


def test_check_all_fails_an_undefined_composite_instead_of_aborting(
    undefined_composite, monkeypatch, tmp_path
):
    monkeypatch.setattr(
        acceptance,
        "CRITERIA",
        [acceptance.criterion_relation_provability, acceptance.criterion_universal_factorization],
    )
    out = tmp_path / "check-all.json"
    assert run(["check-all", "--seed", str(SEED), "--out", str(out)]) == 1
    criteria = json.loads(out.read_text())["criteria"]
    assert [c["ok"] for c in criteria] == [False, False]


def test_unit_naturality_reports_a_square_that_does_not_commute(monkeypatch):
    # the target's unit swaps two parallel generators: still a valid map,
    # so only the naturality square can catch it
    real = acceptance.unit_eta

    def swapped(cd):
        eta = real(cd)
        if cd.presentation.name == "rich-loop-target":
            m = eta.maps[(1, (1,))]
            m["Auv"], m["Buv"] = m["Buv"], m["Auv"]
        return eta

    monkeypatch.setattr(acceptance, "unit_eta", swapped)
    monkeypatch.setattr(acceptance, "CONTRACTION_DEPTH", 1)
    monkeypatch.setattr(acceptance, "NATURALITY_MORPHISMS", 1)
    payload = acceptance.criterion_unit_naturality(SEED)
    details = payload["details"]
    assert not payload["ok"]
    assert details["unit_maps_valid"]
    assert details["failures"] == [{"morphism": "nat-0", "square_ok": False, "violations": []}]


def test_dim_one_closure_matches_the_word_oracle(results):
    payload = results["oracle-equivalence"]
    sweep = payload["details"]["sweep"]
    assert sweep["pairs"] == 7753
    assert sweep["equal_pairs"] == 537
    assert sweep["unknown_pairs"] == 0
    assert sweep["contradictions"] == []
    assert sweep["incomplete"] == []
    verdict(payload)


def test_contraction_invariants_hold_exhaustively(results):
    payload = results["contraction-invariants"]
    details = payload["details"]
    assert details["build"]["kappa_cells"] == 36
    assert details["invariants_checked"] == 252
    assert details["violations"] == []
    assert details["unit_ok"]
    verdict(payload)


def test_evaluation_factors_uniquely_through_the_free_model(results):
    payload = results["universal-factorization"]
    details = payload["details"]
    assert details["assignments"] == 20
    assert details["failures"] == []
    verdict(payload)


def test_unit_is_natural_for_random_morphisms(results):
    payload = results["unit-naturality"]
    details = payload["details"]
    assert details["morphisms_checked"] >= 10
    assert details["unit_maps_valid"]
    assert details["failures"] == []
    verdict(payload)


def test_full_reports_are_byte_identical_across_runs(report, tmp_path):
    # the module's own run, without its timings and serialized as the
    # command line writes reports, against a second, independent run
    criteria = [{k: v for k, v in c.items() if k != "timing_s"} for c in report["criteria"]]
    expected = json.dumps({**report, "criteria": criteria}, indent=2, sort_keys=True) + "\n"
    out = tmp_path / "check-all.json"
    assert run(["check-all", "--seed", str(SEED), "--out", str(out)]) == 0
    identical = out.read_bytes() == expected.encode("utf-8")
    print(f"acceptance [deterministic-reports]: {'PASS' if identical else 'FAIL'}")
    assert identical
