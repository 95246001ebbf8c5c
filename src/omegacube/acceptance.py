"""The acceptance suite: one function per headline guarantee.

Both the test suite and the check-all command run these, so the
numbers reported by continuous checks and by the command line cannot
drift apart.  Every function returns a plain dict with an "ok" flag
and enough detail to see what was measured.  run_all times each
criterion and adds the wall-clock time under "timing_s" only when asked,
so persisted reports stay byte-identical for equal seeds.
"""

from __future__ import annotations

import random
from time import perf_counter

from .congruence import CongruenceSession, audit_congruence, instantiate_relations
from .contraction import (
    build_free_contraction,
    free_on_morphism,
    unit_eta,
    validate_contraction,
    validate_contraction_morphism,
)
from .models import (
    build_product,
    cyclic_group_category,
    oracle_compare,
    pair_groupoid,
    random_assignment,
    random_set_morphism,
    rich_loop_target,
    two_generator_quiver,
    walking_isomorphism,
)
from .presentation import TruncationConfig, dirs_with, format_level, validate_morphism
from .strict import (
    EvalError,
    Evaluator,
    check_universal_factorization,
    validate_involutive,
    validate_strict,
)
from .term import check_cubical_on_terms, enumerate_free_magma

DEFAULT_SEED = 20260825

SEED_CONFIG = TruncationConfig(max_dim=2, dir_universe=2, term_depth=3)
DIM1_CONFIG = TruncationConfig(max_dim=1, dir_universe=1, term_depth=5)

ORACLE_DEPTH = 5
ORACLE_SIZE_CAP = 6
ORACLE_SIDE_CAP = 13
PROVABILITY_DEPTH = 3
PROVABILITY_UNIVERSE_CAP = 500
AUDIT_ASSIGNMENTS = 100
FACTORIZATION_ASSIGNMENTS = 20
NATURALITY_MORPHISMS = 10
CONTRACTION_DEPTH = 2
NATURALITY_SIZE_CAP = 3
NATURALITY_SIDE_CAP = 12


def _two_factor_family():
    return [walking_isomorphism(), pair_groupoid(3)]


def _three_factor_family():
    return [walking_isomorphism(), pair_groupoid(3), cyclic_group_category(2)]


def _product_targets():
    cfg = TruncationConfig(max_dim=2, dir_universe=2, term_depth=1)
    return [
        build_product([walking_isomorphism(), pair_groupoid(3)], cfg),
        build_product([pair_groupoid(4), walking_isomorphism()], cfg),
    ]


def criterion_product_models() -> dict:
    """Products of involutive 1-categories pass every validator."""
    runs = {}
    for tag, family, max_dim in (
        ("two-factor", _two_factor_family(), 2),
        ("three-factor", _three_factor_family(), 3),
    ):
        cfg = TruncationConfig(max_dim=max_dim, dir_universe=len(family), term_depth=1)
        table = build_product(family, cfg)
        # validate_strict runs validate_quiver and validate_cubical_axioms too
        reports = [validate_strict(table), validate_involutive(table)]
        runs[tag] = {
            "factors": [c.name for c in family],
            "max_dim": max_dim,
            "cells": sum(len(v) for v in table.underlying.cells.values()),
            "checked": sum(r.checked for r in reports),
            "violations": sum(len(r.violations) for r in reports),
        }
    return {
        "criterion": "product-models",
        "ok": all(r["violations"] == 0 for r in runs.values()),
        "details": runs,
    }


def brute_force_level_counts(p, depth: int) -> dict[str, int]:
    """Reference enumeration by plain tuple recursion.

    Deliberately shares no code with the production enumerator: terms
    are nested tuples, levels and boundaries are recomputed recursively
    on every call, and candidates are generated by trying every
    operation on every pair of smaller terms.
    """
    cfg = p.config
    gen_level = {}
    for (dim, dirs), refs in p.cells.items():
        for c in refs:
            gen_level[c.name] = (dim, dirs)

    def level(t):
        kind = t[0]
        if kind == "g":
            return gen_level[t[1]]
        if kind == "r":
            d, sub = t[1], t[2]
            dim, dirs = level(sub)
            return (dim + 1, dirs_with(dirs, d))
        if kind == "d":
            return level(t[2])
        if kind == "c":
            return level(t[2])
        raise ValueError(t)

    def boundary(t, d, side):
        kind = t[0]
        if kind == "g":
            dim, dirs = gen_level[t[1]]
            return ("g", p.faces[(dim, dirs, d, side)][t[1]])
        if kind == "r":
            if d == t[1]:
                return t[2]
            return ("r", t[1], boundary(t[2], d, side))
        if kind == "d":
            if d == t[1]:
                return boundary(t[2], d, "s" if side == "t" else "t")
            return ("d", t[1], boundary(t[2], d, side))
        if kind == "c":
            if d == t[1]:
                return boundary(t[3] if side == "s" else t[2], d, side)
            return ("c", t[1], boundary(t[2], d, side), boundary(t[3], d, side))
        raise ValueError(t)

    stages = [set(("g", c.name) for refs in p.cells.values() for c in refs)]
    for w in range(1, depth + 1):
        fresh = set()
        for t in stages[w - 1]:
            dim, dirs = level(t)
            for d in range(1, cfg.dir_universe + 1):
                if d not in dirs and dim + 1 <= cfg.max_dim:
                    fresh.add(("r", d, t))
            for d in dirs:
                fresh.add(("d", d, t))
        for wx in range(w):
            wy = w - 1 - wx
            for x in stages[wx]:
                dim, dirs = level(x)
                for y in stages[wy]:
                    if level(y) != (dim, dirs):
                        continue
                    for d in dirs:
                        if boundary(x, d, "s") == boundary(y, d, "t"):
                            fresh.add(("c", d, x, y))
        seen = set().union(*stages)
        stages.append(fresh - seen)
    counts: dict[str, int] = {}
    for stage in stages:
        for t in stage:
            key = format_level(level(t))
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def criterion_free_magma_soundness() -> dict:
    """Enumerated terms satisfy the facewise commutation identities,
    and their counts per level agree with the reference enumerator."""
    p = two_generator_quiver(SEED_CONFIG)
    universe = enumerate_free_magma(p, depth=3)
    cubical = check_cubical_on_terms(universe)
    live_counts = universe.counts()
    reference_counts = brute_force_level_counts(p, 3)
    ok = cubical.ok and live_counts == reference_counts
    return {
        "criterion": "free-magma-soundness",
        "ok": ok,
        "details": {
            "universe_size": universe.size,
            "identities_checked": cubical.checked,
            "identity_violations": len(cubical.violations),
            "depth3_counts": live_counts,
            "reference_counts": reference_counts,
        },
    }


def criterion_relation_provability(seed: int = DEFAULT_SEED) -> dict:
    """Every grounded relation instance is decided Equal, and identified
    terms agree under evaluation into product models.

    The universe is closed over its classes.  Then every syntactic
    instance is built into the arena and saturated with no further
    seed, so an instance the class closure missed stays unproved.  A
    class with a member whose image a target leaves undefined is an
    evaluation violation tagged eval-undefined.
    """
    p = two_generator_quiver(SEED_CONFIG)
    universe = enumerate_free_magma(p, depth=PROVABILITY_DEPTH)
    session = CongruenceSession(universe).saturate_over_classes()
    relations = instantiate_relations(universe)
    session.saturate()
    # an instance is proved when its sides share a class; its trace is
    # not needed here
    find = session.find
    unproved = [r for r in relations if find(r.left.nid) != find(r.right.nid)]
    audit = audit_congruence(session)

    rng = random.Random(seed)
    targets = _product_targets()
    audit_violations = []
    assignments_run = 0
    classes = session.classes(universe.all_terms())
    for i in range(AUDIT_ASSIGNMENTS):
        table = targets[i % len(targets)]
        assignment = random_assignment(p, table, rng, name=f"audit-{i}")
        ev = Evaluator(assignment)
        assignments_run += 1
        for members in classes:
            try:
                images = [ev.eval(m) for m in members]
            except EvalError as exc:
                # a broken target can leave a composite undefined; that
                # fails the audit instead of aborting the criterion
                audit_violations.append(
                    {
                        "assignment": i,
                        "tag": "eval-undefined",
                        "class": members[0].text,
                        "error": str(exc),
                    }
                )
                continue
            base = images[0]
            for m, image in zip(members[1:], images[1:]):
                if image != base:
                    audit_violations.append(
                        {
                            "assignment": i,
                            "left": members[0].text,
                            "right": m.text,
                        }
                    )
    ok = (
        not unproved
        and audit.ok
        and not audit_violations
        and universe.size <= PROVABILITY_UNIVERSE_CAP
        and session.completed
    )
    return {
        "criterion": "relation-provability",
        "ok": ok,
        "details": {
            "universe_size": universe.size,
            "universe_cap": PROVABILITY_UNIVERSE_CAP,
            "instances": len(relations),
            "unproved": [repr(r) for r in unproved[:10]],
            "proved_fraction": 1.0 if not relations else
                (len(relations) - len(unproved)) / len(relations),
            "closure_audit_ok": audit.ok,
            "assignments": assignments_run,
            "evaluation_violations": audit_violations[:10],
            "session": session.stats(),
        },
    }


def criterion_oracle_equivalence() -> dict:
    """decide_equal's verdicts match reduced words on every small pair."""
    report = oracle_compare(
        two_generator_quiver(DIM1_CONFIG),
        depth=ORACLE_DEPTH,
        size_cap=ORACLE_SIZE_CAP,
        max_side_size=ORACLE_SIDE_CAP,
    )
    return {
        "criterion": "oracle-equivalence",
        "ok": report.ok,
        "details": {"sweep": report.to_dict()},
    }


def criterion_contraction_invariants() -> dict:
    """The stagewise free contraction satisfies all filler invariants."""
    p = two_generator_quiver(SEED_CONFIG)
    data = build_free_contraction(p, depth=CONTRACTION_DEPTH)
    report = validate_contraction(data)
    eta = unit_eta(data)
    eta_report = validate_morphism(eta)
    ok = report.ok and eta_report.ok
    return {
        "criterion": "contraction-invariants",
        "ok": ok,
        "details": {
            "build": data.to_report_dict(),
            "invariants_checked": report.checked,
            "violations": [v.to_dict() for v in report.violations[:10]],
            "unit_ok": eta_report.ok,
        },
    }


def criterion_universal_factorization(seed: int = DEFAULT_SEED) -> dict:
    """Evaluation is the unique homomorphic extension of assignments."""
    p = two_generator_quiver(SEED_CONFIG)
    universe = enumerate_free_magma(p, depth=3)
    rng = random.Random(seed)
    targets = _product_targets()
    failures = []
    for i in range(FACTORIZATION_ASSIGNMENTS):
        table = targets[i % len(targets)]
        assignment = random_assignment(p, table, rng, name=f"factor-{i}")
        report = check_universal_factorization(assignment, universe)
        if not report.ok:
            failures.append(
                {"assignment": i, "violations": [v.to_dict() for v in report.violations[:5]]}
            )
    return {
        "criterion": "universal-factorization",
        "ok": not failures,
        "details": {
            "assignments": FACTORIZATION_ASSIGNMENTS,
            "universe_size": universe.size,
            "failures": failures[:5],
        },
    }


def criterion_unit_naturality(seed: int = DEFAULT_SEED) -> dict:
    """The unit of the construction commutes with presentation maps."""
    p = two_generator_quiver(SEED_CONFIG)
    q = rich_loop_target(SEED_CONFIG)
    # matching caps keep image terms of capped source terms enumerable
    # in the target, so identified pairs stay identified under the map
    source = build_free_contraction(
        p,
        depth=CONTRACTION_DEPTH,
        size_cap=NATURALITY_SIZE_CAP,
        max_side_size=NATURALITY_SIDE_CAP,
    )
    target = build_free_contraction(
        q,
        depth=CONTRACTION_DEPTH,
        size_cap=NATURALITY_SIZE_CAP,
        max_side_size=NATURALITY_SIDE_CAP,
    )
    eta_p = unit_eta(source)
    eta_q = unit_eta(target)
    rng = random.Random(seed)
    seen = set()
    failures = []
    checked = 0
    attempts = 0
    while checked < NATURALITY_MORPHISMS and attempts < 20 * NATURALITY_MORPHISMS:
        attempts += 1
        f = random_set_morphism(p, q, rng, name=f"nat-{checked}")
        key = tuple(sorted((lv, tuple(sorted(t.items()))) for lv, t in f.maps.items()))
        if key in seen:
            continue
        seen.add(key)
        checked += 1
        phi = free_on_morphism(f, source, target)
        morphism_report = validate_contraction_morphism(phi)
        square_ok = True
        for level, refs in p.cells.items():
            for c in refs:
                via_phi = phi.phi(source.builder.gen(c)).text
                via_f = eta_q.maps[level][f.maps[level][c.name]]
                if via_phi != via_f:
                    square_ok = False
        if not (morphism_report.ok and square_ok):
            failures.append(
                {
                    "morphism": f.name,
                    "square_ok": square_ok,
                    "violations": [v.to_dict() for v in morphism_report.violations[:5]],
                }
            )
    eta_ok = validate_morphism(eta_p).ok and validate_morphism(eta_q).ok
    return {
        "criterion": "unit-naturality",
        "ok": eta_ok and checked >= NATURALITY_MORPHISMS and not failures,
        "details": {
            "morphisms_checked": checked,
            "unit_maps_valid": eta_ok,
            "failures": failures[:5],
        },
    }


CRITERIA = (
    criterion_product_models,
    criterion_free_magma_soundness,
    criterion_relation_provability,
    criterion_oracle_equivalence,
    criterion_contraction_invariants,
    criterion_universal_factorization,
    criterion_unit_naturality,
)


def run_all(seed: int = DEFAULT_SEED, include_timing: bool = False) -> dict:
    """Run every acceptance criterion and assemble the report."""
    results = []
    for fn in CRITERIA:
        start = perf_counter()
        if "seed" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
            outcome = fn(seed=seed)
        else:
            outcome = fn()
        if include_timing:
            outcome["timing_s"] = perf_counter() - start
        results.append(outcome)
    return {
        "seed": seed,
        "criteria": results,
        "ok": all(r["ok"] for r in results),
    }
