"""Command line front end over the whole library.

Eight subcommands: validate, enumerate, decide, product, contract,
eval, oracle, check-all.  Every subcommand prints a short human
summary to stdout; --json additionally prints the full report, and
--out writes the same JSON to a file.  Reports embed the knobs that
produced them (depth, budget, seed) and are serialized with sorted
keys so that identical inputs give byte-identical output.

Exit status: 0 when every requested check passed, 1 when checks ran
and failed (or a decision stayed unknown, or the budget cut a
contraction stage short), 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .acceptance import DEFAULT_SEED, run_all
from .congruence import CongruenceSession, decide_equal, render_trace
from .contraction import ContractionError, build_free_contraction, validate_contraction
from .models import (
    InvolutiveOneCategory,
    ModelError,
    as_strict_table,
    build_product,
    oracle_compare,
    word_separator,
)
from .presentation import (
    CubicalSetPresentation,
    PresentationError,
    TruncationConfig,
    format_level,
    validate_cubical_axioms,
    validate_quiver,
)
from .strict import (
    EvalError,
    Evaluator,
    GeneratorAssignment,
    StrictCategoryTable,
    validate_involutive,
    validate_strict,
)
from .term import TermBuilder, TermError, enumerate_free_magma, parse_term

USER_ERRORS = (
    OSError,
    json.JSONDecodeError,
    PresentationError,
    TermError,
    ModelError,
    EvalError,
    ContractionError,
    ValueError,
)


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return data


def _load_presentation(path: str) -> CubicalSetPresentation:
    return CubicalSetPresentation.from_dict(_load_json(path), name=os.path.basename(path))


def _is_table(data: dict) -> bool:
    return any(k in data for k in ("refl", "dual", "comp"))


def cmd_validate(args) -> int:
    data = _load_json(args.path)
    name = os.path.basename(args.path)
    if _is_table(data):
        table = StrictCategoryTable.from_dict(data, name=name)
        kind = "strict-table"
        # validate_strict runs validate_quiver and validate_cubical_axioms too
        reports = [validate_strict(table), validate_involutive(table)]
        config = table.underlying.config
    else:
        p = CubicalSetPresentation.from_dict(data, name=name)
        kind = "presentation"
        reports = [validate_quiver(p), validate_cubical_axioms(p)]
        config = p.config
    violations = [v.to_dict() for r in reports for v in r.violations]
    checked = sum(r.checked for r in reports)
    ok = not violations
    report = {
        "subject": name,
        "kind": kind,
        "config": config.to_dict(),
        "checked": checked,
        "violations": violations,
        "ok": ok,
    }
    _emit(report, args)
    status = "ok" if ok else f"FAIL ({len(violations)} violations)"
    print(f"validate {name}: {kind}, {checked} checks, {status}")
    for v in violations[:10]:
        print(f"  {v['tag']} at {v['level']}: {v['detail']}")
    return 0 if ok else 1


def cmd_enumerate(args) -> int:
    p = _load_presentation(args.path)
    depth = args.depth if args.depth is not None else p.config.term_depth
    universe = enumerate_free_magma(p, depth=depth)
    terms = {
        format_level(lv): [t.text for t in sorted(ts, key=lambda t: t.sort_key)]
        for lv, ts in sorted(universe.levels.items())
    }
    report = {
        "config": {**p.config.to_dict(), "depth": depth},
        "size": universe.size,
        "truncated": universe.truncated,
        "counts": universe.counts(),
        "terms": terms,
    }
    _emit(report, args)
    print(
        f"enumerate {os.path.basename(args.path)}: depth {depth}, "
        f"{universe.size} terms across {len(universe.levels)} levels"
        + (" (truncated)" if universe.truncated else "")
    )
    for key, n in universe.counts().items():
        print(f"  {key}: {n}")
    return 0


def _assignment_by_name(
    p: CubicalSetPresentation, table: StrictCategoryTable
) -> GeneratorAssignment:
    """Match generators to same-named cells of a separator table."""
    maps: dict = {}
    for level, refs in p.cells.items():
        if level[0] > 1:
            continue
        available = {c.name for c in table.underlying.cells.get(level, [])}
        chosen = {}
        for c in refs:
            if c.name not in available:
                raise ValueError(
                    f"separator has no cell named {c.name!r} at level {format_level(level)}"
                )
            chosen[c.name] = c.name
        maps[level] = chosen
    return GeneratorAssignment(p, table, maps, name="separator")


def _auto_separators(p: CubicalSetPresentation, level) -> list:
    dim, dirs = level
    if dim > 1:
        return []
    direction = dirs[0] if dim == 1 else 1
    try:
        return [word_separator(p, direction=direction)]
    except ModelError:
        return []


def _require_valid_category(category: InvolutiveOneCategory, what: str) -> None:
    """Reject a category file unless its strict view passes both validators."""
    view = as_strict_table(category)
    if not (validate_strict(view).ok and validate_involutive(view).ok):
        raise ValueError(f"{what} is not a valid involutive category")


def cmd_decide(args) -> int:
    p = _load_presentation(args.path)
    builder = TermBuilder(p)
    t1 = parse_term(args.t1, builder)
    t2 = parse_term(args.t2, builder)
    depth = args.depth if args.depth is not None else p.config.term_depth
    depth = max(depth, t1.weight, t2.weight)
    universe = enumerate_free_magma(builder, depth=depth)
    session = CongruenceSession(universe).saturate_over_classes(
        universe.levels, budget=args.budget
    )

    separators = []
    if t1.level == t2.level:
        separators.extend(_auto_separators(p, t1.level))
    for sep_path in args.separator or []:
        category = InvolutiveOneCategory.from_dict(_load_json(sep_path))
        _require_valid_category(category, f"separator {sep_path}")
        direction = t1.dirs[0] if t1.dim == 1 else 1
        table = as_strict_table(category, direction=direction)
        separators.append(_assignment_by_name(p, table))

    decision = decide_equal(session, t1, t2, separators)
    witness = decision.witness
    if decision.verdict == "equal":
        witness = {"trace": render_trace(builder, witness["trace"])}
    report = {
        "config": {
            **p.config.to_dict(),
            "depth": depth,
            "budget": args.budget,
        },
        "t1": t1.text,
        "t2": t2.text,
        "level": format_level(t1.level),
        "verdict": decision.verdict,
        "witness": witness,
    }
    _emit(report, args)
    print(f"decide: {t1.text} vs {t2.text} -> {decision.verdict}")
    return 0 if decision.verdict in ("equal", "not-equal") else 1


def cmd_product(args) -> int:
    factors = [InvolutiveOneCategory.from_dict(_load_json(path)) for path in args.paths]
    for path, factor in zip(args.paths, factors):
        _require_valid_category(factor, f"factor {path}")
    max_dim = args.max_dim if args.max_dim is not None else min(2, len(factors))
    cfg = TruncationConfig(max_dim=max_dim, dir_universe=len(factors), term_depth=1)
    table = build_product(factors, cfg)
    reports = [validate_strict(table), validate_involutive(table)]
    violations = [v.to_dict() for r in reports for v in r.violations]
    ok = not violations
    _emit(table.to_dict(), args)
    cells = sum(len(v) for v in table.underlying.cells.values())
    status = "ok" if ok else f"FAIL ({len(violations)} violations)"
    print(
        f"product of {len(factors)} factors: max_dim {max_dim}, "
        f"{cells} cells, validation {status}"
    )
    return 0 if ok else 1


def cmd_contract(args) -> int:
    p = _load_presentation(args.path)
    depth = args.depth if args.depth is not None else p.config.term_depth
    data = build_free_contraction(p, depth=depth, budget=args.budget)
    invariants = validate_contraction(data)
    cut = data.incomplete_stage()
    kappa_table = {
        f"kappa[{d}]({data.builder.terms[x].text},{data.builder.terms[y].text})": node.text
        for (d, x, y), node in sorted(
            data.kappa.items(), key=lambda kv: (kv[0][0], kv[1].text)
        )
    }
    partition: dict[str, list[list[str]]] = {}
    for level, terms in sorted(data.universe.levels.items()):
        partition[format_level(level)] = sorted(
            sorted(t.text for t in members) for members in data.session.classes(terms)
        )
    report = {
        "config": {**p.config.to_dict(), "depth": depth, "budget": args.budget},
        "build": data.to_report_dict(),
        "kappa_table": kappa_table,
        "classes": partition,
        "invariants_checked": invariants.checked,
        "violations": [v.to_dict() for v in invariants.violations],
        "ok": invariants.ok and cut is None,
    }
    status = "ok" if invariants.ok else f"FAIL ({len(invariants.violations)} violations)"
    if cut is not None:
        # a stage the budget cut short is an unfinished build, not bad data
        report["incomplete"] = {"stage": cut, "cause": "budget"}
        status += f", incomplete at stage {cut} (budget)"
    _emit(report, args)
    print(
        f"contract {os.path.basename(args.path)}: {data.universe.size} terms, "
        f"{len(data.kappa)} fillers, invariants {status}"
    )
    return 0 if report["ok"] else 1


def cmd_eval(args) -> int:
    table = StrictCategoryTable.from_dict(
        _load_json(args.cat), name=os.path.basename(args.cat)
    )
    map_data = _load_json(args.assign)
    if "source" not in map_data:
        raise ValueError(f"{args.assign}: missing 'source' presentation")
    source = CubicalSetPresentation.from_dict(map_data["source"], name="source")
    assignment = GeneratorAssignment.from_dict(map_data, source, table)
    assignment_report = assignment.validate()
    if not assignment_report.ok:
        raise ValueError(
            f"{args.assign}: assignment invalid "
            f"({assignment_report.violations[0].detail})"
        )
    builder = TermBuilder(source)
    t = parse_term(args.term, builder)
    value = Evaluator(assignment).eval(t)
    report = {
        "term": t.text,
        "level": format_level(t.level),
        "value": value.name,
    }
    _emit(report, args)
    print(f"eval: {t.text} -> {value.name} at level {format_level(t.level)}")
    return 0


def cmd_oracle(args) -> int:
    p = _load_presentation(args.path)
    depth = args.depth if args.depth is not None else 5
    report_obj = oracle_compare(p, depth=depth, budget=args.budget)
    report = {
        "config": {**p.config.to_dict(), "depth": depth, "budget": args.budget},
        **report_obj.to_dict(),
    }
    _emit(report, args)
    status = "ok" if report_obj.ok else "FAIL"
    print(
        f"oracle {os.path.basename(args.path)}: {report_obj.pairs} pairs, "
        f"{len(report_obj.contradictions)} contradictions, "
        f"{report_obj.unknown_pairs} unknown, {status}"
    )
    return 0 if report_obj.ok else 1


def cmd_check_all(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    report = run_all(seed)
    _emit(report, args)
    print(f"check-all: seed {seed}")
    for entry in report["criteria"]:
        print(f"  {entry['criterion']}: {'PASS' if entry['ok'] else 'FAIL'}")
    print(f"overall: {'PASS' if report['ok'] else 'FAIL'}")
    return 0 if report["ok"] else 1


def _count(text: str) -> int:
    """A non-negative int for --depth and --budget."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative int, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omega-cube",
        description="Validate, enumerate, and decide in truncated cubical settings.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--out", help="write the JSON report to this file")
        sp.add_argument("--json", action="store_true", help="print the JSON report")

    sp = sub.add_parser("validate", help="check a presentation or strict table")
    sp.add_argument("path")
    add_common(sp)
    sp.set_defaults(handler=cmd_validate)

    sp = sub.add_parser("enumerate", help="enumerate the term universe")
    sp.add_argument("path")
    sp.add_argument("--depth", type=_count, help="operation-count bound per term")
    add_common(sp)
    sp.set_defaults(handler=cmd_enumerate)

    sp = sub.add_parser("decide", help="decide equality of two terms")
    sp.add_argument("path")
    sp.add_argument("--t1", required=True, help='first term, e.g. "comp[1](gen(g),gen(f))"')
    sp.add_argument("--t2", required=True, help="second term")
    sp.add_argument("--depth", type=_count)
    sp.add_argument("--budget", type=_count)
    sp.add_argument(
        "--separator",
        action="append",
        help="involutive category JSON used to certify inequality (repeatable)",
    )
    add_common(sp)
    sp.set_defaults(handler=cmd_decide)

    sp = sub.add_parser("product", help="build a product table from category files")
    sp.add_argument("paths", nargs="+")
    sp.add_argument("--max-dim", type=int)
    add_common(sp)
    sp.set_defaults(handler=cmd_product)

    sp = sub.add_parser("contract", help="build and certify a free contraction")
    sp.add_argument("path")
    sp.add_argument("--depth", type=_count)
    sp.add_argument("--budget", type=_count)
    add_common(sp)
    sp.set_defaults(handler=cmd_contract)

    sp = sub.add_parser("eval", help="evaluate a term under an assignment")
    sp.add_argument("cat", help="strict table JSON")
    sp.add_argument("--assign", required=True, help="JSON with 'source' and 'maps'")
    sp.add_argument("--term", required=True)
    add_common(sp)
    sp.set_defaults(handler=cmd_eval)

    sp = sub.add_parser("oracle", help="play the congruence against reduced words")
    sp.add_argument("path")
    sp.add_argument("--depth", type=_count)
    sp.add_argument("--budget", type=_count)
    add_common(sp)
    sp.set_defaults(handler=cmd_oracle)

    sp = sub.add_parser("check-all", help="run the full acceptance suite")
    sp.add_argument("--seed", type=int, help=f"default {DEFAULT_SEED}")
    add_common(sp)
    sp.set_defaults(handler=cmd_check_all)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
