"""The benchmark's four workloads.

Each workload builds its fixed inputs when constructed (this is the
set-up that setup_s times, import of the library included), runs one
job per call to job(), checks a job's outputs against references that
do not go through the code path under test, and reads per-layer
counters off a job's outputs.  Timing and checking are separate: the
run loop times job() and then calls check() and counters() outside the
timed interval.

The library is imported lazily, from the src/ directory next to this
one, so that set-up includes the import.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

SRC = Path(__file__).resolve().parent.parent / "src"

# Congruence families, as named in the library; fixed here so the metric
# catalogue does not depend on importing it.
FAMILIES = (
    "assoc",
    "unit-left",
    "unit-right",
    "id-functoriality",
    "exchange",
    "involutive",
    "star-commute",
    "star-antihomo",
    "star-homo-transverse",
    "id-hermitian",
    "id-hermitian-transverse",
    "contraction-projection",
)
CONTRACTION_STAGES = (0, 1, 2)


class LibraryMissing(Exception):
    """The checkout has no omegacube sources next to the benchmark."""


def load_library():
    if not (SRC / "omegacube" / "__init__.py").is_file():
        raise LibraryMissing(f"no omegacube package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import omegacube

    return omegacube


# -- bookkeeping ---------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the first failures named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, what: str, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 20:
            self.notes.append(f"{what}: {failed} of {attempted} failed")

    def pin(self, what: str, got: int, want: int) -> None:
        self.add(f"{what} is {got}, pinned at {want}", 1, int(got != want))


@dataclass
class Queries:
    """Verdicts of a stream of pair queries, with the latency of each call."""

    verdicts: list[str] = field(default_factory=list)
    latency_ns: array = field(default_factory=lambda: array("q"))
    trace_steps: int = 0

    def count(self, verdict: str) -> int:
        return sum(1 for v in self.verdicts if v == verdict)


def decide_stream(decide, session, pairs, separators) -> Queries:
    q = Queries()
    for a, b in pairs:
        t0 = perf_counter_ns()
        d = decide(session, a, b, separators)
        q.latency_ns.append(perf_counter_ns() - t0)
        q.verdicts.append(d.verdict)
        if d.verdict == "equal":
            q.trace_steps += len(d.witness["trace"])
    return q


def same_level_pairs(terms, n: int, rng: random.Random) -> list:
    return [tuple(rng.sample(terms, 2)) for _ in range(n)]


def term_counters(universe) -> dict:
    nodes = len(universe.builder)
    return {
        "term.universe_terms": universe.size,
        "term.arena_nodes": nodes,
        "term.arena_outside_universe": nodes - universe.size,
    }


def session_counters(session, universe, relations) -> dict:
    stats = session.stats()
    nodes = stats["nodes"]
    classes = len({session.find(n) for n in range(nodes)})
    out = {
        "congruence.instances": len(relations),
        "congruence.processed": stats["processed"],
        "congruence.merges": stats["merges"],
        "congruence.classes": classes,
        "congruence.universe_classes": len({session.find(t.nid) for t in universe.all_terms()}),
        "congruence.nodes_per_class": nodes / classes,
    }
    for fam in FAMILIES:
        out[f"congruence.instances.{fam}"] = 0
    for r in relations:
        out[f"congruence.instances.{r.family}"] += 1
    return out


def query_counters(q: Queries) -> dict:
    equal = q.count("equal")
    return {
        "congruence.verdicts.equal": equal,
        "congruence.verdicts.not_equal": q.count("not-equal"),
        "congruence.verdicts.unknown": q.count("unknown"),
        "congruence.trace_steps_mean": q.trace_steps / equal if equal else 0.0,
    }


def check_words(oc, q: Queries, pairs, tally: Tally, what: str) -> None:
    """Equal exactly when the reduced words agree; Unknown is a failure."""
    words: dict[int, str | None] = {}

    def word(t):
        if t.nid not in words:
            try:
                words[t.nid] = str(oc.normal_form_dim1(t))
            except oc.TermError:
                words[t.nid] = None
        return words[t.nid]

    bad = 0
    for (a, b), verdict in zip(pairs, q.verdicts):
        wa, wb = word(a), word(b)
        if verdict == "unknown" or wa is None or (verdict == "equal") != (wa == wb):
            bad += 1
    tally.add(what, len(q.verdicts), bad)


def budget_frac(processed: int, config) -> float:
    return processed / config.saturation_budget


# -- workloads -----------------------------------------------------------


class Workload:
    name = ""
    FULL: dict = {}
    SMALL: dict = {}

    def __init__(self, seed: int, small: bool = False) -> None:
        self.oc = load_library()
        self.size = dict(self.SMALL if small else self.FULL)
        self.seed = seed
        self.rng = random.Random(seed)
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def job_rng(self, job: int) -> random.Random:
        """The draws of one job depend on the seed and the job index only."""
        return random.Random(f"{self.name}/{self.seed}/{job}")

    def job(self, tr, job: int) -> dict:
        raise NotImplementedError

    def check(self, out: dict, tally: Tally) -> None:
        raise NotImplementedError

    def counters(self, out: dict) -> dict:
        raise NotImplementedError


class ClosureD3(Workload):
    """Depth-3 closure over the two-generator quiver: the Equal path."""

    name = "closure-d3"
    FULL = {"depth": 3, "assignments": 4, "eval_pairs": 4000,
            "pins": {"universe terms": 142, "universe classes": 38}}
    SMALL = {"depth": 2, "assignments": 2, "eval_pairs": 200, "pins": {}}

    def setup(self) -> None:
        oc = self.oc
        self.config = oc.TruncationConfig(max_dim=2, dir_universe=2, term_depth=self.size["depth"])
        self.p = oc.two_generator_quiver(self.config)
        small = oc.TruncationConfig(max_dim=2, dir_universe=2, term_depth=1)
        targets = [
            oc.build_product([oc.walking_isomorphism(), oc.pair_groupoid(3)], small),
            oc.build_product([oc.pair_groupoid(4), oc.walking_isomorphism()], small),
        ]
        self.assignments = [
            oc.random_assignment(self.p, targets[i % 2], self.rng, name=f"check-{i}")
            for i in range(self.size["assignments"])
        ]

    def job(self, tr, job: int) -> dict:
        oc = self.oc
        with tr.span("term.enumerate"):
            u = oc.enumerate_free_magma(self.p, self.size["depth"])
        with tr.span("congruence.instantiate"):
            rels = oc.instantiate_relations(u)
        with tr.span("congruence.session_init"):
            session = oc.CongruenceSession(u)
        with tr.span("congruence.saturate"):
            session.seed(rels).saturate()
        rng = self.job_rng(job)
        order = list(range(len(rels)))
        rng.shuffle(order)
        pairs = [(rels[i].left, rels[i].right) for i in order]
        with tr.span("congruence.decide"):
            q = decide_stream(oc.decide_equal, session, pairs, ())
        with tr.span("congruence.audit"):
            audit = oc.audit_congruence(session)
        return {"universe": u, "relations": rels, "session": session, "pairs": pairs,
                "queries": q, "audit": audit, "rng": rng}

    def check(self, out: dict, tally: Tally) -> None:
        oc = self.oc
        pairs, q, session, u = out["pairs"], out["queries"], out["session"], out["universe"]
        # every instance is a relation, so anything but Equal is wrong; a
        # sample of them must also evaluate equal in product models
        bad = {i for i, v in enumerate(q.verdicts) if v != "equal"}
        sample = out["rng"].sample(range(len(pairs)), min(self.size["eval_pairs"], len(pairs)))
        class_checks = class_bad = 0
        by_root: dict[int, list] = {}
        for t in u.all_terms():
            by_root.setdefault(session.find(t.nid), []).append(t)
        for assignment in self.assignments:
            ev = oc.Evaluator(assignment)
            for i in sample:
                left, right = pairs[i]
                try:
                    if ev.eval(left) != ev.eval(right):
                        bad.add(i)
                except oc.EvalError:
                    bad.add(i)
            for members in by_root.values():
                base = ev.eval(members[0])
                for m in members[1:]:
                    class_checks += 1
                    class_bad += ev.eval(m) != base
        tally.add("instances decided Equal and equal in product models", len(pairs), len(bad))
        tally.add("identified universe terms equal in product models", class_checks, class_bad)
        audit = out["audit"]
        tally.add("congruence audit", audit.checked, len(audit.violations))
        tally.add("saturation completed", 1, int(not session.completed))
        pins = self.size["pins"]
        if pins:
            tally.pin("universe terms", u.size, pins["universe terms"])
            tally.pin("universe classes", len(by_root), pins["universe classes"])

    def counters(self, out: dict) -> dict:
        s = out["session"]
        return {
            **term_counters(out["universe"]),
            **session_counters(s, out["universe"], out["relations"]),
            **query_counters(out["queries"]),
            "congruence.budget_used_frac": budget_frac(s.processed, self.config),
            "congruence.audit_checked": out["audit"].checked,
        }


class OracleDim1(Workload):
    """Dimension-1 oracle sweep, then a mostly NotEqual query stream."""

    name = "oracle-dim1"
    FULL = {"depth": 5, "size_cap": 6, "side_cap": 13, "queries": 40000,
            "pins": {"sweep pairs": 7753, "sweep equal pairs": 537, "sweep unknown pairs": 0}}
    SMALL = {"depth": 3, "size_cap": 6, "side_cap": 13, "queries": 300, "pins": {}}

    def setup(self) -> None:
        oc = self.oc
        self.config = oc.TruncationConfig(max_dim=1, dir_universe=1, term_depth=self.size["depth"])
        self.p = oc.two_generator_quiver(self.config)
        self.separators = [oc.word_separator(self.p)]

    def job(self, tr, job: int) -> dict:
        oc = self.oc
        size = self.size
        with tr.span("models.oracle_compare"):
            report = oc.oracle_compare(
                self.p, depth=size["depth"], size_cap=size["size_cap"],
                max_side_size=size["side_cap"],
            )
        with tr.span("term.enumerate"):
            u = oc.enumerate_free_magma(self.p, size["depth"], size_cap=size["size_cap"])
        with tr.span("congruence.instantiate"):
            rels = oc.instantiate_relations(u, max_side_size=size["side_cap"])
        with tr.span("congruence.session_init"):
            session = oc.CongruenceSession(u)
        with tr.span("congruence.saturate"):
            session.seed(rels).saturate()
        pairs = same_level_pairs(u.level(1, (1,)), size["queries"], self.job_rng(job))
        with tr.span("congruence.decide"):
            q = decide_stream(oc.decide_equal, session, pairs, self.separators)
        return {"report": report, "universe": u, "relations": rels, "session": session,
                "pairs": pairs, "queries": q}

    def check(self, out: dict, tally: Tally) -> None:
        r = out["report"]
        tally.add("oracle sweep pairs agree with reduced words", r.pairs,
                  r.unknown_pairs + len(r.contradictions) + len(r.incomplete))
        check_words(self.oc, out["queries"], out["pairs"], tally,
                    "query verdicts agree with reduced words")
        tally.add("saturation completed", 1, int(not out["session"].completed))
        pins = self.size["pins"]
        if pins:
            tally.pin("sweep pairs", r.pairs, pins["sweep pairs"])
            tally.pin("sweep equal pairs", r.equal_pairs, pins["sweep equal pairs"])
            tally.pin("sweep unknown pairs", r.unknown_pairs, pins["sweep unknown pairs"])

    def counters(self, out: dict) -> dict:
        r, s = out["report"], out["session"]
        processed = max(s.processed, r.session["processed"])
        return {
            **term_counters(out["universe"]),
            **session_counters(s, out["universe"], out["relations"]),
            **query_counters(out["queries"]),
            "congruence.budget_used_frac": budget_frac(processed, self.config),
            "models.oracle_pairs": r.pairs,
            "models.oracle_equal_pairs": r.equal_pairs,
        }


class ContractionRich(Workload):
    """Free contractions of the quiver and the rich-loop target, with
    their units and free morphisms between them."""

    name = "contraction-rich"
    # the queries follow one long build, so a long stream is what keeps
    # their latency from sampling a single moment of the machine
    FULL = {"depth": 2, "size_cap": 3, "side_cap": 12, "morphisms": 10, "queries": 200000}
    SMALL = {"depth": 1, "size_cap": 3, "side_cap": 12, "morphisms": 3, "queries": 200}

    def setup(self) -> None:
        oc = self.oc
        self.config = oc.TruncationConfig(max_dim=2, dir_universe=2, term_depth=self.size["depth"])
        self.p = oc.two_generator_quiver(self.config)
        self.q = oc.rich_loop_target(self.config)
        # contraction terms under size_cap 3 have words of length at most 2
        self.separators = [oc.word_separator(self.q, max_len=2)]
        self.morphisms = []
        seen = set()
        while len(self.morphisms) < self.size["morphisms"]:
            f = oc.random_set_morphism(self.p, self.q, self.rng, name=f"nat-{len(self.morphisms)}")
            key = tuple(sorted((lv, tuple(sorted(t.items()))) for lv, t in f.maps.items()))
            if key not in seen:
                seen.add(key)
                self.morphisms.append(f)

    def build(self, presentation):
        s = self.size
        return self.oc.build_free_contraction(
            presentation, depth=s["depth"], size_cap=s["size_cap"], max_side_size=s["side_cap"]
        )

    def job(self, tr, job: int) -> dict:
        oc = self.oc
        with tr.span("contraction.build"):
            source = self.build(self.p)
        with tr.span("contraction.build"):
            target = self.build(self.q)
        with tr.span("contraction.validate"):
            reports = [oc.validate_contraction(source), oc.validate_contraction(target)]
        with tr.span("contraction.morphism"):
            etas = [oc.unit_eta(source), oc.unit_eta(target)]
            with tr.span("presentation.validate"):
                eta_reports = [oc.validate_morphism(e) for e in etas]
            maps = []
            for f in self.morphisms:
                phi = oc.free_on_morphism(f, source, target)
                maps.append((f, phi, oc.validate_contraction_morphism(phi)))
        pairs = same_level_pairs(target.universe.level(1, (1,)), self.size["queries"],
                                 self.job_rng(job))
        with tr.span("congruence.decide"):
            q = decide_stream(oc.decide_equal, target.session, pairs, self.separators)
        return {"source": source, "target": target, "reports": reports, "etas": etas,
                "eta_reports": eta_reports, "maps": maps, "pairs": pairs, "queries": q}

    def check(self, out: dict, tally: Tally) -> None:
        source, target = out["source"], out["target"]
        for rep in out["reports"] + out["eta_reports"]:
            tally.add(rep.subject, rep.checked, len(rep.violations))
        eta_q = out["etas"][1]
        for f, phi, rep in out["maps"]:
            tally.add(rep.subject, rep.checked, len(rep.violations))
            # naturality: phi after the source unit is the target unit after f
            square = all(
                phi.phi(source.builder.gen(c)).text == eta_q.maps[level][f.maps[level][c.name]]
                for level, refs in self.p.cells.items()
                for c in refs
            )
            tally.add(f"morphism {f.name} valid with a commuting unit square", 1,
                      int(not (rep.ok and square)))
        check_words(self.oc, out["queries"], out["pairs"], tally,
                    "query verdicts agree with reduced words")
        stages = source.stages + target.stages
        tally.add("stage saturations completed", len(stages),
                  sum(not st.session["completed"] for st in stages))

    def counters(self, out: dict) -> dict:
        both = (out["source"], out["target"])
        c = {
            **term_counters(out["target"].universe),
            **query_counters(out["queries"]),
            "congruence.budget_used_frac": max(
                budget_frac(st.session["processed"], self.config) for cd in both for st in cd.stages
            ),
            "contraction.kappa_cells": sum(len(cd.kappa) for cd in both),
            "contraction.validate_checked": sum(r.checked for r in out["reports"]),
            "contraction.morphisms_checked": len(out["etas"]) + len(out["maps"]),
            "presentation.checked": sum(r.checked for r in out["eta_reports"]),
        }
        for n in CONTRACTION_STAGES:
            stages = [cd.stages[n] for cd in both if n < len(cd.stages)]
            c[f"contraction.stage_nodes.{n}"] = sum(st.session["nodes"] for st in stages)
            c[f"contraction.stage_processed.{n}"] = sum(st.session["processed"] for st in stages)
            c[f"contraction.stage_universe.{n}"] = sum(st.universe_size for st in stages)
        return c


class ModelsStrict(Workload):
    """Product tables through every validator, then evaluation of free
    terms in them; no congruence work at all."""

    name = "models-strict"
    FULL = {"depth": 3, "tables": 3, "assignments": 6, "queries": 12000,
            "pins": {"cells": [72, 216, 960]}}
    SMALL = {"depth": 2, "tables": 2, "assignments": 2, "queries": 300, "pins": {}}

    def setup(self) -> None:
        oc = self.oc
        two = oc.TruncationConfig(max_dim=2, dir_universe=2, term_depth=1)
        three = oc.TruncationConfig(max_dim=3, dir_universe=3, term_depth=1)
        self.families = [
            ([oc.walking_isomorphism(), oc.pair_groupoid(3)], two),
            ([oc.walking_isomorphism(), oc.pair_groupoid(3), oc.cyclic_group_category(2)], three),
            ([oc.pair_groupoid(4), oc.pair_groupoid(3), oc.cyclic_group_category(3)], three),
        ][: self.size["tables"]]
        self.config = oc.TruncationConfig(max_dim=2, dir_universe=2, term_depth=self.size["depth"])
        self.p = oc.two_generator_quiver(self.config)

    def job(self, tr, job: int) -> dict:
        oc = self.oc
        with tr.span("models.build_product"):
            tables = [oc.build_product(fam, cfg) for fam, cfg in self.families]
        pres_reports, strict_reports = [], []
        for table in tables:
            with tr.span("presentation.validate"):
                pres_reports.append(oc.validate_quiver(table.underlying))
                pres_reports.append(oc.validate_cubical_axioms(table.underlying))
            with tr.span("strict.validate_strict"):
                strict_reports.append(oc.validate_strict(table))
            with tr.span("strict.validate_involutive"):
                strict_reports.append(oc.validate_involutive(table))
        with tr.span("term.enumerate"):
            u = oc.enumerate_free_magma(self.p, self.size["depth"])
        rng = self.job_rng(job)
        assignments = [
            oc.random_assignment(self.p, tables[i % len(tables)], rng, name=f"factor-{i}")
            for i in range(self.size["assignments"])
        ]
        with tr.span("strict.factorization"):
            factorizations = [oc.check_universal_factorization(a, u) for a in assignments]
        terms = list(u.all_terms())
        queries = []
        for _ in range(self.size["queries"]):
            t1 = rng.choice(terms)
            queries.append((t1, rng.choice(u.levels[t1.level])))
        # a model decision: Equal when no assignment of the job separates the
        # pair, each evaluated from scratch, as decide_equal does separators
        q = Queries()
        with tr.span("strict.eval"):
            for t1, t2 in queries:
                t0 = perf_counter_ns()
                same = True
                for a in assignments:
                    ev = oc.Evaluator(a)
                    same &= ev.eval(t1) == ev.eval(t2)
                q.latency_ns.append(perf_counter_ns() - t0)
                q.verdicts.append("equal" if same else "not-equal")
        return {"tables": tables, "pres_reports": pres_reports,
                "strict_reports": strict_reports, "universe": u, "assignments": assignments,
                "factorizations": factorizations, "queries": q, "query_inputs": queries}

    def check(self, out: dict, tally: Tally) -> None:
        oc = self.oc
        for rep in out["pres_reports"] + out["strict_reports"] + out["factorizations"]:
            tally.add(rep.subject, rep.checked, len(rep.violations))
        # the worklist extension is coded apart from Evaluator
        images = [oc.tabular_extension(out["universe"], a) for a in out["assignments"]]
        bad = sum(
            all(im[t1.nid] == im[t2.nid] for im in images) != (verdict == "equal")
            for (t1, t2), verdict in zip(out["query_inputs"], out["queries"].verdicts)
        )
        tally.add("model verdicts agree with the tabular extension", len(out["query_inputs"]), bad)
        pins = self.size["pins"]
        if pins:
            for table, want in zip(out["tables"], pins["cells"]):
                tally.pin(f"cells of {table.name}", cells_of(table), want)

    def counters(self, out: dict) -> dict:
        strict = out["strict_reports"]
        return {
            **term_counters(out["universe"]),
            "strict.checked": sum(r.checked for r in strict),
            "strict.violations": sum(len(r.violations) for r in strict)
            + sum(len(r.violations) for r in out["factorizations"]),
            "strict.evals": 2 * len(out["query_inputs"]) * len(out["assignments"]),
            "models.product_cells": sum(cells_of(t) for t in out["tables"]),
            "presentation.checked": sum(r.checked for r in out["pres_reports"]),
        }


def cells_of(table) -> int:
    return sum(len(v) for v in table.underlying.cells.values())


WORKLOADS = {w.name: w for w in (ClosureD3, ContractionRich, OracleDim1, ModelsStrict)}
