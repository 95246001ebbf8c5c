"""Concrete finite models and oracles.

Three ingredients live here.  First, finite involutive 1-categories
given by explicit tables, with factories for small standard examples;
a category is valid when its strict view (as_strict_table) passes
validate_strict and validate_involutive, which check the relation
schemes exactly as the word problem states them.  Second, the
product construction: a family of involutive 1-categories indexed by
directions 1..K yields a strict involutive cubical category whose
level-(n, D) cells are tuples holding an arrow in the slots named by D
and an object elsewhere, with every operation acting slotwise.  Third,
independent oracles for dimension one: reduced words over the
generating arrows, and a length-truncated free involutive category that
separates distinct words under evaluation.  The word oracle sweep
decides every pair through decide_equal, the same front door that
users call, with the word model as its separator, and checks each
verdict against the reduced words, which share no code with the
closure or the evaluator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product as iproduct

from .congruence import CongruenceSession, decide_equal
from .presentation import (
    CubicalSetPresentation,
    SetMorphism,
    TruncationConfig,
    json_object,
    name_table,
)
from .strict import GeneratorAssignment, StrictCategoryTable
from .term import (
    COMP,
    DUAL,
    GEN,
    REFL,
    Term,
    TermError,
    enumerate_free_magma,
)


class ModelError(Exception):
    """Raised for tables that cannot form the requested structure."""


@dataclass
class InvolutiveOneCategory:
    """A finite category with a contravariant involution on arrows."""

    name: str
    objects: list[str]
    arrows: dict[str, tuple[str, str]]
    compose: dict[tuple[str, str], str]
    identity: dict[str, str]
    star: dict[str, str]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "objects": list(self.objects),
            "arrows": {k: list(v) for k, v in sorted(self.arrows.items())},
            "compose": [[x, y, z] for (x, y), z in sorted(self.compose.items())],
            "identity": dict(sorted(self.identity.items())),
            "star": dict(sorted(self.star.items())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InvolutiveOneCategory":
        try:
            objects = data["objects"]
            arrows = json_object(data["arrows"], "arrows")
            compose = data["compose"]
            # a string unpacks into its characters, so shapes come first
            if not (
                isinstance(objects, list)
                and all(isinstance(ends, list) and len(ends) == 2 for ends in arrows.values())
                and isinstance(compose, list)
                and all(isinstance(entry, list) and len(entry) == 3 for entry in compose)
            ):
                raise ModelError(
                    "malformed category data: objects need a list of names, each arrow "
                    "a list of its two endpoints, and compose a list of "
                    "[left, right, composite] lists"
                )
            c = cls(
                name=data.get("name", ""),
                objects=list(objects),
                arrows={k: (s, t) for k, (s, t) in arrows.items()},
                compose={(x, y): z for x, y, z in compose},
                identity=dict(name_table(data["identity"], "identity")),
                star=dict(name_table(data["star"], "star")),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ModelError(f"malformed category data: {exc}") from None
        ends = [n for st in c.arrows.values() for n in st]
        if any(not isinstance(n, str) for n in [*c.objects, *ends, *c.compose.values()]):
            raise ModelError("malformed category data: every object and arrow is named by a string")
        return c

    def to_file(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# -- standard small categories ----------------------------------------


def walking_isomorphism() -> InvolutiveOneCategory:
    """Two objects, one isomorphism between them, stars by inversion."""
    arrows = {
        "ia": ("a", "a"),
        "ib": ("b", "b"),
        "u": ("a", "b"),
        "v": ("b", "a"),
    }
    compose = {}
    for x, (sx, tx) in arrows.items():
        for y, (sy, ty) in arrows.items():
            if sx == ty:
                if x.startswith("i"):
                    compose[(x, y)] = y
                elif y.startswith("i"):
                    compose[(x, y)] = x
                else:
                    compose[(x, y)] = "ia" if sy == "a" else "ib"
    return InvolutiveOneCategory(
        name="walking-iso",
        objects=["a", "b"],
        arrows=arrows,
        compose=compose,
        identity={"a": "ia", "b": "ib"},
        star={"ia": "ia", "ib": "ib", "u": "v", "v": "u"},
    )


def pair_groupoid(n: int) -> InvolutiveOneCategory:
    """Objects 1..n with exactly one arrow between any ordered pair."""
    objects = [f"o{i}" for i in range(1, n + 1)]
    arrows = {f"p{i}{j}": (f"o{j}", f"o{i}") for i in range(1, n + 1) for j in range(1, n + 1)}
    compose = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                compose[(f"p{i}{j}", f"p{j}{k}")] = f"p{i}{k}"
    return InvolutiveOneCategory(
        name=f"pair{n}",
        objects=objects,
        arrows=arrows,
        compose=compose,
        identity={f"o{i}": f"p{i}{i}" for i in range(1, n + 1)},
        star={f"p{i}{j}": f"p{j}{i}" for i in range(1, n + 1) for j in range(1, n + 1)},
    )


def cyclic_group_category(n: int) -> InvolutiveOneCategory:
    """One object whose arrows form the cyclic group of order n."""
    arrows = {f"g{i}": ("e", "e") for i in range(n)}
    return InvolutiveOneCategory(
        name=f"cyclic{n}",
        objects=["e"],
        arrows=arrows,
        compose={(f"g{i}", f"g{j}"): f"g{(i + j) % n}" for i in range(n) for j in range(n)},
        identity={"e": "g0"},
        star={f"g{i}": f"g{(-i) % n}" for i in range(n)},
    )


# -- the product construction -----------------------------------------


def _subsets(universe: list[int], max_size: int):
    out = [()]
    for d in universe:
        out = out + [s + (d,) for s in out if len(s) < max_size]
    return sorted(out, key=lambda s: (len(s), s))


def build_product(
    family: list[InvolutiveOneCategory], config: TruncationConfig, name: str = ""
) -> StrictCategoryTable:
    """Slotwise product of involutive 1-categories, one per direction.

    The factor for direction d contributes an arrow to slot d of every
    cell whose level contains d, and an object otherwise.  Faces,
    reflectors, duals, and compositions all act in the named slot and
    leave the rest alone, which is what makes every axiom reduce to its
    one-dimensional counterpart in each factor.
    """
    if len(family) != config.dir_universe:
        raise ModelError(
            f"need one factor per direction: family has {len(family)}, "
            f"config names directions 1..{config.dir_universe}"
        )
    k = len(family)
    name = name or "x".join(c.name for c in family)

    def slot_names(j: int, with_arrow: bool) -> list[str]:
        c = family[j - 1]
        return sorted(c.arrows) if with_arrow else sorted(c.objects)

    def cell_name(parts: tuple[str, ...]) -> str:
        return "|".join(parts)

    cells: dict = {}
    tuples_at: dict = {}
    for dirs in _subsets(list(range(1, k + 1)), config.max_dim):
        level = (len(dirs), dirs)
        pools = [slot_names(j, j in dirs) for j in range(1, k + 1)]
        tuples_at[level] = [tuple(parts) for parts in iproduct(*pools)]
        cells[level] = [cell_name(t) for t in tuples_at[level]]

    faces: dict = {}
    for (dim, dirs), tuples in tuples_at.items():
        if dim == 0:
            continue
        for d in dirs:
            c = family[d - 1]
            for side_idx, side in enumerate(("s", "t")):
                table = {}
                for parts in tuples:
                    image = list(parts)
                    image[d - 1] = c.arrows[parts[d - 1]][side_idx]
                    table[cell_name(parts)] = cell_name(tuple(image))
                faces[(dim, dirs, d, side)] = table

    underlying = CubicalSetPresentation(config, cells, faces, name=name)

    refl: dict = {}
    dual: dict = {}
    comp: dict = {}
    for (dim, dirs), tuples in tuples_at.items():
        for d in dirs:
            c = family[d - 1]
            dual[(dim, dirs, d)] = {
                cell_name(parts): cell_name(
                    tuple(c.star[p] if j == d else p for j, p in enumerate(parts, start=1))
                )
                for parts in tuples
            }
            low_level = (dim - 1, tuple(e for e in dirs if e != d))
            refl[(dim, dirs, d)] = {
                cell_name(parts): cell_name(
                    tuple(c.identity[p] if j == d else p for j, p in enumerate(parts, start=1))
                )
                for parts in tuples_at[low_level]
            }
            # composable partners agree in every slot but d's
            partners: dict = {}
            for ys in tuples:
                partners.setdefault(ys[: d - 1] + ys[d:], []).append(ys)
            table: dict = {}
            for xs in tuples:
                for ys in partners[xs[: d - 1] + xs[d:]]:
                    z = c.compose.get((xs[d - 1], ys[d - 1]))
                    if z is None:
                        continue
                    zs = tuple(z if j == d else xs[j - 1] for j in range(1, k + 1))
                    table[(cell_name(xs), cell_name(ys))] = cell_name(zs)
            comp[(dim, dirs, d)] = table
    return StrictCategoryTable(underlying, refl, dual, comp, name=name)


# -- fixture presentations --------------------------------------------


def two_generator_quiver(config: TruncationConfig | None = None) -> CubicalSetPresentation:
    """Three objects a, b, c with composable generators f: a->b, g: b->c."""
    config = config or TruncationConfig()
    return CubicalSetPresentation(
        config,
        cells={(0, ()): ["a", "b", "c"], (1, (1,)): ["f", "g"]},
        faces={
            (1, (1,), 1, "s"): {"f": "a", "g": "b"},
            (1, (1,), 1, "t"): {"f": "b", "g": "c"},
        },
        name="two-generator-quiver",
    )


def rich_loop_target(config: TruncationConfig | None = None) -> CubicalSetPresentation:
    """Two objects with a pair of parallel 1-cells for every ordered pair."""
    config = config or TruncationConfig()
    names = []
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    for s in ("u", "v"):
        for t in ("u", "v"):
            for tag in ("A", "B"):
                n = f"{tag}{s}{t}"
                names.append(n)
                src[n] = s
                tgt[n] = t
    return CubicalSetPresentation(
        config,
        cells={(0, ()): ["u", "v"], (1, (1,)): names},
        faces={(1, (1,), 1, "s"): src, (1, (1,), 1, "t"): tgt},
        name="rich-loop-target",
    )


def as_strict_table(c: InvolutiveOneCategory, direction: int = 1) -> StrictCategoryTable:
    """View an involutive 1-category as a 1-truncated strict table.

    The arrows are the 1-cells in the given direction.  Every object has
    a reflector in each direction of the truncation, so each lower
    direction holds the identities alone: one 1-cell per object, named
    as its identity, its own star and composite.
    """
    config = TruncationConfig(max_dim=1, dir_universe=max(1, direction), term_depth=1)
    cells = {(0, ()): sorted(c.objects)}
    faces, refl, dual, comp = {}, {}, {}, {}
    for d in range(1, direction + 1):
        if d == direction:
            arrows, star, compose = c.arrows, c.star, c.compose
        else:
            arrows = {i: (o, o) for o, i in c.identity.items()}
            star, compose = {i: i for i in arrows}, {(i, i): i for i in arrows}
        cells[1, (d,)] = sorted(arrows)
        faces[1, (d,), d, "s"] = {f: st[0] for f, st in arrows.items()}
        faces[1, (d,), d, "t"] = {f: st[1] for f, st in arrows.items()}
        refl[1, (d,), d] = dict(c.identity)
        dual[1, (d,), d] = dict(star)
        comp[1, (d,), d] = dict(compose)
    underlying = CubicalSetPresentation(config, cells, faces, name=c.name)
    return StrictCategoryTable(underlying, refl=refl, dual=dual, comp=comp, name=c.name)


# -- dimension-1 word oracle ------------------------------------------


@dataclass(frozen=True)
class Word1:
    """A reduced word at dimension one.

    letters is a sequence of (generator name, starred) pairs read in
    function-composition order; an empty sequence is the identity word
    at the object named by obj.
    """

    letters: tuple[tuple[str, bool], ...]
    obj: str | None = None

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if self.is_identity:
            return f"1({self.obj})"
        return ".".join(f"{g}'" if starred else g for g, starred in self.letters)


def normal_form_dim1(t: Term) -> Word1:
    """Reduced-word normal form of a term of dimension at most one.

    Duals reverse the word and flip each letter's star; compositions
    concatenate; reflectors of objects are identity words, which vanish
    inside concatenations.
    """
    if t.dim > 1:
        raise TermError(f"{t.text} has dimension {t.dim}; the word oracle covers dims 0 and 1")
    if t.kind == GEN:
        if t.dim == 0:
            return Word1((), obj=t.cell.name)
        return Word1(((t.cell.name, False),))
    if t.kind == REFL:
        base = normal_form_dim1(t.body)
        return Word1((), obj=base.obj)
    if t.kind == DUAL:
        w = normal_form_dim1(t.body)
        if w.is_identity:
            return w
        return Word1(tuple((g, not s) for g, s in reversed(w.letters)))
    if t.kind == COMP:
        wl = normal_form_dim1(t.left)
        wr = normal_form_dim1(t.right)
        if wl.is_identity:
            return wr
        if wr.is_identity:
            return wl
        return Word1(wl.letters + wr.letters)
    raise TermError(f"{t.text}: no dimension-1 normal form for kind {t.kind!r}")


# -- the separating model for dimension one ---------------------------

# Composition is tabulated over all arrow pairs, so the table grows with
# the square of this bound (the two-generator quiver at max_len=6 has 82
# arrows, rich_loop_target at max_len=3 already 1,174).
MAX_WORD_ARROWS = 2000


def truncated_free_involutive_category(
    p: CubicalSetPresentation, direction: int = 1, max_len: int = 6
) -> InvolutiveOneCategory:
    """Reduced words over a quiver's arrows, cut off at a length bound.

    Arrows are the composable letter sequences of length up to max_len
    over the generating arrows and their formal duals, plus an identity
    per object and one absorbing zero arrow per ordered object pair.
    Each arrow carries its word: the letters, () for an identity and
    None for a zero arrow.  One rule names every composite and every
    star: the word of a composite is the concatenation, None if either
    factor's is; the word of a star reverses the letters and flips each
    one; and the arrow from s to t named by a word is the zero arrow
    when the word is None or longer than max_len, the identity when it
    is empty and the word itself otherwise.  Since word length is
    additive, the collapse is associative and compatible with the star.
    Evaluating a free term here computes its reduced word exactly as
    long as the word fits, which makes the category a complete
    separator for terms below the bound.  Raises ModelError once there
    are more than MAX_WORD_ARROWS arrows, and when a name clashes with
    the word syntax: a generator named as another's dual letter (f and
    f'), or two arrows under one name (g.f next to g and f).
    """
    objects = sorted(c.name for c in p.cells.get((0, ()), []))
    gens = p.cells.get((1, (direction,)), [])
    letters: dict[str, tuple[str, str]] = {}
    flip: dict[str, str] = {}
    for g in gens:
        s = p.face(g, direction, "s").name
        t = p.face(g, direction, "t").name
        dual = g.name + "'"
        if g.name in letters or dual in letters:
            raise ModelError(f"generator {g.name!r} clashes with the letter of a dual")
        letters[g.name], letters[dual] = (s, t), (t, s)
        flip[g.name], flip[dual] = dual, g.name

    def named(word: tuple[str, ...] | None, s: str, t: str) -> str:
        if word is None or len(word) > max_len:
            return f"z.{s}.{t}"
        return ".".join(word) if word else f"e.{s}"

    arrows: dict[str, tuple[str, str]] = {}
    words: dict[str, tuple[str, ...] | None] = {}
    for o in objects:
        name = named((), o, o)
        arrows[name], words[name] = (o, o), ()
    for s in objects:
        for t in objects:
            name = named(None, s, t)
            arrows[name], words[name] = (s, t), None
    frontier = {(l,): ep for l, ep in letters.items()}
    for _ in range(max_len):
        next_frontier: dict[tuple[str, ...], tuple[str, str]] = {}
        for word, (s, t) in frontier.items():
            name = named(word, s, t)
            if name in words:
                raise ModelError(f"the word {word} and another arrow are both named {name!r}")
            words[name] = word
            arrows[name] = (s, t)
            if len(arrows) > MAX_WORD_ARROWS:
                raise ModelError(
                    f"words up to length {max_len} exceed {MAX_WORD_ARROWS} arrows"
                )
            for l, (ls, lt) in letters.items():
                if lt == s:
                    next_frontier[word + (l,)] = (ls, t)
        frontier = next_frontier

    star: dict[str, str] = {}
    for x, (s, t) in arrows.items():
        word = words[x]
        star[x] = named(None if word is None else tuple(flip[l] for l in reversed(word)), t, s)

    # x composes with y exactly when y ends where x starts
    by_target: dict[str, list[str]] = {}
    for y, (_, t) in arrows.items():
        by_target.setdefault(t, []).append(y)
    compose: dict[tuple[str, str], str] = {}
    for x, (s, t) in arrows.items():
        wx = words[x]
        for y in by_target[s]:
            wy = words[y]
            merged = None if wx is None or wy is None else wx + wy
            compose[(x, y)] = named(merged, arrows[y][0], t)
    return InvolutiveOneCategory(
        name=f"free-words-{max_len}({p.name or 'quiver'})",
        objects=objects,
        arrows=arrows,
        compose=compose,
        identity={o: named((), o, o) for o in objects},
        star=star,
    )


def word_separator(
    p: CubicalSetPresentation, direction: int = 1, max_len: int = 6
) -> GeneratorAssignment:
    """The canonical assignment of a quiver into its truncated word model."""
    table = as_strict_table(
        truncated_free_involutive_category(p, direction, max_len), direction
    )
    maps = {
        (0, ()): {c.name: c.name for c in p.cells.get((0, ()), [])},
        (1, (direction,)): {c.name: c.name for c in p.cells.get((1, (direction,)), [])},
    }
    return GeneratorAssignment(p, table, maps, name=f"words-{max_len}")


# -- oracle comparison ------------------------------------------------


@dataclass
class OracleReport:
    """Outcome of playing the congruence against the word oracle."""

    universe_size: int
    session: dict
    pairs: int = 0
    equal_pairs: int = 0
    not_equal_pairs: int = 0
    unknown_pairs: int = 0
    contradictions: list[dict] = field(default_factory=list)
    incomplete: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        done = self.session["completed"]
        return done and not (self.contradictions or self.incomplete or self.unknown_pairs)

    def to_dict(self) -> dict:
        return {
            "universe_size": self.universe_size,
            "pairs": self.pairs,
            "equal_pairs": self.equal_pairs,
            "not_equal_pairs": self.not_equal_pairs,
            "unknown_pairs": self.unknown_pairs,
            "contradictions": self.contradictions,
            "incomplete": self.incomplete,
            "session": self.session,
            "ok": self.ok,
        }


def oracle_compare(
    p: CubicalSetPresentation,
    *,
    depth: int | None = None,
    size_cap: int | None = 6,
    budget: int | None = None,
    max_side_size: int | None = None,
) -> OracleReport:
    """Saturate the dimension-<=1 universe, then sweep it against words.

    The full relation set is closed over the universe's classes;
    word_oracle_sweep then checks decide_equal's verdict on every pair
    of the closure against reduced words.
    """
    separator = word_separator(p)
    universe = enumerate_free_magma(p, depth, size_cap=size_cap, max_stage_dim=1)
    session = CongruenceSession(universe).saturate_over_classes(
        max_side_size=max_side_size, budget=budget
    )
    return word_oracle_sweep(session, separator)


def word_oracle_sweep(session: CongruenceSession, separator: GeneratorAssignment) -> OracleReport:
    """Compare decide_equal's verdicts with reduced words on every pair.

    Sweeps all unordered same-level pairs of objects and of direction-1
    arrows of the session's universe (the word model covers exactly
    that fragment) and decides each one with decide_equal, with the
    word separator as its only separator.  A contradiction is fatal
    either way round: Equal terms with different words, or NotEqual
    terms with equal words.  Unknown pairs with equal words are listed
    as incomplete: the closure failed to identify them.  separator is
    the word_separator of the universe's presentation; callers build it
    before the closure, so an input too large for the word model fails
    before any closure work.
    """
    universe = session.universe
    separators = [separator]
    report = OracleReport(universe_size=universe.size, session=session.stats())
    for level, terms in sorted(universe.levels.items()):
        if level[1] not in ((), (1,)):
            continue
        words = [str(normal_form_dim1(t)) for t in terms]
        n = len(terms)
        for i in range(n):
            for j in range(i + 1, n):
                report.pairs += 1
                verdict = decide_equal(session, terms[i], terms[j], separators).verdict
                same_word = words[i] == words[j]
                if verdict == "equal":
                    report.equal_pairs += 1
                    if not same_word:
                        report.contradictions.append(
                            {
                                "left": terms[i].text,
                                "right": terms[j].text,
                                "problem": "identified by the closure but the words "
                                f"differ: {words[i]} vs {words[j]}",
                            }
                        )
                elif verdict == "not-equal":
                    report.not_equal_pairs += 1
                    if same_word:
                        report.contradictions.append(
                            {
                                "left": terms[i].text,
                                "right": terms[j].text,
                                "problem": "separated by evaluation but the words agree",
                            }
                        )
                else:
                    report.unknown_pairs += 1
                    if same_word:
                        report.incomplete.append(
                            {
                                "left": terms[i].text,
                                "right": terms[j].text,
                                "problem": f"words agree ({words[i]}) but the closure "
                                "did not identify the pair",
                            }
                        )
    return report


# -- randomized assignments and morphisms -----------------------------


def _random_cell_maps(p: CubicalSetPresentation, target, rng):
    """Shared draw logic: images for 0-cells, then compatible 1-cells."""
    zero_level = (0, ())
    one_levels = [lv for lv in p.cells if lv[0] == 1]
    if any(lv[0] > 1 for lv in p.cells):
        raise ModelError("random assignments cover sources with cells of dimension <= 1")
    t0 = sorted(c.name for c in target.cells.get(zero_level, []))
    if not t0:
        raise ModelError("target has no 0-cells")
    indexes = {}
    for lv in one_levels:
        d = lv[1][0]
        idx: dict[tuple[str, str], list[str]] = {}
        for c in target.cells.get(lv, []):
            key = (target.face(c, d, "s").name, target.face(c, d, "t").name)
            idx.setdefault(key, []).append(c.name)
        for v in idx.values():
            v.sort()
        indexes[lv] = idx
    for _ in range(200):
        maps = {zero_level: {c.name: rng.choice(t0) for c in p.cells.get(zero_level, [])}}
        ok = True
        for lv in one_levels:
            d = lv[1][0]
            table = {}
            for c in p.cells[lv]:
                s_img = maps[zero_level][p.face(c, d, "s").name]
                t_img = maps[zero_level][p.face(c, d, "t").name]
                candidates = indexes[lv].get((s_img, t_img), [])
                if not candidates:
                    ok = False
                    break
                table[c.name] = rng.choice(candidates)
            if not ok:
                break
            maps[lv] = table
        if ok:
            return maps
    raise ModelError("no face-compatible random assignment found within the retry limit")


def random_assignment(
    p: CubicalSetPresentation, table: StrictCategoryTable, rng, name: str = ""
) -> GeneratorAssignment:
    """A random face-compatible generator assignment into a strict table."""
    q = table.underlying
    maps = _random_cell_maps(p, q, rng)
    return GeneratorAssignment(p, table, maps, name=name or "random-assignment")


def random_set_morphism(
    p: CubicalSetPresentation, q: CubicalSetPresentation, rng, name: str = ""
) -> SetMorphism:
    """A random face-compatible morphism between presentations."""
    maps = _random_cell_maps(p, q, rng)
    return SetMorphism(p, q, maps, name=name or "random-morphism")
