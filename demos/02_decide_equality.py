"""Decide whether two formally different expressions denote one cell.

Free terms over a quiver are compared under the full relation set:
units, associativity, functoriality of degeneracies, the exchange law,
and the involution axioms.  The decision procedure is three-valued and
honest: Equal comes with a replayable merge trace, NotEqual comes with
a separating evaluation, and anything else stays Unknown.
"""

from omegacube import (
    CongruenceSession,
    TruncationConfig,
    decide_equal,
    enumerate_free_magma,
    render_trace,
    two_generator_quiver,
    word_separator,
)

cfg = TruncationConfig(max_dim=2, dir_universe=2, term_depth=3)
quiver = two_generator_quiver(cfg)
universe = enumerate_free_magma(quiver, depth=3)
print(f"universe: {universe.size} terms, per level {universe.counts()}")

session = CongruenceSession(universe).saturate_over_classes()
print(f"saturated: {session.stats()}")

b = universe.builder
f = next(t for t in universe.level(1, (1,)) if t.text == "gen(f)")
g = next(t for t in universe.level(1, (1,)) if t.text == "gen(g)")
a = next(t for t in universe.level(0, ()) if t.text == "gen(a)")
separator = word_separator(quiver)

pairs = [
    (b.comp(1, f, b.refl(1, a)), f),
    (b.dual(1, b.comp(1, g, f)), b.comp(1, b.dual(1, f), b.dual(1, g))),
    (f, g),
    (b.refl(2, f), b.refl(2, g)),
]
for left, right in pairs:
    decision = decide_equal(session, left, right, [separator])
    print(f"\n{left.text}  vs  {right.text}\n  -> {decision.verdict}")
    if decision.verdict == "equal":
        for step in render_trace(b, decision.witness["trace"]):
            print(f"     {step['left']} = {step['right']}  [{step['by']}]")
    elif decision.verdict == "not-equal":
        w = decision.witness
        print(f"     separated in {w['target']}: {w['left_value']} vs {w['right_value']}")
    else:
        print("     no merge found and no separating assignment applies")
