"""Grow filler cells over the word problem, stage by stage.

Whenever the closure identifies two parallel cells, the contraction
promises an explicit cell one dimension up connecting them, with the
diagonal collapsing to a degeneracy.  The build walks dimensions
bottom-up: identify at dimension n, then mint fillers at n+1, then
re-close.  Validation re-derives the expected filler domain from
scratch and checks boundaries, transverse faces, degeneracy, and the
projection law for every minted cell.
"""

from omegacube import (
    TruncationConfig,
    build_free_contraction,
    two_generator_quiver,
    unit_eta,
    validate_contraction,
    validate_morphism,
)

cfg = TruncationConfig(max_dim=2, dir_universe=2, term_depth=3)
quiver = two_generator_quiver(cfg)
data = build_free_contraction(quiver, depth=2)

print("stages:")
for stage in data.stages:
    print(f"  dim {stage.dim}: universe {stage.universe_size} terms, "
          f"{stage.kappa_added} fillers minted")

print(f"\nfiller table ({len(data.kappa)} cells), a few entries:")
for key in sorted(data.kappa)[:4]:
    d, xn, yn = key
    x, y = data.builder.terms[xn], data.builder.terms[yn]
    print(f"  kappa[{d}]({x.text}, {y.text}) = {data.kappa[key].text}")

print("\n" + validate_contraction(data).summary())
eta = unit_eta(data)
print("unit " + validate_morphism(eta).summary())

classes = data.session.classes(data.universe.level(1, (1,)))
print(f"\nquotient at level 1/1: {len(classes)} classes")
