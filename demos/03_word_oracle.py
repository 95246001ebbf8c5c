"""Cross-examine the congruence closure with reduced words.

At dimension one the word problem has a classical answer: normalize to
a reduced word (units dropped, double duals cancelled, duals pushed
onto letters).  That gives an independent oracle.  The sweep below
plays every unordered pair of enumerated terms against it; a single
disagreement in either direction would be a bug in one of the two
implementations.
"""

import random

from omegacube import (
    TruncationConfig,
    as_strict_table,
    enumerate_free_magma,
    normal_form_dim1,
    oracle_compare,
    rewrite_normalize,
    truncated_free_involutive_category,
    two_generator_quiver,
    validate_involutive,
    validate_strict,
    word_of_reduced,
)

cfg = TruncationConfig(max_dim=1, dir_universe=1, term_depth=5)
quiver = two_generator_quiver(cfg)

b_universe = enumerate_free_magma(quiver, 3)
builder = b_universe.builder
print("direct normal forms versus random rewriting:")
rng = random.Random(0)
for t in b_universe.level(1, (1,))[:6]:
    direct = normal_form_dim1(t)
    rewritten = word_of_reduced(rewrite_normalize(builder, t, rng))
    marker = "ok" if direct == rewritten else "MISMATCH"
    print(f"  {t.text:40s} -> {str(direct):8s} [{marker}]")

trunc = truncated_free_involutive_category(quiver, max_len=3)
view = as_strict_table(trunc)
print(f"\ntruncated word category: {len(trunc.arrows)} arrows")
for report in (validate_strict(view), validate_involutive(view)):
    print(f"  {report.summary()}")

sweep = oracle_compare(quiver, depth=5, size_cap=6, max_side_size=13)
print("\nfull sweep against the oracle:")
print(f"  universe: {sweep.universe_size} terms, pairs compared: {sweep.pairs}")
print(f"  equal: {sweep.equal_pairs}, distinct: {sweep.not_equal_pairs}, "
      f"unknown: {sweep.unknown_pairs}")
print(f"  contradictions: {len(sweep.contradictions)}, "
      f"missed identifications: {len(sweep.incomplete)}")
print(f"  verdict: {'clean' if sweep.ok else 'DISAGREEMENT'}")
