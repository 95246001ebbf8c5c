"""Cross-examine the congruence closure with reduced words.

At dimension one the word problem has a classical answer: normalize to
a reduced word (units dropped, double duals cancelled, duals pushed
onto letters).  That gives an independent oracle.  The sweep below
decides every unordered pair of enumerated terms with decide_equal and
plays each verdict against it; a single disagreement in either
direction would be a bug in one of the two implementations.
"""

from omegacube import (
    TruncationConfig,
    as_strict_table,
    oracle_compare,
    truncated_free_involutive_category,
    two_generator_quiver,
    validate_involutive,
    validate_strict,
)

cfg = TruncationConfig(max_dim=1, dir_universe=1, term_depth=5)
quiver = two_generator_quiver(cfg)

trunc = truncated_free_involutive_category(quiver, max_len=3)
view = as_strict_table(trunc)
print(f"truncated word category: {len(trunc.arrows)} arrows")
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
