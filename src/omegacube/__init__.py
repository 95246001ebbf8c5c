"""Finite truncations of involutive cubical higher categories.

The package covers five capabilities: presentations of cubical sets
with validated face tables, free term algebras over them, a congruence
closure deciding the induced word problem with honest three-valued
verdicts, strict involutive models given by finite tables (including
the slotwise product of involutive 1-categories), and free contractions
built stage by stage with certified filler cells.
"""

from .congruence import (
    CongruenceSession,
    Decision,
    FAMILIES,
    RelationInstance,
    audit_congruence,
    decide_equal,
    instantiate_relations,
)
from .contraction import (
    ContractionData,
    ContractionError,
    ContractionMorphism,
    build_free_contraction,
    free_on_morphism,
    unit_eta,
    universe_as_presentation,
    validate_contraction,
    validate_contraction_morphism,
)
from .models import (
    InvolutiveOneCategory,
    ModelError,
    OracleReport,
    Word1,
    as_strict_table,
    build_product,
    cyclic_group_category,
    normal_form_dim1,
    oracle_compare,
    pair_groupoid,
    random_assignment,
    random_set_morphism,
    rich_loop_target,
    truncated_free_involutive_category,
    two_generator_quiver,
    walking_isomorphism,
    word_oracle_sweep,
    word_separator,
)
from .presentation import (
    CellRef,
    CubicalSetPresentation,
    PresentationError,
    SetMorphism,
    TruncationConfig,
    ValidationReport,
    Violation,
    validate_cubical_axioms,
    validate_morphism,
    validate_quiver,
)
from .strict import (
    EvalError,
    Evaluator,
    GeneratorAssignment,
    StrictCategoryTable,
    check_universal_factorization,
    tabular_extension,
    validate_involutive,
    validate_strict,
)
from .term import (
    CompositionMismatch,
    KappaError,
    Term,
    TermBuilder,
    TermError,
    TermParseError,
    TermUniverse,
    check_cubical_on_terms,
    enumerate_free_magma,
    parse_term,
)
from .acceptance import DEFAULT_SEED, brute_force_level_counts, run_all

__version__ = "0.1.0"
