"""Weighted rectangular means of double sequences.

Transforms, growth classification of weight systems, finite-window
oscillation conditions, and a consistency harness for the associated
limit theorems.
"""

from .errors import (
    HorizonError,
    MonotonicityError,
    NonFiniteValueError,
    PrefixOverflowError,
    ResourceLimitError,
    ScalarKindError,
    TauberkitError,
    WeightDomainError,
)
from .sequences import (
    DoubleSequence,
    Grid,
    ScalarKind,
    WeightSequence,
    additive_convergent,
    alternating,
    array_sequence,
    complex_convergent,
    constant,
    corpus_sequence,
    corpus_weight,
    eval_grid,
    geometric,
    harmonic,
    ones,
    paper_unbounded,
    power,
    separable_convergent,
    sequence_names,
    weight_names,
    wobble,
)
from .transform import (
    MeanField,
    export_grid_csv,
    sigma_single,
    weighted_mean_field,
)
from .variation import (
    VariationClass,
    VariationKind,
    classification_report,
    classify,
    classify_adaptive,
    estimate_rv_index,
    lemma23_check,
    ratio_profile,
)
from .oscillation import (
    DecisionProfile,
    LimitEstimate,
    build_window_profiles,
    empirical_limit,
    export_profiles_csv,
    export_samples_csv,
    hardy_stat,
    landau_stat,
    profile_samples,
    sd_field_components,
    window_edge,
    window_functional,
    window_functional_names,
)
from .harness import (
    HarnessConfig,
    LemmaDecomposition,
    ProofInequality,
    TauberianReport,
    Theorem,
    Verdict,
    choose_mu,
    choose_mu_backward,
    lemma_backward,
    lemma_forward,
    lemma_residual_suite,
    proof_inequality_backward,
    proof_inequality_forward,
    report_json,
    verify_theorem,
)

__version__ = "0.1.0"
