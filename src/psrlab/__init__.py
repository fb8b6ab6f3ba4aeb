"""Confidence-bound learning of predictive state representations on tabular
sequential decision problems, with exact desk-scale evaluation tooling."""

from .errors import (
    DegenerateHistory,
    EmptyFeasibleSet,
    EnumerationCapExceeded,
    PsrLabError,
    RejectionBudgetExhausted,
    SingularCoreTests,
    StructuralError,
)
from .spaces import Future, History, ObsActSpace
from .policies import (
    CompositePolicy,
    DeterministicTreePolicy,
    Policy,
    UniformActionSeqPolicy,
    uniform_policy,
)
from .psr import CoreTestSet, PsrModel, check_self_consistency, gamma, hellinger_sq, psr_rank, tv_distance
from .pomdp import (
    GMatrices,
    RewardTable,
    TabularPomdp,
    decodability_alpha,
    default_psr,
    dynamics_matrix,
    g_matrices,
    near_tie,
    pomdp_to_psr,
    random_mdp,
    random_revealing,
    tiger,
)
from .estimation import (
    CandidateSet,
    DatasetFamily,
    conditional_tv_diagnostic,
    constrained_mle,
    log_likelihood,
    make_candidates,
)
from .bonus import (
    BonusEvaluator,
    FeatureGram,
    elliptical_potential_check,
    prefix_grams,
    transfer_score_check,
)
from .planner import plan_on_table
from .online import OnlineConfig, evaluate_output, run_psr_ucb
from .offline import (
    OfflineConfig,
    collect_offline,
    coverage_coefficient,
    ensure_behavior_coverage,
    min_exploration_prob,
    offline_gap,
    run_psr_lcb,
)
from .theory import EnvSummary, resolve_theory_params
from .verify import verify

__all__ = [name for name in dir() if not name.startswith("_")]
