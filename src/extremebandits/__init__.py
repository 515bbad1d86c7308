"""Minimum-cost bandits: simulation, oracles, and hard-instance analysis.

The package revolves around one quantity: the expected minimum of the costs
a sequential policy has collected after t pulls. It provides exact and
Monte Carlo evaluation of that curve, oracle baselines to compare against,
a time-to-match regret clock, constructions of arm tuples on which every
policy stays slow, and numerical checks of the inequalities behind those
constructions.
"""

from .construction import (
    AlphaSequence,
    BAssignment,
    ConstructedTuple,
    PropertyReport,
    all_assignments,
    build_mixture,
    build_tuple,
    c_factor,
    canonical_alpha,
    canonical_sequence,
    desk_sequence,
    horizon_T,
    horizon_Tprime,
    log_horizon_T,
    log_horizon_Tprime,
    sample_b,
    sequence_from_record,
    sequence_to_record,
    sibling_tuples,
    user_sequence,
    validate_alpha_sequence,
)
from .distributions import (
    Distribution,
    expected_min,
    expected_min_capped,
    extreme_quantile_prob,
    from_record,
    icdf,
    make_discrete,
    make_discrete_from_logs,
    point_mass,
    sample,
    survival,
    to_record,
    uniform01,
)
from .engine import (
    MinCurve,
    RegretReport,
    StreamResult,
    Trace,
    crossing_time,
    estimate_min_curve,
    exact_min_curve,
    extreme_regret,
    parallel_map,
    run_trajectory,
    stream_curve,
    worker_count,
)
from .errors import (
    BudgetExceeded,
    ConfigInvalid,
    ContinuousArm,
    ExtremeBanditsError,
    HorizonOverflow,
    IndexTooLarge,
    IoFailure,
    NonNormalized,
    NotContinuous,
    OutOfRange,
    PropertyViolation,
    UnknownPolicy,
)
from .oracles import (
    OracleResult,
    ScanResult,
    best_arm_scan,
    greedy_oracle_step,
    greedy_oracle_value,
    optimal_oracle_value,
    single_armed_oracle,
    two_point_commit_value,
)
from .policies import (
    EpsGreedyMinPolicy,
    FixedArmPolicy,
    Policy,
    PolicyState,
    QuantileThresholdPolicy,
    RoundRobinPolicy,
    SequenceThenArmPolicy,
    TablePolicy,
    UniformRandomPolicy,
    baseline,
    enumerate_tables,
    make_policy,
    table_from_record,
)
from .reporting import VERSION as __version__
from .rng import RngStream, TrialStreams, generator_for, uniform_block
from .verification import (
    ALL_CHECKS,
    CheckReport,
    check_beta_law,
    check_corollary9,
    check_lemma5,
    check_lemma6,
    check_lemma7_8,
    check_lemma10,
    check_lemma11,
    demonstrate_theorem1,
    lemma10_margin,
    run_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
