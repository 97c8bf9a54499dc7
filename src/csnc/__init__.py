"""csnc: a compressive-sensing joint source-channel-network coding lab.

Submodules:
    mathcore     seeded random matrices and singular values
    sources      doubly sparse ensembles and dictionaries
    precoder     temporal projection and on-off spatial pre-coding
    netsim       topology incidences, transfer matrices, AWGN transmission
    lasso        certified homotopy solver and two-stage decode
    re_analysis  restricted-eigenvalue estimation and cascade checks
    harness      end-to-end trials, budget calibration, sweeps, exports
    cli          the `csnc` command-line tool
"""

from .mathcore import (
    Seed,
    gaussian_matrix,
    matrix_rank,
    min_singular_value,
    rademacher_matrix,
)
from .sources import (
    DictionaryPair,
    SourceEnsemble,
    SparsityProfile,
    generate_ensemble,
    make_dictionary,
    make_dictionary_pair,
    verify_assumption,
)
from .precoder import (
    draw_onoff,
    make_projection,
    temporal_project,
)
from .netsim import (
    TransferMatrix,
    build_example_topology,
    derive_transfer_matrix,
    direct_transfer_matrix,
    network_uses,
    transmit,
)
from .lasso import (
    DecodeResult,
    LassoProblem,
    LassoSolution,
    decode_all,
    decode_spatial,
    decode_temporal,
    default_xi,
    kkt_check,
    solve_lasso,
)
from .re_analysis import (
    ConeSpec,
    REEstimate,
    cascade_check,
    constant_c,
    error_bound,
    estimate_re,
    sample_cone_vectors,
)
from .harness import (
    BudgetPlan,
    CalibrationError,
    ExperimentConfig,
    Trial,
    TrialRecord,
    build_trial,
    calibrate_c,
    decode_trial,
    direct_recovery_trial,
    export_results,
    load_config,
    naive_baseline,
    run_trial,
    run_trials,
    save_config,
    sweep,
    theorem_budget,
)

__version__ = "0.1.0"
