"""Recovery of frequency-sparse signals from compressed measurements.

The package fits a small number of off-grid sinusoids directly to
compressed measurements m = Phi @ x by least-squares model fitting: a
grid-plus-Newton single-tone estimator (:mod:`cstones.estimator`) inside a
short cyclic per-component warm-up, then one joint polish of all the
frequencies (:mod:`cstones.recovery`), plus reference baselines and a
reproducible Monte Carlo harness.
"""

from .baselines import bomp_recover, grid_oracle_batch, oracle_ls
from .estimator import (
    EstimateOutcome,
    amplitude_ls,
    build_atoms,
    estimate_sinusoid,
)
from .harness import (
    ExperimentResult,
    ExperimentSpec,
    TrialResult,
    match_frequencies,
    normalized_l2_error,
    run_experiment,
    write_csv,
    write_summary_json,
    write_svg,
)
from .model import (
    FREQ_PRESET,
    SINU_PRESET,
    NoiseSpec,
    SignalModel,
    SinusoidParams,
    add_noise,
    canonical_phase,
    draw_model,
    sinusoid_samples,
    synthesize,
)
from .recovery import RecoveryConfig, RecoveryResult, recover
from .sensing import (
    GAUSSIAN,
    SUBSAMPLING,
    Measurement,
    SensingMatrix,
    gaussian_matrix,
    matrix_from_kind,
    measure,
    subsampling_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "FREQ_PRESET",
    "SINU_PRESET",
    "GAUSSIAN",
    "SUBSAMPLING",
    "SinusoidParams",
    "SignalModel",
    "NoiseSpec",
    "canonical_phase",
    "sinusoid_samples",
    "synthesize",
    "add_noise",
    "draw_model",
    "SensingMatrix",
    "Measurement",
    "gaussian_matrix",
    "subsampling_matrix",
    "matrix_from_kind",
    "measure",
    "EstimateOutcome",
    "build_atoms",
    "amplitude_ls",
    "estimate_sinusoid",
    "RecoveryConfig",
    "RecoveryResult",
    "recover",
    "oracle_ls",
    "grid_oracle_batch",
    "bomp_recover",
    "ExperimentSpec",
    "TrialResult",
    "ExperimentResult",
    "normalized_l2_error",
    "match_frequencies",
    "run_experiment",
    "write_csv",
    "write_summary_json",
    "write_svg",
]
