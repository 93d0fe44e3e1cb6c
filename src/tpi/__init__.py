"""Third-order symmetric tensor power iteration for overcomplete
decompositions, with sample-initialized mixture learning and
distributional checks of the iteration's dynamics."""

from ._version import __version__
from .container import load_matrix, load_tensor, save_matrix, save_tensor
from .decompose import (
    ClusterConfig,
    DecompositionResult,
    MatchReport,
    decompose,
    learn_multiview,
    match_and_score,
)
from .errors import DegenerateIterateError, InvalidArgumentError, ResourceBudgetError
from .experiments import (
    ExperimentConfig,
    RunReport,
    load_config,
    load_run,
    render_report,
    run_experiment,
    run_generate,
)
from .models import (
    MixtureModel,
    SampleBatch,
    SampleTensor3,
    SnrReport,
    SphericalGmm,
    empirical_third_moment,
    gmm_modified_moment,
    gmm_population_modified_moment,
    population_third_moment,
    sample_gmm,
    sample_multiview,
    snr,
)
from .power import (
    IterationTrace,
    PowerConfig,
    default_max_iters,
    power_step,
    run_power,
    run_power_asymmetric,
    run_power_with_shadow,
)
from .probes import (
    ConstraintChain,
    check_conditioning_lemma,
    check_fresh_randomness,
    check_gmm_moment,
    check_iterative_conditioning,
    check_mixed_norm_bound,
    quadratic_progress_ok,
    star_norm,
)
from .rng import stream, thread_count
from .tensors import (
    DenseTensor3,
    FactoredTensor3,
    PerturbedTensor,
    contract_1,
    contract_scalar,
    densify,
    random_components,
    scale_noise_to,
    spectral_norm_estimate,
    symmetrize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
