"""Learnable rate matrices and score-based reversal for continuous-time
Markov chains over finite state spaces."""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig, load_config, parse_config_text
from .core import (
    FactorizedRateMatrix,
    NoiseSchedule,
    ProductDistribution,
    evolve_rows,
    kernel_rows,
    kl_divergence,
    transition_kernel,
)
from .data import Dataset, load_dataset, synthetic_ground_truth
from .errors import (
    BridgeError,
    CheckpointError,
    ConfigError,
    DegenerateStateError,
    DivergenceError,
    UnsolvableSupportError,
    VocabularyOverflowError,
)
from .evaluation import ElboReport, elbo_estimate, kl_term
from .matrix_learning import init_rate_matrices, jq_grad, matrix_learning_loop, predict_terminal
from .sampler import estimate_mu, generate
from .score_learning import (
    ScoreBatch,
    ScoreModel,
    make_score_batch,
    oracle_ratio_fn,
    score_entropy_values,
    score_learning_loop,
    score_loss_and_grad,
)
from .solver import estimate_marginals, exact_rate_matrices, permutation_from_data
from .training import restore, train

__version__ = "0.1.0"
