"""Anomaly detection from set-level weak labels.

A weak label marks a group of instances as "at least one of these is
anomalous".  This package scores instances by autoencoder
reconstruction error, evaluates with a set-level extension of the AUC,
and trains by minimizing normal scores while maximizing a smooth
surrogate of that set-level AUC.
"""

from .data import (
    Dataset,
    SplitSpec,
    gen_synthetic,
    load_csv,
    make_splits,
    materialize,
    preprocess,
)
from .harness import EvaluationReport, ExperimentConfig, emit_report, run_experiment
from .metrics import (
    RocCurve,
    empirical_auc,
    empirical_inexact_auc,
    roc_curve,
    set_max_scores,
)
from .network import (
    Layer,
    init_params,
    mlp_backward,
    mlp_forward,
    sigmoid_stable,
)
from .scorer import (
    AutoencoderParams,
    ae_init,
    load_params,
    save_params,
    score_batch,
)
from .training import (
    TrainConfig,
    TrainResult,
    make_batches,
    mode_objective,
    objective_grad,
    train,
)

__version__ = "0.1.0"
