"""Training objective, its minibatch gradient, Adam, and the training loop.

The objective being minimized is

    E = mean_j a(n_j) - lambda * mean_{k,j} sigmoid(max_i a(b_ki) - a(n_j))

i.e. drive normal scores down while pushing each weakly labeled set's
best score above the normal scores (a smooth pairwise ranking term).
Four mode variants share the machinery:

    proposed  full objective above
    ae        first term only (plain autoencoder; identical to lambda=0)
    mil       ranking term only, lambda plays no role
    sae       both terms, but every set member is treated as an
              individual anomaly instead of taking the set max
"""

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .metrics import empirical_auc, empirical_inexact_auc
from .network import sigmoid_stable
from .scorer import (
    AutoencoderParams,
    Workspace,
    ae_from_vector,
    ae_init,
    ae_to_vector,
    score_backward,
    score_batch,
    score_forward,
)

MODES = ("proposed", "ae", "mil", "sae")

DEFAULT_LAMBDA_GRID = (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3)


@dataclass
class TrainConfig:
    lam: float = 1.0
    mode: str = "proposed"
    batch_sets: int = 8
    batch_normals: int = 128
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    max_epochs: int = 1000
    patience: int = 100
    rng_seed: int = 0
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    hidden_dim: int = 128
    code_dim: int = 16
    activation: str = "relu"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        for lam in (self.lam, *self.lambda_grid):
            if not (math.isfinite(lam) and lam >= 0):
                raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_sets < 1 or self.batch_normals < 1:
            raise ValueError("batch sizes must be at least 1")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be >= 0, got {self.max_epochs}")
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be >= 1 or None, got {self.patience}")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n):
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)


@dataclass
class TrainResult:
    best_params: AutoencoderParams
    best_val_metric: float
    history: list  # of (epoch, train_objective, val_metric)
    stopped_epoch: int
    chosen_lambda: float = None


def _set_scores(params, sets, workspace=None):
    """Per-set score arrays via one batched forward pass."""
    if not sets:
        return []
    rows = sum(len(s) for s in sets)
    flat = np.concatenate(sets, out=None if workspace is None else workspace.x[:rows])
    scores = score_batch(params, flat, workspace)
    out, pos = [], 0
    for s in sets:
        out.append(scores[pos:pos + len(s)])
        pos += len(s)
    return out


def objective_value(params, sets, normals, lam):
    """Exact objective over the given sets and normals (the 'proposed' form)."""
    return mode_objective("proposed", params, sets, normals, lam)


def mode_objective(mode, params, sets, normals, lam, workspace=None):
    """Exact objective of one mode; a Workspace, if given, holds every row buffer."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    normals = np.asarray(normals, dtype=np.float64)
    if normals.shape[0] == 0:
        raise ValueError("normals must be nonempty")
    a_n = score_batch(params, normals, workspace)
    first = float(a_n.mean())
    if mode == "ae" or (mode == "proposed" and lam == 0):
        return first
    if not sets:
        raise ValueError(f"mode {mode!r} needs at least one weakly labeled set")
    per_set = _set_scores(params, sets, workspace)
    if mode == "sae":
        ref = np.concatenate(per_set)
    else:
        ref = np.array([s.max() for s in per_set])
    pair_mean = float(sigmoid_stable(ref[:, None] - a_n[None, :]).mean())
    if mode == "mil":
        return -pair_mean
    return first - lam * pair_mean


def objective_grad(params, set_batch, normal_batch, lam, mode="proposed",
                   workspace=None):
    """Exact gradient of the batch objective, flattened in ae_to_vector order.

    The gradient of a set's max flows entirely through its first argmax
    member; the sigmoid contributes s*(1-s) per ranking pair.  With a
    Workspace the result is workspace.grad, overwritten by the next call.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    normals = np.asarray(normal_batch, dtype=np.float64)
    if normals.shape[0] == 0:
        raise ValueError("normal batch must be nonempty")
    j = normals.shape[0]

    plain = mode == "ae" or (mode == "proposed" and lam == 0)
    if not plain and not set_batch:
        raise ValueError(f"mode {mode!r} needs a nonempty set batch")
    sets = [np.asarray(s, dtype=np.float64) for s in set_batch] if not plain else []

    if sets:
        rows = j + sum(len(s) for s in sets)
        all_x = np.concatenate([normals] + sets,
                               out=None if workspace is None else workspace.x[:rows])
    else:
        all_x = normals
    scores, tape = score_forward(params, all_x, workspace)
    a_n = scores[:j]
    upstream = np.zeros(all_x.shape[0])

    if plain:
        upstream[:j] = 1.0 / j
    else:
        offsets = np.cumsum([j] + [len(s) for s in sets])
        if mode == "sae":
            a_b = scores[j:]
            t = a_b.size
            ds = _sigmoid_deriv(a_b[:, None] - a_n[None, :])
            coeff = lam / (t * j)
            upstream[:j] = 1.0 / j + coeff * ds.sum(axis=0)
            upstream[j:] = -coeff * ds.sum(axis=1)
        else:
            k = len(sets)
            arg_idx = np.empty(k, dtype=int)
            m = np.empty(k)
            for i in range(k):
                seg = scores[offsets[i]:offsets[i + 1]]
                a = int(np.argmax(seg))
                arg_idx[i] = offsets[i] + a
                m[i] = seg[a]
            ds = _sigmoid_deriv(m[:, None] - a_n[None, :])
            coeff = (1.0 if mode == "mil" else lam) / (k * j)
            upstream[:j] = coeff * ds.sum(axis=0)
            if mode == "proposed":
                upstream[:j] += 1.0 / j
            upstream[arg_idx] = -coeff * ds.sum(axis=1)

    return score_backward(params, tape, upstream, workspace)


def _sigmoid_deriv(z):
    s = sigmoid_stable(z)
    return s * (1.0 - s)


def _adam_update(theta, grad, state, config, scratch):
    """One bias-corrected Adam step, in place on theta and state.

    scratch is a pair of arrays shaped like theta.  Each expression keeps
    the operation order of the textbook update, so the result is
    bit-identical to evaluating it with temporaries.
    """
    b1, b2 = config.adam_beta1, config.adam_beta2
    tmp, denom = scratch
    state.t += 1
    t = int(state.t)  # a numpy integer exponent would change the bias correction's bits
    state.m *= b1
    state.m += np.multiply(1 - b1, grad, out=tmp)
    state.v *= b2
    np.multiply(1 - b2, grad, out=tmp)
    tmp *= grad
    state.v += tmp
    np.divide(state.m, 1 - b1 ** t, out=tmp)
    tmp *= config.learning_rate
    np.divide(state.v, 1 - b2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += config.adam_eps
    tmp /= denom
    theta -= tmp


def _adam_vec(theta, grad, state, config):
    theta = np.array(theta, dtype=np.float64)
    state = AdamState(m=state.m.copy(), v=state.v.copy(), t=state.t)
    _adam_update(theta, grad, state, config,
                 (np.empty_like(theta), np.empty_like(theta)))
    return theta, state


def adam_step(params, grads, state, config):
    """One bias-corrected Adam update.

    params may be an AutoencoderParams (grads given as a flat vector in
    ae_to_vector order) or a plain flat vector.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if isinstance(params, AutoencoderParams):
        theta = ae_to_vector(params)
        if theta.shape != grads.shape:
            raise ValueError(
                f"gradient has {grads.size} entries, parameters have {theta.size}"
            )
        new_theta, new_state = _adam_vec(theta, grads, state, config)
        return (ae_from_vector(new_theta, params.dims,
                               activation=params.activation), new_state)
    theta = np.asarray(params, dtype=np.float64)
    if theta.shape != grads.shape:
        raise ValueError(
            f"gradient shape {grads.shape} != parameter shape {theta.shape}"
        )
    return _adam_vec(theta, grads, state, config)


def make_batches(sets, normals, config, rng):
    """One epoch of batches: sets partitioned by shuffling, normals resampled.

    Sets are split into ceil(len(sets)/batch_sets) chunks without
    replacement (last chunk may be short); each batch independently
    draws batch_normals normals uniformly with replacement.
    """
    normals = np.asarray(normals, dtype=np.float64)
    n_sets = len(sets)
    if n_sets == 0:
        order = [np.array([], dtype=int)]
    else:
        perm = rng.permutation(n_sets)
        order = [perm[i:i + config.batch_sets]
                 for i in range(0, n_sets, config.batch_sets)]
    batches = []
    for chunk in order:
        set_batch = [sets[i] for i in chunk]
        norm_idx = rng.integers(0, normals.shape[0], size=config.batch_normals)
        batches.append((set_batch, normals[norm_idx]))
    return batches


def validation_metric(mode, params, val_sets, val_normals, workspace=None):
    """Model-selection metric on validation data.

    Modes that understand weak labels (proposed, mil) use the set-level
    AUC; ae and sae score every set member as an individual anomaly and
    use the plain AUC, matching how those baselines are tuned.
    """
    n_scores = score_batch(params, np.asarray(val_normals, dtype=np.float64),
                           workspace)
    per_set = _set_scores(params, [np.asarray(s) for s in val_sets], workspace)
    if mode in ("proposed", "mil"):
        return empirical_inexact_auc(per_set, n_scores)
    return empirical_auc(np.concatenate(per_set), n_scores)


def _max_rows(train_data, val_data, config):
    """The most instances any pass of one train() call pushes through the network."""
    set_rows = sorted(len(s) for s in train_data.sets)
    batch_rows = config.batch_normals + sum(set_rows[-config.batch_sets:])
    return max(len(train_data.normals), sum(set_rows), batch_rows,
               len(val_data.normals), sum(len(s) for s in val_data.sets))


def train(train_data, val_data, config):
    """Minibatch-train an autoencoder scorer with early stopping.

    train_data/val_data carry .sets (list of instance arrays) and
    .normals (instance matrix).  After every epoch the validation metric
    is evaluated and the best parameter snapshot is tracked; training
    stops at max_epochs or after `patience` epochs without improvement.
    The recorded train objective is the exact full-data value, not the
    minibatch estimate.

    Every pass writes into one Workspace sized for the largest, and Adam
    updates the flat parameter vector in place, with the layer weights
    as views into it; an epoch allocates no array of instances by layer
    width.
    """
    normals = np.asarray(train_data.normals, dtype=np.float64)
    if normals.shape[0] == 0:
        raise ValueError("training data must contain at least one normal instance")
    sets = [np.asarray(s, dtype=np.float64) for s in train_data.sets]
    needs_sets = not (config.mode == "ae"
                      or (config.mode == "proposed" and config.lam == 0))
    if needs_sets and not sets:
        raise ValueError(f"mode {config.mode!r} requires training sets")
    if not val_data.sets or np.asarray(val_data.normals).shape[0] == 0:
        raise ValueError("validation data needs at least one set and one normal")

    init = ae_init(normals.shape[1], config.rng_seed,
                   hidden=config.hidden_dim, code=config.code_dim,
                   activation=config.activation)
    history = []
    if config.max_epochs == 0:
        return TrainResult(best_params=init, best_val_metric=math.nan,
                           history=history, stopped_epoch=0,
                           chosen_lambda=config.lam)

    dims = init.dims
    theta = ae_to_vector(init)
    params = ae_from_vector(theta, dims, activation=config.activation)
    workspace = Workspace(params, _max_rows(train_data, val_data, config))
    state = AdamState.zeros(theta.size)
    scratch = (np.empty_like(theta), np.empty_like(theta))
    rng = np.random.default_rng(config.rng_seed)

    def evaluate():
        obj = mode_objective(config.mode, params, sets, normals, config.lam,
                             workspace=workspace)
        metric = validation_metric(config.mode, params, val_data.sets,
                                   val_data.normals, workspace=workspace)
        return obj, metric

    obj0, metric0 = evaluate()
    history.append((0, obj0, metric0))
    best_metric, best_theta, best_epoch = metric0, theta.copy(), 0

    patience = config.patience if config.patience is not None else config.max_epochs
    epoch = 0
    for epoch in range(1, config.max_epochs + 1):
        for set_batch, normal_batch in make_batches(sets, normals, config, rng):
            grad = objective_grad(params, set_batch, normal_batch, config.lam,
                                  mode=config.mode, workspace=workspace)
            _adam_update(theta, grad, state, config, scratch)
        obj, metric = evaluate()
        history.append((epoch, obj, metric))
        if metric > best_metric:
            best_metric, best_epoch = metric, epoch
            np.copyto(best_theta, theta)
        elif metric == best_metric:
            # equally good on validation: keep the most-trained snapshot
            # (patience still counts from the last strict improvement)
            np.copyto(best_theta, theta)
        if epoch - best_epoch >= patience:
            break

    return TrainResult(
        best_params=ae_from_vector(best_theta, dims, activation=config.activation),
        best_val_metric=best_metric,
        history=history,
        stopped_epoch=epoch,
        chosen_lambda=config.lam,
    )


def grid_search(train_data, val_data, config):
    """Train once per lambda_grid value; returns [(lam, TrainResult), ...]."""
    if not config.lambda_grid:
        raise ValueError("lambda_grid must be nonempty")
    results = []
    for lam in config.lambda_grid:
        results.append((lam, train(train_data, val_data,
                                   replace(config, lam=float(lam)))))
    return results


def best_of_grid(results):
    """The TrainResult with the highest validation metric; the first in grid order wins ties."""
    return max(results, key=lambda item: item[1].best_val_metric)[1]


def select_lambda(train_data, val_data, config):
    """Grid-search lambda, keeping the best validation metric (ties: first in grid order)."""
    return best_of_grid(grid_search(train_data, val_data, config))


def write_history(path, history):
    """CSV dump of a training history: epoch, train objective, val metric."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_objective", "val_inexact_auc"])
        for epoch, obj, metric in history:
            writer.writerow([epoch, repr(float(obj)), repr(float(metric))])
