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

Every function here that takes weakly labeled sets takes them as a
data.TrainData: each set's members are rows of one stacked matrix, and
a set is a run of rows given by its length.  make_batches draws each
epoch's minibatches as indices, set ids and normal row ids, and the
kernel copies the rows they name into one step buffer.

train() and grid_search() share one training kernel that advances
several models ("members") together.  Members share the initialisation
and the minibatch stream, since both are seeded from rng_seed, and
differ only in lambda, so every pass runs all of them on the same rows
with batched matmuls, which give each member the bits of the 2-d call.
Each member's results therefore equal, bit for bit, those of training
it alone with the public allocating functions (mode_objective,
validation_metric) and the tests' own reference gradient and Adam.
objective_grad runs a training step's passes (_step_grad) on a
one-model stack, so the gradient it returns is the one training
follows.

After each epoch's steps the kernel evaluates every member: it scores
all train and validation rows, then computes the exact objective and
the validation metrics, on a copy of the parameters in a second stack
that the next epoch's steps never touch, and collects it after them.
When a CPU is spare (see _overlap_pays) it runs on a helper thread
alongside those steps, else on the caller's when collected; it makes
the same single-threaded numpy and BLAS calls either way, so the
results do not change.
"""

import functools
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .metrics import empirical_auc, segment_max, segment_starts
from .network import ACTIVATIONS, ShapeError, _sigmoid_into, check_batch
from .scorer import (
    DEFAULT_CODE,
    DEFAULT_HIDDEN,
    AutoencoderParams,
    AutoencoderStack,
    ae_from_vector,
    ae_init,
    carve,
    score_batch,
)

MODES = ("proposed", "ae", "mil", "sae")

DEFAULT_LAMBDA_GRID = (0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3)

# The most members one kernel call trains; longer grids run in groups of
# at most this many, so memory does not grow with the grid's length.
_MAX_MEMBERS = 8

# Multiply-adds of one epoch's evaluation (see _evaluation_work) below
# which handing it to a helper thread costs more than it saves.  On two
# CPUs with BLAS on one thread, trainings whose evaluation was 2.0-2.3 M
# ran 18-29 % slower with the helper, 4.1-4.4 M between 6 % faster and
# 9 % slower, and 6.1-43 M 5-32 % faster.
_MIN_OVERLAP_WORK = 6_000_000


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
    hidden_dim: int = DEFAULT_HIDDEN
    code_dim: int = DEFAULT_CODE
    activation: str = "relu"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}, "
                             f"expected one of {ACTIVATIONS}")
        if isinstance(self.lambda_grid, (str, bytes)) or not hasattr(self.lambda_grid, "__len__"):
            raise ValueError(f"lambda_grid takes a sequence of numbers, got {self.lambda_grid!r}")
        if not len(self.lambda_grid):
            raise ValueError("lambda_grid must be nonempty")
        # stored as floats, which %g file names, ==, json.dump and Adam's in-place steps need
        self.lam = _float("lam", self.lam)
        self.lambda_grid = tuple(_float("lambda_grid", lam) for lam in self.lambda_grid)
        for lam in (self.lam, *self.lambda_grid):
            # a set sign bit (-0) would print apart from the 0 it trains as
            if not (math.isfinite(lam) and math.copysign(1, lam) > 0):
                raise ValueError(f"lambda must be finite and nonnegative, not -0, got {lam}")
        for name in ("learning_rate", "adam_eps"):
            value = _float(name, getattr(self, name))
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
            setattr(self, name, value)
        for name in ("adam_beta1", "adam_beta2"):
            value = _float(name, getattr(self, name))
            if not 0 <= value < 1:
                raise ValueError(f"{name} must be a number in [0, 1), got {value!r}")
            setattr(self, name, value)
        for name, low in (("batch_sets", 1), ("batch_normals", 1), ("max_epochs", 0),
                          ("rng_seed", 0), ("hidden_dim", 1), ("code_dim", 1)):
            value = getattr(self, name)
            if not (_is_number(value, numbers.Integral) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.patience is not None and not (
                _is_number(self.patience, numbers.Integral) and self.patience >= 1):
            raise ValueError(f"patience must be an integer >= 1 or None, got {self.patience!r}")


def _is_number(value, kind=numbers.Real):
    """Whether value is a number of the given kind other than a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _float(name, value):
    """value as a float; a ValueError naming the setting unless a float can hold it."""
    if not _is_number(value):
        raise ValueError(f"{name} takes numbers, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float, got {value!r}") from None


@dataclass
class TrainResult:
    best_params: AutoencoderParams
    best_val_metric: float
    history: list  # of (epoch, train_objective, val_metric)
    stopped_epoch: int
    chosen_lambda: float = None
    best_epoch: int = 0
    # "patience" when early stopping ended training, "non-finite" when the
    # next epoch's steps overflowed the Adam state, else "max_epochs"
    stop_reason: str = "max_epochs"


# each mode's validation metric, named as its history file's column
VAL_METRIC = {"proposed": "val_set_auc", "mil": "val_set_auc",
              "ae": "val_auc", "sae": "val_auc"}


def _is_plain(mode, lam):
    """True when the objective is the mean normal score alone, so no set row is scored."""
    return mode == "ae" or (mode in ("proposed", "sae") and lam == 0)


def _set_starts(metric, lengths):
    """Where each set starts in the stacked set rows, if the VAL_METRIC value takes set maxima."""
    return segment_starts(lengths) if metric == "val_set_auc" else None


def _objective(mode, lams, a_n, set_scores, lengths, take=np.empty, grad=None):
    """Exact objective of each model from its scores; leading axes index models.

    a_n scores the normals and set_scores the stacked set rows, set k
    having lengths[k] rows; lengths is None when the objective is plain.
    lams holds each model's lambda.  take(size) gives the flat scratch
    of size entries that the ranking term's pairwise sigmoid is built in
    (a new array by default; AutoencoderStack.spare lends its pool).

    Given grad, an (a, J + R) array for a models' J normal and R set
    scores, it also writes d objective / d score there.  The gradient of
    a set's max flows entirely through its first argmax row; the sigmoid
    contributes s*(1-s) per ranking pair.
    """
    first = a_n.mean(axis=-1)
    j = a_n.shape[-1]
    if lengths is None:
        if grad is not None:
            grad[:] = 1.0 / j
        return first
    starts = _set_starts(VAL_METRIC[mode], lengths)
    ref = set_scores if starts is None else segment_max(set_scores, starts)
    shape = ref.shape + (j,)
    s, scratch = carve(take(2 * math.prod(shape)), shape, shape)
    np.subtract(ref[..., :, None], a_n[..., None, :], out=s)
    pair_mean = _sigmoid_into(s, s, scratch).mean(axis=(-2, -1))
    if grad is not None:
        a, k = ref.shape
        s *= np.subtract(1.0, s, out=scratch)
        coeff = ((np.ones(a) if mode == "mil" else lams) / (k * j))[:, None]
        np.multiply(coeff, s.sum(axis=1), out=grad[:, :j])
        if mode != "mil":
            grad[:, :j] += 1.0 / j
        per_ref = s.sum(axis=2)
        per_ref *= -coeff
        if starts is None:
            grad[:, j:] = per_ref
        else:
            grad[:, j:] = 0.0
            grad[np.arange(a)[:, None],
                 j + _first_argmax(set_scores, ref, starts, lengths)] = per_ref
    return -pair_mean if mode == "mil" else first - lams * pair_mean


def mode_objective(mode, params, data, lam):
    """Exact objective of one mode over a TrainData's sets and normals."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    a_n = score_batch(params, data.normals)
    if _is_plain(mode, lam):
        return float(_objective(mode, lam, a_n, None, None))
    if not len(data.lengths):
        raise ValueError(f"mode {mode!r} needs at least one weakly labeled set")
    return float(_objective(mode, lam, a_n, score_batch(params, data.set_rows), data.lengths))


def _first_argmax(scores, maxima, starts, lengths):
    """Index of each segment's first maximal entry, as np.argmax gives it.

    A segment holding a NaN has NaN as its maximum and its first NaN as
    the argmax.
    """
    hit = scores == np.repeat(maxima, lengths, axis=-1)
    hit |= np.isnan(scores)
    index = np.where(hit, np.arange(scores.shape[-1]), scores.shape[-1])
    return np.minimum.reduceat(index, starts, axis=-1)


def objective_grad(params, batch, lam, mode="proposed"):
    """Exact gradient of the objective over a TrainData batch, laid out like
    params.theta: a training step's _step_grad on a one-model stack."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    normals = check_batch(batch.normals, params.input_dim)  # TrainData gives set_rows this width
    j = normals.shape[0]
    if _is_plain(mode, lam):
        X, lengths = normals, None
    elif not len(batch.lengths):
        raise ValueError(f"mode {mode!r} needs a nonempty set batch")
    else:
        X, lengths = np.concatenate([normals, batch.set_rows]), batch.lengths
    stack = AutoencoderStack(params, 1)
    _step_grad(stack, mode, np.array([lam], dtype=np.float64), X, j, lengths,
               np.empty(2 * len(X)))
    return stack.grad[0]


def _step_grad(stack, mode, lams, X, j, lengths, buf):
    """stack.grad[:a] = the gradient of each of the a = len(lams) leading
    members' objectives over the rows X: j normals, then the sets of the
    given lengths (None when the objective is plain).  buf is a flat
    scratch of at least 2 * a * len(X)."""
    shape = (len(lams), len(X))
    scores, upstream = carve(buf, shape, shape)
    stack.forward(len(lams), X, scores)
    _objective(mode, lams, scores[:, :j], scores[:, j:], lengths, stack.spare, upstream)
    stack.backward(len(lams), X, upstream)


def _adam_update(theta, grad, m, v, t, config, tmp, denom):
    """One bias-corrected Adam step at step count t, in place on theta, m and v.

    tmp and denom are scratch arrays shaped like theta.  Each expression
    keeps the operation order of the textbook update, so the result is
    bit-identical to evaluating it with temporaries.  t must be a Python
    int: a numpy integer exponent would change the bias correction's bits.
    """
    b1, b2 = config.adam_beta1, config.adam_beta2
    m *= b1
    m += np.multiply(1 - b1, grad, out=tmp)
    v *= b2
    np.multiply(1 - b2, grad, out=tmp)
    tmp *= grad
    v += tmp
    np.divide(m, 1 - b1 ** t, out=tmp)
    tmp *= config.learning_rate
    np.divide(v, 1 - b2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += config.adam_eps
    tmp /= denom
    theta -= tmp


def make_batches(n_sets, n_normals, config, rng):
    """One epoch of batches as (set ids, normal row ids): sets partitioned by
    shuffling, normals resampled.

    Sets are split into ceil(n_sets/batch_sets) chunks without replacement
    (last chunk may be short); each batch independently draws
    batch_normals normal rows uniformly with replacement.
    """
    if n_sets == 0:
        order = [np.array([], dtype=int)]
    else:
        perm = rng.permutation(n_sets)
        order = [perm[i:i + config.batch_sets]
                 for i in range(0, n_sets, config.batch_sets)]
    return [(chunk, rng.integers(0, n_normals, size=config.batch_normals))
            for chunk in order]


def _epoch_rows(lengths, starts, batches):
    """The stacked set rows in the order an epoch's batches take them.

    Returns (rows, lens, cuts): set ids in batch order have lengths lens,
    and the sets at positions p..q of that order take rows[cuts[p]:cuts[q]].
    """
    order = np.concatenate([ids for ids, _ in batches])
    lens = lengths[order]
    cuts = np.zeros(len(order) + 1, dtype=np.intp)
    np.cumsum(lens, out=cuts[1:])
    rows = np.repeat(starts[order] - cuts[:-1], lens)
    rows += np.arange(cuts[-1])
    return rows, lens, cuts


def _metric(normal_scores, set_scores, starts):
    """The validation metric from one model's scores on the normals and the stacked
    set rows: the set-level AUC given the sets' starts, else the plain AUC."""
    if starts is not None:
        set_scores = segment_max(set_scores, starts)
    return empirical_auc(set_scores, normal_scores)


def validation_metric(mode, params, data):
    """Model-selection metric on a TrainData of validation sets and normals.

    Modes that understand weak labels (proposed, mil) use the set-level
    AUC; ae and sae score every set member as an individual anomaly and
    use the plain AUC, matching how those baselines are tuned.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if not len(data.lengths):
        raise ValueError("validation needs at least one weakly labeled set")
    return _metric(score_batch(params, data.normals), score_batch(params, data.set_rows),
                   _set_starts(VAL_METRIC[mode], data.lengths))


def _usable_cpus():
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _evaluation_work(dims, count, rows):
    """Multiply-adds of scoring `rows` rows with `count` members: the size of one
    epoch's evaluation, as _overlap_pays weighs it."""
    return count * rows * sum(i * o for i, o in zip(dims[:-1], dims[1:]))


def _overlap_pays(work):
    """Whether an evaluation of `work` multiply-adds should run on a helper
    thread while the next epoch's steps run on the caller's.

    Only when a CPU is spare: the evaluation is large enough to pay for
    the handoff, the process may run on at least two CPUs, and the
    loaded BLAS runs one thread (an unknown count counts as more).
    Callers that already keep every CPU busy, such as harness pool
    workers, ask the kernel not to overlap instead.
    """
    if work < _MIN_OVERLAP_WORK or _usable_cpus() < 2:
        return False
    from . import blas  # imported here: ctypes is not needed at import time

    return blas.num_threads() == 1


def _train_members(train_data, val_data, config, lams, tracks=None, overlap=None):
    """Train one model per value in lams, in lockstep.

    Every setting but lam comes from config.  All members score the same
    rows, so either every lam makes the objective plain or none does.
    tracks names the validation metrics (VAL_METRIC values) to stop on,
    by default config.mode's.  Each member keeps, per track, its own
    TrainResult, which each epoch's evaluation, from epoch 0's of the
    initialisation on, is booked in as it is decided (history, best
    metric, epoch and snapshot, early stopping, and a stop at the epoch
    before the steps that overflowed the member's Adam state); a member
    whose tracks have all stopped is swapped behind the active ones, and
    passes run on the leading rows only.  Returns those TrainResults as one list
    per track, in lams order.

    Each epoch's evaluation (scoring every train and validation row, the
    exact objective and every track's metric) reads a copy of the
    parameters in a second stack, so it can run while the next epoch's
    steps update the first; it is collected after them.  With overlap it
    runs on a helper thread that lives for this call; without, on the
    calling thread when collected; None leaves the choice to
    _overlap_pays.  Either way a member that stops at epoch e has
    already taken epoch e + 1's steps, which are discarded: a member's
    bits do not depend on which others share the stack.
    """
    mode = config.mode
    tracks = tracks or (VAL_METRIC[mode],)
    plain = _is_plain(mode, lams[0])
    normals, lengths = train_data.normals, train_data.lengths
    if not plain and not len(lengths):
        raise ValueError(f"mode {mode!r} requires training sets")
    if not len(val_data.lengths):
        raise ValueError("validation data needs at least one set")
    if val_data.normals.shape[1] != normals.shape[1]:
        raise ShapeError(f"validation data has {val_data.normals.shape[1]} features but "
                         f"training data has {normals.shape[1]}")

    init = ae_init(normals.shape[1], config.rng_seed,
                   hidden=config.hidden_dim, code=config.code_dim,
                   activation=config.activation)
    count = len(lams)
    val_normals, val_rows = val_data.normals, val_data.set_rows
    val_starts = [_set_starts(track, val_data.lengths) for track in tracks]
    set_rows = train_data.set_rows
    row_starts = segment_starts(lengths)  # where each set's rows begin

    batch_set_rows = 0 if plain else int(np.sort(lengths)[-config.batch_sets:].sum())
    step_rows = config.batch_normals + batch_set_rows
    stack = AutoencoderStack(init, count)
    theta, grad = stack.theta, stack.grad
    # the evaluation's copy of the parameters, with a pool of its own
    ev = AutoencoderStack(init, count)
    adam_m, adam_v = np.zeros_like(theta), np.zeros_like(theta)
    normal_scores = np.empty((count, len(normals)))
    set_scores = None if plain else np.empty((count, len(set_rows)))
    val_normal_scores = np.empty((count, len(val_normals)))
    val_set_scores = np.empty((count, len(val_rows)))
    step_x = np.empty((step_rows, normals.shape[1]))
    step_buf = np.empty(2 * count * step_rows)

    slots = list(range(count))  # the member in each row of the stacked arrays
    slot_lams = np.array(lams, dtype=np.float64)
    # per track, one run per member (not per slot); stopped_epoch is None while it runs
    runs = [[TrainResult(best_params=ae_from_vector(init.theta.copy(), init.dims,
                                                    activation=config.activation),
                         best_val_metric=-math.inf, history=[], stopped_epoch=None,
                         chosen_lambda=lam, stop_reason=None)
             for lam in lams] for _ in tracks]

    def evaluate(lams_now):
        """(objective, [metric per track]) of each of ev's leading len(lams_now) members."""
        a = len(lams_now)
        ev.scores(a, normals, normal_scores[:a])
        if not plain:
            ev.scores(a, set_rows, set_scores[:a])
        ev.scores(a, val_normals, val_normal_scores[:a])
        ev.scores(a, val_rows, val_set_scores[:a])
        return [(float(_objective(mode, lam, normal_scores[s], None if plain else set_scores[s],
                                  None if plain else lengths, ev.spare)),
                 [_metric(val_normal_scores[s], val_set_scores[s], starts)
                  for starts in val_starts])
                for s, lam in enumerate(lams_now)]

    def record(epoch, pending):
        """Book one epoch's evaluation (pending() gives evaluate's result) in
        the runs still going; returns the slots whose tracks have all
        stopped, in descending order."""
        results = pending()
        leaving = []
        for s in range(len(results) - 1, -1, -1):
            m = slots[s]
            obj, metrics = results[s]
            # the steps that made the Adam state non-finite came after this
            # evaluation's copy, so it is the member's last booked epoch
            finite = np.isfinite(adam_v[s]).all()
            for track, metric in zip(runs, metrics):
                run = track[m]
                if run.stopped_epoch is not None:
                    continue
                run.history.append((epoch, obj, metric))
                if metric >= run.best_val_metric:
                    if metric > run.best_val_metric:
                        run.best_val_metric, run.best_epoch = metric, epoch
                    # equally good on validation: keep the most-trained snapshot
                    # (patience still counts from the last strict improvement)
                    run.best_params.theta[:] = ev.theta[s]
                if not finite:
                    run.stopped_epoch, run.stop_reason = epoch, "non-finite"
                elif epoch - run.best_epoch >= patience:
                    run.stopped_epoch, run.stop_reason = epoch, "patience"
                elif epoch == config.max_epochs:
                    run.stopped_epoch, run.stop_reason = epoch, "max_epochs"
            if all(track[m].stopped_epoch is not None for track in runs):
                leaving.append(s)
        return leaving

    if overlap is None:
        overlap = _overlap_pays(_evaluation_work(init.dims, count, len(normals) + len(val_normals)
                                                 + len(val_rows) + (0 if plain else len(set_rows))))
    helper = None
    if overlap:
        # imported here: at module level it adds to `import inexad`
        from concurrent.futures import ThreadPoolExecutor

        helper = ThreadPoolExecutor(1, thread_name_prefix="inexad-evaluation")
    rng = np.random.default_rng(config.rng_seed)
    patience = math.inf if config.patience is None else config.patience
    active, t, pending = count, 0, None
    try:
        for epoch in range(config.max_epochs + 1):  # epoch 0 evaluates the initialisation
            batches = make_batches(len(lengths), len(normals), config, rng) if epoch else ()
            if batches and not plain:
                rows, lens, cuts = _epoch_rows(lengths, row_starts, batches)
            p = 0  # position of the batch's first set in the epoch's set order
            for set_ids, normal_ids in batches:
                j = len(normal_ids)
                # the indices are in range, and "clip" copies straight into out
                np.take(normals, normal_ids, axis=0, out=step_x[:j], mode="clip")
                if plain:
                    X, batch_lens = step_x[:j], None
                else:
                    q = p + len(set_ids)
                    X = step_x[:j + cuts[q] - cuts[p]]
                    np.take(set_rows, rows[cuts[p]:cuts[q]], axis=0, out=X[j:], mode="clip")
                    batch_lens, p = lens[p:q], q
                _step_grad(stack, mode, slot_lams[:active], X, j, batch_lens, step_buf)
                t += 1
                _adam_update(theta[:active], grad[:active], adam_m[:active],
                             adam_v[:active], t, config,
                             *carve(stack.spare(2 * theta[:active].size),
                                    *[theta[:active].shape] * 2))
            if pending is not None:
                for s in record(epoch - 1, pending):
                    # leave the stack: swap behind the members still training
                    active -= 1
                    for arr in (theta, adam_m, adam_v, slot_lams):
                        arr[[s, active]] = arr[[active, s]]
                    slots[s], slots[active] = slots[active], slots[s]
                if active == 0:
                    break  # this epoch's steps are discarded
            ev.theta[:active] = theta[:active]
            pending = functools.partial(evaluate, slot_lams[:active].tolist())
            pending = helper.submit(pending).result if helper else pending
        else:
            record(config.max_epochs, pending)
    finally:
        if helper is not None:
            helper.shutdown()
    return runs


def train(train_data, val_data, config):
    """Minibatch-train an autoencoder scorer with early stopping.

    train_data and val_data are data.TrainData: the stacked set rows
    with each set's length, and the normal rows.  After every epoch the
    validation metric is evaluated and the best parameter snapshot is
    tracked; training stops at max_epochs or after `patience` epochs
    without improvement.
    The recorded train objective is the exact full-data value, not the
    minibatch estimate.  This is the training kernel with one member.
    """
    return _train_members(train_data, val_data, config, [config.lam])[0][0]


def _lambda_groups(mode, lams):
    """(plain, indices into lams) of each group the training kernel trains together.

    Members must score the same rows, so plain values and the others form
    separate groups, plain first, each split into chunks of at most _MAX_MEMBERS.
    """
    groups = []
    for plain in (True, False):
        group = [i for i, lam in enumerate(lams) if _is_plain(mode, lam) == plain]
        groups += [(plain, group[s:s + _MAX_MEMBERS]) for s in range(0, len(group), _MAX_MEMBERS)]
    return groups


def grid_search(train_data, val_data, config):
    """Train once per lambda_grid value; returns [(lam, TrainResult), ...] in grid order."""
    grid = config.lambda_grid
    results = [None] * len(grid)
    for _, group in _lambda_groups(config.mode, grid):
        trained = _train_members(train_data, val_data, config, [grid[i] for i in group])[0]
        for i, result in zip(group, trained):
            results[i] = result
    return list(zip(grid, results))


def best_of_grid(results):
    """The TrainResult with the highest validation metric; the first in grid order wins ties."""
    return max(results, key=lambda item: item[1].best_val_metric)[1]
