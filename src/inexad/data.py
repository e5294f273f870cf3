"""Dataset ingestion, preprocessing, split protocol, and the synthetic generator.

Weakly labeled training/validation groups are built by planting exactly
one anomalous instance among otherwise normal instances.  Test data
keeps exact labels (singleton groups).
"""

import csv as _csv
import math
from array import array
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .network import ShapeError, check_path, integer, sequence


class DataError(ValueError):
    """Raised for malformed input files or infeasible split requests."""


# Label cells (stripped, lower-cased) that load_csv reads as anomalous or normal.
ANOMALY_VALUES = frozenset({"anomaly", "anomalous", "1", "1.0", "true", "yes"})
NORMAL_VALUES = frozenset({"normal", "0", "0.0", "false", "no"})


@dataclass
class Dataset:
    X: np.ndarray  # (n, D) float64
    is_anomaly: np.ndarray  # (n,) bool
    name: str = "dataset"
    feature_names: list = field(default_factory=list)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.is_anomaly = np.asarray(self.is_anomaly, dtype=bool)
        if self.X.shape[0] != self.is_anomaly.shape[0]:
            raise DataError(
                f"{self.X.shape[0]} rows but {self.is_anomaly.shape[0]} labels"
            )

    @property
    def n(self):
        return self.X.shape[0]


@dataclass
class SplitSpec:
    """Row indices of one train/val/test split, each field an np.intp array.

    train_sets and val_sets are (n_sets, set_size) matrices: row k holds
    set k's members, its planted anomaly in column 0.
    """

    train_normals: np.ndarray
    val_normals: np.ndarray
    test_normals: np.ndarray
    train_sets: np.ndarray
    val_sets: np.ndarray
    test_anomalies: np.ndarray


def _parse_label(raw, row_num):
    val = raw.strip().lower()
    if val in ANOMALY_VALUES:
        return True
    if val in NORMAL_VALUES:
        return False
    raise DataError(f"row {row_num}: unknown label value {raw!r}")


def load_csv(path, label_column="label"):
    """Read a numeric CSV with one label column into a Dataset named str(path).

    path is a str, bytes or os.PathLike, else a DataError: a number would
    be read, and closed, as a file descriptor.  label_column is a header
    name or a 0-based column index.  A header row is
    detected by attempting to parse the first row's attribute cells as
    numbers.  The file is read as UTF-8, with or without a byte-order
    mark; blank lines are skipped.

    Rows are streamed: each row's feature cells go straight into one
    float64 buffer that becomes X, so no row's text outlives its turn.
    Row numbers in error messages are the file's line numbers.  A bad
    row fails at once, but a non-finite cell is reported only after
    every row has parsed.
    """
    path = check_path("path", path, DataError)
    if not isinstance(label_column, str):  # else a column index
        label_column = integer("label_column", label_column, 0, DataError)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = _csv.reader(fh)
        try:
            return _read_csv(reader, path, label_column)
        except UnicodeDecodeError as exc:
            # exc.start counts from the decoder's current chunk, not the file
            raise DataError(f"{path} is not UTF-8 text: {exc.reason} "
                            f"{exc.object[exc.start:exc.end]!r}") from None
        except _csv.Error as exc:  # e.g. a cell over the csv module's field size limit
            raise DataError(f"{path}, row {reader.line_num}: {exc}") from None


def _read_csv(reader, path, label_column):
    rows = filter(None, reader)  # a blank line reads as []
    first = next(rows, None)
    if first is None:
        raise DataError(f"{path}: no data rows")
    width = len(first)
    if width < 2:
        raise DataError(f"{path} has no feature column: its rows hold one cell")

    header = None
    try:
        for j, cell in enumerate(first):
            if j != label_column:
                float(cell)
    except ValueError:
        header = [c.strip() for c in first]
    row = first if header is None else next(rows, None)
    if row is None:
        raise DataError(f"{path}: header only, no data rows")

    if isinstance(label_column, str):
        if header is None:
            raise DataError(
                f"label_column {label_column!r} requested by name but "
                f"{path} has no header row"
            )
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DataError(
                f"label_column {label_column!r} not found in header {header}"
            ) from None
    else:
        label_idx = label_column
        if not 0 <= label_idx < width:
            raise DataError(f"label_column index {label_idx} out of range")

    values, flags = array("d"), []
    non_finite = None  # (line, column, cell) of the first non-finite cell
    for row in chain([row], rows):
        line = reader.line_num
        if len(row) != width:
            raise DataError(f"row {line}: expected {width} cells, got {len(row)}")
        label = row.pop(label_idx)  # feature k is now file column k + (k >= label_idx)
        try:
            feats = list(map(float, row))
        except ValueError:
            for k, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(f"row {line}, column {k + (k >= label_idx)}: "
                                    f"non-numeric cell {cell!r}") from None
        # a non-finite sum flags a non-finite cell (or, rarely, overflow)
        if non_finite is None and not math.isfinite(sum(feats)):
            k = next((k for k, v in enumerate(feats) if not math.isfinite(v)), None)
            if k is not None:
                non_finite = (line, k + (k >= label_idx), row[k])
        values.fromlist(feats)
        flags.append(_parse_label(label, line))

    if non_finite is not None:
        line, j, cell = non_finite
        raise DataError(f"row {line}, column {j}: non-finite cell {cell!r}")

    feature_names = []
    if header is not None:
        feature_names = [h for j, h in enumerate(header) if j != label_idx]
    X = np.frombuffer(values).reshape(len(flags), width - 1)
    return Dataset(X=X, is_anomaly=np.array(flags),
                   name=str(path), feature_names=feature_names)


def preprocess(ds):
    """Min-max scale each attribute to [0, 1], then drop exact duplicate rows.

    Scaling statistics come from the whole dataset; constant and NaN
    columns map to zero.  The scaled copy is made once and scaled in
    place.  Duplicates are bitwise-equal rows after scaling; the first
    occurrence is kept.
    """
    if ds.n < 2:
        raise DataError(f"need at least 2 rows to preprocess, got {ds.n}")
    lo = ds.X.min(axis=0)
    hi = ds.X.max(axis=0)
    span = hi - lo
    varies = span > 0  # False for constant and NaN columns
    scaled = np.subtract(ds.X, lo)
    scaled /= np.where(varies, span, 1.0)
    scaled[:, ~varies] = 0.0
    _, keep = np.unique(scaled, axis=0, return_index=True)
    keep = np.sort(keep)
    return Dataset(X=scaled[keep], is_anomaly=ds.is_anomaly[keep],
                   name=ds.name, feature_names=list(ds.feature_names))


def _anomaly_pool(pool, is_anomaly):
    """pool as an np.intp array; DataError unless it is a sequence, naming its
    first entry that is not a distinct anomaly's row index."""
    seen = {}  # the checked indices, in pool order
    for k, entry in enumerate(sequence("set_anomaly_pool", pool, DataError)):
        idx = integer(f"set_anomaly_pool[{k}]", entry, 0, DataError)
        if idx >= len(is_anomaly):
            problem = f"is out of range for {len(is_anomaly)} rows"
        elif not is_anomaly[idx]:
            problem = "is not an anomaly"
        elif idx in seen:
            problem = "repeats an earlier entry"
        else:
            seen[idx] = None
            continue
        raise DataError(f"set_anomaly_pool[{k}] = {idx} {problem}")
    return np.fromiter(seen, dtype=np.intp, count=len(seen))


def make_splits(ds, rng, n_train_sets=10, n_val_sets=5, set_size=5,
                set_anomaly_pool=None):
    """Build a 70/15/15 normal split plus planted weakly labeled sets.

    Each train/val set gets one distinct anomaly and set_size-1 normals
    taken out of that split's normal pool.  Anomalies not planted in any
    set become exact test anomalies.  set_anomaly_pool optionally
    restricts which anomaly indices may be planted in train/val sets;
    DataError names its first entry that is not an integer, out of range,
    not an anomaly, or a repeat.  The sizes must be integers, at least 1
    (n_train_sets at least 0); DataError names the first that is not.
    """
    n_train_sets = integer("n_train_sets", n_train_sets, 0, DataError)
    n_val_sets = integer("n_val_sets", n_val_sets, 1, DataError)
    set_size = integer("set_size", set_size, 1, DataError)
    normal_idx = np.flatnonzero(~ds.is_anomaly)
    anomaly_idx = np.flatnonzero(ds.is_anomaly)
    eligible = (anomaly_idx if set_anomaly_pool is None
                else _anomaly_pool(set_anomaly_pool, ds.is_anomaly))

    n_sets = n_train_sets + n_val_sets
    if eligible.size < n_sets or anomaly_idx.size < n_sets + 1:
        raise DataError(
            f"need at least {n_sets} eligible anomalies for sets plus one for "
            f"test; have {eligible.size} eligible of {anomaly_idx.size} total"
        )

    n_norm = normal_idx.size
    n_tr = int(round(0.70 * n_norm))
    n_va = int(round(0.15 * n_norm))
    need_norm = (n_train_sets + n_val_sets) * (set_size - 1)
    if n_tr <= n_train_sets * (set_size - 1) or n_va <= n_val_sets * (set_size - 1):
        raise DataError(
            f"normal pools too small: train {n_tr}, val {n_va}, but sets "
            f"consume {need_norm} normals in total"
        )

    perm = rng.permutation(normal_idx)
    set_anoms = rng.permutation(eligible)[:n_sets]

    def build_sets(anoms, pool):
        """Each anomaly with the next set_size-1 normals taken off the end of
        pool; returns (sets, what is left of pool)."""
        left = len(pool) - len(anoms) * (set_size - 1)
        taken = pool[left:][::-1].reshape(len(anoms), set_size - 1)
        return np.column_stack([anoms, taken]), pool[:left]

    train_sets, train_normals = build_sets(set_anoms[:n_train_sets], perm[:n_tr])
    val_sets, val_normals = build_sets(set_anoms[n_train_sets:], perm[n_tr:n_tr + n_va])
    unplanted = ds.is_anomaly.copy()  # not np.setdiff1d, which imports numpy.ma
    unplanted[set_anoms] = False
    return SplitSpec(
        train_normals=train_normals,
        val_normals=val_normals,
        test_normals=perm[n_tr + n_va:],
        train_sets=train_sets,
        val_sets=val_sets,
        test_anomalies=np.flatnonzero(unplanted),
    )


# Synthetic two-dimensional mixture: two unit-variance normal modes at
# (+-2, 0); anomalies from a tight cluster at (0, -1.5) seen at train
# time inside weak sets, and a spread-out cloud at (0, 3) that appears
# only in the test data.  The cloud's std trades off overlap with the
# normal modes; much larger values push the best attainable test AUC
# below what reconstruction-error methods are known to reach here.
SYNTH_NORMAL_MEANS = ((-2.0, 0.0), (2.0, 0.0))
SYNTH_ANOM_TRAIN_MEAN = (0.0, -1.5)
SYNTH_ANOM_TRAIN_STD = 0.35
SYNTH_ANOM_TEST_MEAN = (0.0, 3.0)
SYNTH_ANOM_TEST_STD = 0.8
SYNTH_N_NORMAL = 500
SYNTH_N_ANOM = 200


def gen_synthetic(rng):
    """Draw the 2-d mixture dataset and split it; returns (Dataset, SplitSpec).

    The wide-variance anomaly component is excluded from the weakly
    labeled train/val sets, so it is only ever seen in the test data.
    """
    per_mode = SYNTH_N_NORMAL // 2
    per_comp = SYNTH_N_ANOM // 2
    blocks = [
        rng.normal(loc=m, scale=1.0, size=(per_mode, 2))
        for m in SYNTH_NORMAL_MEANS
    ]
    blocks.append(rng.normal(loc=SYNTH_ANOM_TRAIN_MEAN,
                             scale=SYNTH_ANOM_TRAIN_STD, size=(per_comp, 2)))
    blocks.append(rng.normal(loc=SYNTH_ANOM_TEST_MEAN,
                             scale=SYNTH_ANOM_TEST_STD, size=(per_comp, 2)))
    X = np.vstack(blocks)
    flags = np.zeros(X.shape[0], dtype=bool)
    flags[SYNTH_N_NORMAL:] = True
    ds = Dataset(X=X, is_anomaly=flags, name="synthetic",
                 feature_names=["x1", "x2"])
    trainable_anoms = np.arange(SYNTH_N_NORMAL, SYNTH_N_NORMAL + per_comp)
    split = make_splits(ds, rng, set_anomaly_pool=trainable_anoms)
    return ds, split


@dataclass
class TrainData:
    """Weakly labeled sets and normals: the one set format of training,
    validation and the objective.

    The sets are stored once: set_rows stacks every set's members in set
    order, and set k is the next lengths[k] of its rows.  set_rows and
    normals are 2-d and of one width; normals need a row, set_rows none.
    """

    set_rows: np.ndarray  # (sum of lengths, D)
    lengths: np.ndarray  # (n_sets,) int, each at least 1
    normals: np.ndarray  # (n, D)

    def __post_init__(self):
        self.set_rows = np.asarray(self.set_rows, dtype=np.float64)
        lengths = np.asarray(self.lengths)
        if lengths.ndim != 1 or (lengths.size and lengths.dtype.kind not in "iu"):
            raise DataError(f"lengths must be a 1-d sequence of integers, got {self.lengths!r}")
        self.lengths = lengths.astype(np.intp, copy=False)
        self.normals = np.asarray(self.normals, dtype=np.float64)
        for name in ("set_rows", "normals"):
            if getattr(self, name).ndim != 2:
                raise ShapeError(f"{name} must be 2-d, got {getattr(self, name).ndim}-d")
        if self.set_rows.shape[1] != self.normals.shape[1]:
            raise ShapeError(f"set rows have {self.set_rows.shape[1]} features but "
                             f"normals have {self.normals.shape[1]}")
        if not len(self.normals):
            raise DataError("normals must have at least one row")
        empty = np.flatnonzero(self.lengths < 1)
        if empty.size:
            raise DataError(f"set {empty[0]} is empty")
        if self.lengths.sum() != len(self.set_rows):
            raise DataError(f"set lengths sum to {self.lengths.sum()} but there are "
                            f"{len(self.set_rows)} set rows")


@dataclass
class TestData:
    anomalies: np.ndarray  # (m, D)
    normals: np.ndarray  # (n, D)


def materialize(ds, split):
    """Resolve a SplitSpec into instance arrays: (train, val, test)."""
    def weak(sets, normals):
        return TrainData(set_rows=ds.X[sets.ravel()],
                         lengths=np.full(len(sets), sets.shape[1]),
                         normals=ds.X[normals])

    test = TestData(anomalies=ds.X[split.test_anomalies], normals=ds.X[split.test_normals])
    return (weak(split.train_sets, split.train_normals),
            weak(split.val_sets, split.val_normals), test)
