"""One property for every setting given from outside: each value is either
stored as the documented type or rejected by a ValueError that names the
setting.

The settings are those of TrainConfig, ExperimentConfig, make_splits (its
pool too), load_csv, AutoencoderParams, ae_init and cli_parse.  Each is
tried with every value in HOSTILE and with random numbers, strings and
bytes.  The rules below are the documented ones, spelled apart from the
package's checks: an integer setting takes a real number, not a bool, of
integral value (5, np.int64(5), 5.0, Fraction(10, 2)) and stores an int;
a real setting takes a real number, not a bool, that a float can hold,
and stores a float.  A constructor that returns no stored value
(make_splits, load_csv) must give exactly what it gives for the int.
"""

import contextlib
import io
import math
import numbers
import os
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inexad import scorer
from inexad.cli import cli_parse
from inexad.data import DataError, Dataset, load_csv, make_splits
from inexad.harness import ExperimentConfig
from inexad.network import ShapeError, param_count
from inexad.scorer import AutoencoderParams, ae_init
from inexad.training import ACTIVATIONS, MODES, TrainConfig

# Every setting is tried with each of these; the integral ones include the
# small column and row indices that load_csv and make_splits can take.
HOSTILE = [
    True, False, np.True_, np.False_, "5", "1", "", "0.1", b"1", b"",
    Fraction(10, 2), Fraction(1, 2), Fraction(10**400, 3), Decimal(5), Decimal("0.5"),
    np.int64(2), np.uint8(5), np.int64(-1), np.float32(2.5), np.float32(2.0), np.float64(5.0),
    np.float64(-0.0),
    np.array(5), np.array(2.0), np.array([5]), np.array([2.0]), np.array([]),
    math.nan, math.inf, -math.inf, -0.0, 0.0, 10**400, -10**400, 1e300,
    0, 1, 2, 5, -1, 1.0, 2.0, 1.5, 2.5, -1.0, None, (), [],
]
RANDOM = st.one_of(st.integers(), st.floats(), st.fractions(), st.text(max_size=4),
                   st.binary(max_size=4))


class Rejected(Exception):
    """What a rule expects of a value it rejects: error's type and, in its
    message, the setting's name and the given text."""

    def __init__(self, name, text="", error=ValueError):
        super().__init__(name, text, error)
        self.name, self.text, self.error = name, text, error


def _number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_integer(name, value, low, error=ValueError):
    """The integer rule: value as an int, or Rejected."""
    whole = None
    if _number(value):
        if isinstance(value, numbers.Integral):
            whole = int(value)
        elif isinstance(value, numbers.Rational):
            whole = int(value) if value.denominator == 1 else None
        elif math.isfinite(value) and float(value).is_integer():
            whole = int(value)
    if whole is None or whole < low:
        raise Rejected(name, f"{name} must be an integer >= {low}, got {value!r}", error)
    return whole


# The smallest magnitude that rounds past the largest float, 2**1024 - 2**971
FLOAT_LIMIT = 2**1024 - 2**970


def as_real(name, value):
    """The real rule: value as a float, or Rejected."""
    if not _number(value):
        raise Rejected(name, f"{name} takes numbers")
    if isinstance(value, numbers.Rational) and abs(value) >= FLOAT_LIMIT:
        raise Rejected(name, f"{name} is too large for a float")
    return float(value)


def as_entries(name, value, error=ValueError):
    """The sequence rule: value's entries, or Rejected."""
    if isinstance(value, np.ndarray) and value.ndim == 1 or (
            isinstance(value, Sequence) and not isinstance(value, (str, bytes))):
        return list(value)
    raise Rejected(name, f"{name} takes a sequence", error)


def as_path(name, value, error=ValueError):
    if not isinstance(value, (str, bytes, os.PathLike)):
        raise Rejected(name, f"{name} takes a file path, got {value!r}", error)
    return os.fsdecode(value)


def as_choice(name, value, options):
    if not (isinstance(value, str) and value in options):
        raise Rejected(name, f"unknown {name}")
    return value


def _rejects(rule, call, value):
    with pytest.raises(rule.error) as caught:
        call(value)
    assert rule.name in str(caught.value) and rule.text in str(caught.value)


def holds(build, expect, value):
    """build(value) stores what expect(value) gives, of the same type, or both reject alike."""
    try:
        want = expect(value)
    except Rejected as rule:
        return _rejects(rule, build, value)
    got = build(value)
    assert type(got) is type(want) and got == want
    if isinstance(want, (tuple, list)):
        assert [type(v) for v in got] == [type(v) for v in want]


def agrees(call, expect, value):
    """call(value) gives what call(expect(value)) gives, equal results or equal
    DataErrors, or both reject alike: for calls that store nothing."""
    def outcome(v):
        try:
            return call(v)
        except DataError as exc:
            return f"DataError: {exc}"

    try:
        canonical = expect(value)
    except Rejected as rule:
        return _rejects(rule, call, value)
    assert outcome(value) == outcome(canonical)


# --- TrainConfig ---

def _train(name):
    return lambda value: getattr(TrainConfig(**{name: value}), name)


def _lambda(name, value):
    lam = as_real(name, value)
    if not (math.isfinite(lam) and math.copysign(1, lam) > 0):
        raise Rejected(name, f"finite and nonnegative, not -0, got {lam}")
    return lam


def _within(name, ok):
    def expect(value):
        number = as_real(name, value)
        if not ok(number):
            raise Rejected(name)
        return number
    return expect


def _grid(value):
    lams = tuple(_lambda("lambda_grid", lam) for lam in as_entries("lambda_grid", value))
    if not lams:
        raise Rejected("lambda_grid", "nonempty")
    return lams


SETTINGS = {
    **{name: (_train(name), lambda v, name=name, low=low: as_integer(name, v, low))
       for name, low in (("batch_sets", 1), ("batch_normals", 1), ("max_epochs", 0),
                         ("rng_seed", 0), ("hidden_dim", 1), ("code_dim", 1))},
    "patience": (_train("patience"),
                 lambda v: None if v is None else as_integer("patience", v, 1)),
    "lam": (_train("lam"), lambda v: _lambda("lam", v)),
    "lambda_grid": (_train("lambda_grid"), _grid),
    "lambda_grid-entry": (lambda v: TrainConfig(lambda_grid=(1.0, v)).lambda_grid,
                          lambda v: _grid((1.0, v))),
    **{name: (_train(name), _within(name, lambda x: math.isfinite(x) and x > 0))
       for name in ("learning_rate", "adam_eps")},
    **{name: (_train(name), _within(name, lambda x: 0 <= x < 1))
       for name in ("adam_beta1", "adam_beta2")},
    "mode": (_train("mode"), lambda v: as_choice("mode", v, MODES)),
    "activation": (_train("activation"), lambda v: as_choice("activation", v, ACTIVATIONS)),
}


# --- ExperimentConfig ---

def _experiment(name, **given):
    return lambda value: getattr(ExperimentConfig(**given, **{name: value}), name)


def _modes(value):
    modes = tuple(as_choice("modes", m, MODES) for m in as_entries("modes", value))
    if not modes:
        raise Rejected("modes", "modes must name at least one mode")
    if len(set(modes)) < len(modes):
        raise Rejected("modes", "is given more than once")
    return modes


def _train_config(value):
    if not isinstance(value, TrainConfig):
        raise Rejected("train_config")
    return value


SETTINGS.update({
    "n_repeats": (_experiment("n_repeats"), lambda v: as_integer("n_repeats", v, 1)),
    "seed": (_experiment("seed"), lambda v: as_integer("seed", v, 0)),
    "csv_path": (_experiment("csv_path"),
                 lambda v: None if v is None else as_path("csv_path", v)),
    "out_dir": (_experiment("out_dir"), lambda v: as_path("out_dir", v)),
    "label_col": (_experiment("label_col", csv_path="d.csv"),
                  lambda v: v if isinstance(v, str) else as_integer("label_col", v, 0)),
    "modes": (_experiment("modes"), _modes),
    "modes-entry": (lambda v: ExperimentConfig(modes=("ae", v)).modes,
                    lambda v: _modes(("ae", v))),
    "train_config": (_experiment("train_config"), _train_config),
})


# --- make_splits: 30 anomalies at rows 0-29, then 200 normals ---

_TOY = Dataset(X=np.random.default_rng(0).normal(size=(230, 2)),
               is_anomaly=np.arange(230) < 30)
_POOL = list(range(10, 28))  # distinct anomalies, enough for every set


def _split(**kw):
    split = make_splits(_TOY, np.random.default_rng(1), **kw)
    return [getattr(split, f).tolist() for f in vars(split)]


def _pool(pool):
    """The pool rule: None, or a sequence of integers >= 0 (which make_splits
    then checks against the data)."""
    if pool is None:
        return None
    return [as_integer(f"set_anomaly_pool[{k}]", e, 0, DataError)
            for k, e in enumerate(as_entries("set_anomaly_pool", pool, DataError))]


SPLIT_CHECKS = {
    **{name: (lambda v, name=name: _split(**{name: v}),
              lambda v, name=name, low=low: as_integer(name, v, low, DataError))
       for name, low in (("n_train_sets", 0), ("n_val_sets", 1), ("set_size", 1))},
    "set_anomaly_pool": (lambda v: _split(set_anomaly_pool=v), _pool),
    "set_anomaly_pool-entry": (lambda v: _split(set_anomaly_pool=_POOL + [v]),
                               lambda v: _pool(_POOL + [v])[-1]),
}


# --- load_csv: a headed three-column file; the label is column 2 ---

@pytest.fixture(scope="module")
def table(tmp_path_factory):
    path = tmp_path_factory.mktemp("settings") / "table.csv"
    path.write_text("a,b,label\n1,2,0\n3,4,1\n5,6,0\n")
    return path


def _loaded(path, label_column="label"):
    ds = load_csv(path, label_column)
    return ds.X.tolist(), ds.is_anomaly.tolist(), ds.feature_names


def _label_column(table, value):
    agrees(lambda v: _loaded(table, v),
           lambda v: v if isinstance(v, str) else as_integer("label_column", v, 0, DataError),
           value)


def _csv_path(table, value):
    try:
        as_path("path", value, DataError)
    except Rejected:
        return holds(_loaded, lambda v: as_path("path", v, DataError), value)
    # a path, relative to a directory that holds only the table: it is read,
    # or the DataError says why it cannot be
    cwd = os.getcwd()
    os.chdir(table.parent)
    try:
        with contextlib.suppress(DataError):
            _loaded(value)
    finally:
        os.chdir(cwd)


# --- AutoencoderParams ---

def _model(dims):
    """AutoencoderParams over dims, with a zero theta when dims make a small model."""
    try:
        chain = [as_integer("dims", d, 1) for d in as_entries("dims", dims)]
        size = param_count(chain) if max(chain, default=0) <= 100 else 0
    except Rejected:
        size = 0
    return AutoencoderParams(dims, np.zeros(size)).dims


def _chain(value):
    chain = [as_integer(f"dims[{i}]", d, 1, ShapeError)
             for i, d in enumerate(as_entries("dims", value, ShapeError))]
    if len(chain) < 3 or len(chain) % 2 == 0 or chain[0] != chain[-1]:
        raise Rejected("dims", "odd number", ShapeError)
    if max(chain) > 100:  # no theta was made for it: the layout rejects the empty one
        raise Rejected("dims", "dims need", ShapeError)
    return chain


SETTINGS.update({
    "dims": (_model, _chain),
    "dims-entry": (lambda v: _model([3, v, 3]), lambda v: _chain([3, v, 3])),
    "model-activation": (
        lambda v: AutoencoderParams([1, 1, 1], np.zeros(4), activation=v).activation,
        lambda v: as_choice("activation", v, ACTIVATIONS)),
})


# --- ae_init: a width above 100 is checked, but its layers, which could fill
# the memory, are not drawn: init_params is stopped and the widths kept ---

class _Widths(Exception):
    """The layer widths init_params was given, raised in its place."""


def _stop(layer_dims, rng_seed):
    raise _Widths(layer_dims)


def _ae_width(name, index):
    """ae_init's width setting name, as the model's dims[index] keeps it."""
    def build(value):
        kw = {"input_dim": 2, "rng_seed": 0, "hidden": 2, "code": 1, name: value}
        if not (_number(value) and value > 100):
            return ae_init(**kw).dims[index]
        with mock.patch.object(scorer, "init_params", _stop):
            try:
                ae_init(**kw)
            except _Widths as stopped:
                return stopped.args[0][index]
    return build


def _ae_theta(seed):
    return ae_init(2, seed, hidden=1, code=1).theta.tolist()


SETTINGS.update({
    **{f"ae_init-{name}": (_ae_width(name, index),
                           lambda v, name=name: as_integer(name, v, 1, ShapeError))
       for index, name in enumerate(("input_dim", "hidden", "code"))},
    "ae_init-rng_seed": (_ae_theta, lambda v: _ae_theta(as_integer("rng_seed", v, 0))),
})


# --- cli_parse: the flag's text parses as argparse's type, then as the library setting ---

CLI = {"--repeats": ("n_repeats", int), "--seed": ("seed", int),
       "--epochs": ("max_epochs", int), "--patience": ("patience", int),
       "--lambda": ("lambda_grid", lambda text: (float(text),)),
       "--lambda-grid": ("lambda_grid", lambda text: tuple(map(float, text.split(","))))}


def _cli(flag):
    name, parse = CLI[flag]

    def check(value):
        text = str(value)
        config = dict(n_repeats=10, seed=0)
        train = {}
        try:
            parsed = parse(text)
        except ValueError:
            expected = f"argument {flag}: invalid"
        else:
            (config if name in config else train)[name] = parsed
            try:
                expected = ExperimentConfig(train_config=TrainConfig(**train), **config)
            except ValueError as exc:
                expected = str(exc)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                got = cli_parse([f"{flag}={text}"])
            except SystemExit as exc:
                assert exc.code == 2 and isinstance(expected, str)
                assert expected in err.getvalue()
                return
        assert not isinstance(expected, str), expected
        assert (got.n_repeats, got.seed, got.train_config) \
            == (expected.n_repeats, expected.seed, expected.train_config)
    return check


def _hostile_examples(test):
    for value in reversed(HOSTILE):
        test = example(value=value)(test)
    return test


CHECKS = {
    **{key: (lambda value, build=build, expect=expect: holds(build, expect, value))
       for key, (build, expect) in SETTINGS.items()},
    **{key: (lambda value, call=call, expect=expect: agrees(call, expect, value))
       for key, (call, expect) in SPLIT_CHECKS.items()},
    **{flag: _cli(flag) for flag in CLI},
}
FILE_CHECKS = {"label_column": _label_column, "path": _csv_path}  # these read the table


@pytest.mark.parametrize("setting", [*CHECKS, *FILE_CHECKS])
@settings(max_examples=10, deadline=None)
@given(value=RANDOM)
@_hostile_examples
def test_setting_is_stored_or_named_in_a_value_error(setting, value, table):
    if setting in FILE_CHECKS:
        FILE_CHECKS[setting](table, value)
    else:
        CHECKS[setting](value)
