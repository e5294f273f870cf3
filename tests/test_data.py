"""Unit tests for CSV ingestion, preprocessing, splits, and the synthetic generator."""

import csv
import hashlib
import os
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from inexad.data import (
    SYNTH_ANOM_TRAIN_MEAN,
    SYNTH_ANOM_TEST_MEAN,
    SYNTH_N_ANOM,
    SYNTH_N_NORMAL,
    SYNTH_NORMAL_MEANS,
    DataError,
    Dataset,
    SplitSpec,
    TrainData,
    gen_synthetic,
    load_csv,
    make_splits,
    materialize,
    preprocess,
)
from inexad.network import ShapeError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_three_rows(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,anomaly\n3.0,4.0,normal\n5.0,6.0,normal\n")
        ds = load_csv(path, label_column=2)
        assert ds.n == 3
        np.testing.assert_array_equal(ds.is_anomaly, [True, False, False])
        np.testing.assert_array_equal(ds.X[1], [3.0, 4.0])

    def test_header_names(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,1\n3,4,0\n")
        ds = load_csv(path, label_column="label")
        assert ds.feature_names == ["a", "b"]
        np.testing.assert_array_equal(ds.is_anomaly, [True, False])

    def test_numeric_labels_without_header(self, tmp_path):
        path = write(tmp_path, "1,2,0\n3,4,1\n")
        ds = load_csv(path, label_column=2)
        np.testing.assert_array_equal(ds.is_anomaly, [False, True])

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="no data"):
            load_csv(path, label_column=0)

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "a,b,label\n")
        with pytest.raises(DataError, match="no data"):
            load_csv(path, label_column="label")

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,oops,0\n")
        with pytest.raises(DataError, match=r"row 2, column 1"):
            load_csv(path, label_column="label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reports_position(self, tmp_path, cell):
        path = write(tmp_path, f"a,b,label\n1,2,0\n3,{cell},1\n")
        with pytest.raises(DataError, match=r"row 3, column 1: non-finite"):
            load_csv(path, label_column="label")

    def test_non_finite_cell_after_label_column(self, tmp_path):
        path = write(tmp_path, "0,1,2\n1,3,nan\n")
        with pytest.raises(DataError, match=r"row 2, column 2: non-finite cell 'nan'"):
            load_csv(path, label_column=0)

    def test_finite_cells_whose_sum_overflows(self, tmp_path):
        path = write(tmp_path, "1e308,1e308,0\n-1e308,-1e308,1\n")
        np.testing.assert_array_equal(load_csv(path, label_column=2).X,
                                      [[1e308, 1e308], [-1e308, -1e308]])
        path = write(tmp_path, "1e308,1e308,0\n1,-inf,1\n")
        with pytest.raises(DataError, match=r"row 2, column 1: non-finite cell '-inf'"):
            load_csv(path, label_column=2)

    def test_unknown_label_value(self, tmp_path):
        path = write(tmp_path, "1,2,maybe\n")
        with pytest.raises(DataError, match="unknown label"):
            load_csv(path, label_column=2)

    def test_descriptor_is_not_a_path(self):
        # open() would read the number as a file descriptor, and close it
        read_end, write_end = os.pipe()
        try:
            with pytest.raises(DataError, match=f"^path takes a file path, got {read_end}$"):
                load_csv(read_end)
            os.fstat(read_end)  # still open
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(tmp_path / "nope.csv", label_column=0)

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,0\n")
        with pytest.raises(DataError, match="not found"):
            load_csv(path, label_column="target")

    @pytest.mark.parametrize("column", [1.7, float("nan"), float("inf"), None, True, np.True_])
    def test_non_integral_label_column_rejected(self, tmp_path, column):
        # column 1 holds valid labels, so reading it as column 1 would succeed
        path = write(tmp_path, "1,0,1\n3,1,0\n")
        with pytest.raises(DataError, match="label_column must be an integer >= 0"):
            load_csv(path, label_column=column)

    def test_integral_label_column_of_any_number_type(self, tmp_path):
        path = write(tmp_path, "1,0,1\n3,1,0\n")
        want = load_csv(path, label_column=2).is_anomaly
        for column in (2.0, np.int64(2)):
            np.testing.assert_array_equal(load_csv(path, label_column=column).is_anomaly, want)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "1,2,0\n3,1\n")
        with pytest.raises(DataError, match="expected 3 cells"):
            load_csv(path, label_column=2)

    @pytest.mark.parametrize("text, column", [
        ("label\n0\n1\n0\n1\n0\n", "label"),
        ("0\n1\n", 0),
        # raised before any data row is read, so before this bad label
        ("label\nmaybe\n", "label"),
    ])
    def test_no_feature_column(self, tmp_path, text, column):
        # a label column alone would load as an n x 0 X
        path = write(tmp_path, text)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))} has no feature column"):
            load_csv(path, label_column=column)

    def test_header_only_comes_before_label_errors(self, tmp_path):
        path = write(tmp_path, "a,b,label\n\n")
        with pytest.raises(DataError, match="header only"):
            load_csv(path, label_column="target")

    @pytest.mark.parametrize("text, message", [
        # a ragged row, then a non-numeric cell, then an unknown label
        ("1,2,0\n3,oops\n", "row 2: expected 3 cells"),
        ("1,2,0\n3,oops,maybe\n", "row 2, column 1: non-numeric cell 'oops'"),
        # a non-numeric cell in any row before a non-finite cell in an earlier one
        ("1,nan,0\n2,3,1\n4,oops,0\n", "row 3, column 1: non-numeric cell 'oops'"),
        ("1,nan,0\n2,3,maybe\n", "row 2: unknown label value 'maybe'"),
        ("1,2,0\n3,inf,1\n-inf,4,0\n", "row 2, column 1: non-finite cell 'inf'"),
    ])
    def test_error_precedence(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with pytest.raises(DataError, match=message):
            load_csv(path, label_column=2)

    @pytest.mark.parametrize("text, message", [
        ("a,b,label\n1,2,0\n\n3,oops,1\n", "row 4, column 1: non-numeric"),
        ("\na,b,label\n\n1,2,0\n3,4\n", "row 5: expected 3 cells"),
        ("a,b,label\n\n\n1,nan,0\n", "row 4, column 1: non-finite"),
        ("a,b,label\n1,2,0\n\n3,4,maybe\n", "row 4: unknown label"),
    ])
    def test_rows_are_numbered_by_file_line(self, tmp_path, text, message):
        path = write(tmp_path, text)
        with pytest.raises(DataError, match=message):
            load_csv(path, label_column="label")

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,a,b\n0,1,2\n1,3,4\n")
        ds = load_csv(path, label_column="label")
        assert ds.feature_names == ["a", "b"]
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.is_anomaly, [False, True])

    def test_byte_order_mark_before_numbers_keeps_first_row(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,2.0,0\n3,4,1\n")
        ds = load_csv(path, label_column=2)
        assert ds.feature_names == []
        np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])

    def test_bytes_that_are_not_utf8_name_the_path(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b,label\n1,2,0\n3,4,\xe9\n")
        with pytest.raises(DataError, match=r"latin1.csv is not UTF-8 text: .* b'\\xe9'"):
            load_csv(path, label_column="label")

    def test_cell_over_the_field_size_limit_names_the_path_and_row(self, tmp_path):
        path = write(tmp_path, 'a,b,label\n1,2,0\n3,"' + "4" * 200_000 + '",1\n')
        with pytest.raises(DataError, match=r"data.csv, row 3: field larger than field limit"):
            load_csv(path, label_column="label")

    @pytest.mark.parametrize("header", [True, False])
    def test_bits_match_per_row_float_lists(self, tmp_path, header):
        rng = np.random.default_rng(70)
        values = rng.normal(size=(60, 4)) * 10.0 ** rng.integers(-300, 300, size=(60, 4))
        values[0, 0], values[1, 1] = -0.0, 5e-324
        formats = [repr, "{:.6e}".format, "{:.3f}".format, lambda v: f" {v!r} "]
        path = tmp_path / "mixed.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if header:
                writer.writerow(["f0", "f1", "label", "f3", "f4"])
            for i, row in enumerate(values):
                cells = [formats[(i + j) % 4](float(v)) for j, v in enumerate(row)]
                writer.writerow(cells[:2] + [i % 2] + cells[2:])
        ds = load_csv(path, label_column="label" if header else 2)

        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r][header:]
        want = np.array([[float(c) for j, c in enumerate(r) if j != 2] for r in rows])
        assert ds.X.shape == want.shape
        assert ds.X.tobytes() == want.tobytes()
        np.testing.assert_array_equal(ds.is_anomaly, np.arange(60) % 2 == 1)
        assert ds.feature_names == (["f0", "f1", "f3", "f4"] if header else [])

    def test_streaming_peak_memory(self, tmp_path):
        # rows are parsed one at a time into one float64 buffer, so the
        # traced peak stays near X's size instead of holding every cell's text
        rng = np.random.default_rng(71)
        path = tmp_path / "big.csv"
        labels = rng.integers(0, 2, size=5000)
        np.savetxt(path, np.c_[rng.normal(size=(5000, 16)), labels], delimiter=",",
                   fmt=["%.17g"] * 16 + ["%d"],
                   header=",".join([f"f{j}" for j in range(16)] + ["label"]), comments="")
        tracemalloc.start()
        try:
            ds = load_csv(path, label_column="label")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.X.shape == (5000, 16)
        assert peak <= 3 * ds.X.nbytes


class TestPreprocess:
    def test_column_scaling(self):
        ds = Dataset(X=[[2.0], [4.0], [6.0]], is_anomaly=[False, False, True])
        out = preprocess(ds)
        np.testing.assert_array_equal(out.X[:, 0], [0.0, 0.5, 1.0])

    def test_duplicates_removed_keep_first(self):
        ds = Dataset(X=[[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]],
                     is_anomaly=[True, False, False])
        out = preprocess(ds)
        assert out.n == 2
        assert out.is_anomaly[0]  # first occurrence kept its label

    def test_constant_column_maps_to_zero(self):
        ds = Dataset(X=[[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]],
                     is_anomaly=[False] * 3)
        out = preprocess(ds)
        np.testing.assert_array_equal(out.X[:, 0], [0.0, 0.0, 0.0])

    def test_matches_the_three_temporary_formula(self):
        rng = np.random.default_rng(69)
        X = rng.normal(size=(50, 5)) * [1.0, 1e-300, 1e300, 1.0, 1.0]
        X[:, 3] = 7.5  # constant
        X[10, 4] = np.nan  # makes the whole column's min and max NaN
        ds = Dataset(X=X, is_anomaly=rng.integers(0, 2, size=50))
        lo, hi = X.min(axis=0), X.max(axis=0)
        span = hi - lo
        want = np.where(span > 0, (X - lo) / np.where(span > 0, span, 1.0), 0.0)
        out = preprocess(ds)
        assert out.X.tobytes() == want.tobytes()  # no duplicate rows to drop
        np.testing.assert_array_equal(out.X[:, 3:], 0.0)

    def test_min_and_max_exact(self):
        rng = np.random.default_rng(61)
        ds = Dataset(X=rng.normal(size=(40, 3)), is_anomaly=[False] * 40)
        out = preprocess(ds)
        np.testing.assert_array_equal(out.X.min(axis=0), np.zeros(3))
        np.testing.assert_array_equal(out.X.max(axis=0), np.ones(3))

    def test_too_few_rows(self):
        with pytest.raises(DataError, match="at least 2"):
            preprocess(Dataset(X=[[1.0]], is_anomaly=[False]))


def toy_dataset(rng, n_normals=100, n_anoms=20):
    X = rng.normal(size=(n_normals + n_anoms, 2))
    flags = np.zeros(n_normals + n_anoms, dtype=bool)
    flags[n_normals:] = True
    return Dataset(X=X, is_anomaly=flags)


class TestMakeSplits:
    def test_pool_sizes(self):
        rng = np.random.default_rng(62)
        ds = toy_dataset(rng, n_normals=400, n_anoms=40)
        split = make_splits(ds, rng)
        # 400 normals partition 70/15/15 into 280/60/60; each planted set
        # then removes 4 normals from its split's pool
        assert len(split.train_normals) == 280 - 10 * 4
        assert len(split.val_normals) == 60 - 5 * 4
        assert len(split.test_normals) == 60

    def test_small_pools_rejected(self):
        # 100 normals leave a 15-normal validation pool, not enough to
        # donate 4 members to each of the 5 validation sets
        rng = np.random.default_rng(68)
        with pytest.raises(DataError, match="pools too small"):
            make_splits(toy_dataset(rng), rng)

    def test_set_composition(self):
        rng = np.random.default_rng(63)
        ds = toy_dataset(rng, n_normals=400, n_anoms=40)
        split = make_splits(ds, rng)
        assert split.train_sets.shape == (10, 5) and split.val_sets.shape == (5, 5)
        for s in np.vstack([split.train_sets, split.val_sets]):
            flags = ds.is_anomaly[s]
            assert flags.sum() == 1
            assert flags[0]  # anomaly listed first by construction

    def test_role_disjointness_over_seeds(self):
        base = np.random.default_rng(64)
        ds = toy_dataset(base, n_normals=400, n_anoms=40)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            split = make_splits(ds, rng)
            flat = np.concatenate([getattr(split, f.name).ravel() for f in fields(split)])
            assert len(flat) == len(set(flat.tolist()))
            assert len(flat) == ds.n  # every instance lands in exactly one role

    def test_insufficient_anomalies(self):
        rng = np.random.default_rng(65)
        ds = toy_dataset(rng, n_normals=100, n_anoms=10)
        with pytest.raises(DataError, match="anomalies"):
            make_splits(ds, rng)

    def test_seed_changes_partition_not_sizes(self):
        base = np.random.default_rng(66)
        ds = toy_dataset(base, n_normals=400, n_anoms=40)
        a = make_splits(ds, np.random.default_rng(1))
        b = make_splits(ds, np.random.default_rng(2))
        assert len(a.train_normals) == len(b.train_normals)
        assert len(a.test_anomalies) == len(b.test_anomalies)
        assert not np.array_equal(a.train_normals, b.train_normals)

    @pytest.mark.parametrize("bad, message", [
        (440, r"set_anomaly_pool\[15\] = 440 is out of range for 440 rows"),
        (-1, r"set_anomaly_pool\[15\] must be an integer >= 0, got -1$"),
        (7, r"set_anomaly_pool\[15\] = 7 is not an anomaly"),
        (402, r"set_anomaly_pool\[15\] = 402 repeats an earlier entry"),
        (400.9, r"set_anomaly_pool\[15\] must be an integer >= 0, got 400.9$"),
        (True, r"set_anomaly_pool\[15\] must be an integer >= 0, got True$"),
    ], ids=["past-the-end", "negative", "normal-row", "repeat", "fraction", "bool"])
    def test_bad_anomaly_pool_rejected(self, bad, message):
        rng = np.random.default_rng(69)
        ds = toy_dataset(rng, n_normals=400, n_anoms=40)
        # 15 good entries, enough for every set, then the bad one and a later bad one
        pool = list(range(400, 415)) + [bad, 3]
        with pytest.raises(DataError, match=message):
            make_splits(ds, rng, set_anomaly_pool=pool)

    def test_fractional_pool_array_rejected_at_its_first_entry(self):
        rng = np.random.default_rng(69)
        ds = toy_dataset(rng, n_normals=400, n_anoms=40)
        with pytest.raises(DataError, match=r"set_anomaly_pool\[0\] must be an integer >= 0, "
                                             r"got np.float64\(400.9\)$"):
            make_splits(ds, rng, set_anomaly_pool=np.arange(400, 415) + 0.9)

    def test_integral_float_pool_plants_the_same_rows(self):
        ds = toy_dataset(np.random.default_rng(69), n_normals=400, n_anoms=40)
        pool = np.arange(400, 420)
        want = make_splits(ds, np.random.default_rng(3), set_anomaly_pool=pool)
        got = make_splits(ds, np.random.default_rng(3), set_anomaly_pool=pool.astype(float))
        for f in fields(SplitSpec):
            np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name))

    def test_integral_float_sizes_build_the_same_split(self):
        ds = toy_dataset(np.random.default_rng(70), n_normals=400, n_anoms=40)
        want = make_splits(ds, np.random.default_rng(4), n_train_sets=6, set_size=3)
        got = make_splits(ds, np.random.default_rng(4), n_train_sets=6.0, set_size=np.int64(3))
        for f in fields(SplitSpec):
            np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name))

    def test_fields_are_intp_arrays(self):
        rng = np.random.default_rng(67)
        split = make_splits(toy_dataset(rng, n_normals=400, n_anoms=40), rng,
                            n_train_sets=0, set_size=1)
        for f in fields(SplitSpec):
            assert getattr(split, f.name).dtype == np.intp, f.name
        assert split.train_sets.shape == (0, 1) and split.val_sets.shape == (5, 1)


def split_digest(split):
    """sha256 of a split's index arrays: each field's shape and int64 values, in field order."""
    digest = hashlib.sha256()
    for f in fields(split):
        values = np.asarray(getattr(split, f.name), dtype="<i8")
        digest.update(repr(values.shape).encode())
        digest.update(values.tobytes())
    return digest.hexdigest()


class TestSplitsArePinned:
    """Splits keep their bits: each digest was computed with the split code
    that built lists of indices, before the index arrays."""

    @pytest.mark.parametrize("seed, want", [
        (0, "09094363a0299041806de576a6599f027686b694f9c7f653a517adaa6417e087"),
        (1, "9117fa71bf34f11d8697d8afea76e9e5095bdd7dd299c959df3edf90cee91763"),
        (2, "3be4a9e2d754feb850028e7e172a2740d8a5567e8f142b671cea9f6071fc314d"),
    ])
    def test_make_splits(self, seed, want):
        ds = toy_dataset(np.random.default_rng(64), n_normals=400, n_anoms=40)
        assert split_digest(make_splits(ds, np.random.default_rng(seed))) == want

    @pytest.mark.parametrize("seed, want", [
        (0, "15ae7b03dea6ea26eb35a42ea6e442524adfa319d7b5430f913e537173f952f3"),
        (1, "f5e2d9233bbb8179f95569ec938f0a4c78ff7c0fdac97cbca9067df77d280c68"),
        (2, "47d59805f445c8248130c6395387b0c0d882d2524d9e3dcbcbd9800416fb788f"),
    ])
    def test_gen_synthetic(self, seed, want):
        assert split_digest(gen_synthetic(np.random.default_rng(seed))[1]) == want


class TestSynthetic:
    def test_counts_and_flags(self):
        ds, _ = gen_synthetic(np.random.default_rng(0))
        assert ds.n == SYNTH_N_NORMAL + SYNTH_N_ANOM
        assert int(ds.is_anomaly.sum()) == SYNTH_N_ANOM
        assert not ds.is_anomaly[:SYNTH_N_NORMAL].any()

    def test_component_means(self):
        ds, _ = gen_synthetic(np.random.default_rng(1))
        half = SYNTH_N_NORMAL // 2
        for i, mean in enumerate(SYNTH_NORMAL_MEANS):
            block = ds.X[i * half:(i + 1) * half]
            np.testing.assert_allclose(block.mean(axis=0), mean,
                                       atol=5.0 / np.sqrt(half))
        tight = ds.X[SYNTH_N_NORMAL:SYNTH_N_NORMAL + 100]
        np.testing.assert_allclose(tight.mean(axis=0), SYNTH_ANOM_TRAIN_MEAN,
                                   atol=5.0 / np.sqrt(100))
        wide = ds.X[SYNTH_N_NORMAL + 100:]
        np.testing.assert_allclose(wide.mean(axis=0), SYNTH_ANOM_TEST_MEAN,
                                   atol=5.0 / np.sqrt(100))

    def test_wide_component_only_in_test(self):
        ds, split = gen_synthetic(np.random.default_rng(2))
        wide_start = SYNTH_N_NORMAL + 100
        planted = np.vstack([split.train_sets, split.val_sets])[:, 0]
        assert ds.is_anomaly[planted].all() and (planted < wide_start).all()
        # the test pool holds anomalies from both components
        test_anoms = split.test_anomalies
        assert (test_anoms < wide_start).any()
        assert (test_anoms >= wide_start).any()

    def test_deterministic(self):
        a_ds, a_split = gen_synthetic(np.random.default_rng(3))
        b_ds, b_split = gen_synthetic(np.random.default_rng(3))
        np.testing.assert_array_equal(a_ds.X, b_ds.X)
        for f in fields(SplitSpec):
            np.testing.assert_array_equal(getattr(a_split, f.name), getattr(b_split, f.name))

    def test_materialize_shapes(self):
        ds, split = gen_synthetic(np.random.default_rng(4))
        train, val, test = materialize(ds, split)
        assert train.lengths.tolist() == [5] * 10 and val.lengths.tolist() == [5] * 5
        assert train.set_rows.shape == (50, 2) and val.set_rows.shape == (25, 2)
        assert train.normals.shape[0] == len(split.train_normals)
        assert test.anomalies.shape[0] == len(split.test_anomalies)
        # the sets are stacked in set order
        for k, s in enumerate(split.train_sets):
            np.testing.assert_array_equal(train.set_rows[5 * k:5 * k + 5], ds.X[s])


class TestTrainData:
    def test_lengths_must_cover_the_rows(self):
        with pytest.raises(DataError, match="sum to 3 but there are 4"):
            TrainData(set_rows=np.zeros((4, 2)), lengths=[1, 2], normals=np.zeros((1, 2)))

    def test_empty_set_rejected(self):
        with pytest.raises(DataError, match="set 1 is empty"):
            TrainData(set_rows=np.zeros((3, 2)), lengths=[3, 0], normals=np.zeros((1, 2)))

    @pytest.mark.parametrize("lengths", [
        pytest.param([2.7, 3.2], id="fractional"),  # was read as [2, 3]
        pytest.param([2.0, 3.0], id="float"),
        pytest.param([[2], [3]], id="2-d"),  # failed later, inside segment_starts
        pytest.param(5, id="scalar"),
        pytest.param(["2", "3"], id="strings"),
        pytest.param([True, True], id="booleans"),
    ])
    def test_lengths_must_be_a_1d_sequence_of_integers(self, lengths):
        with pytest.raises(DataError, match="lengths must be a 1-d sequence of integers"):
            TrainData(set_rows=np.zeros((5, 2)), lengths=lengths, normals=np.zeros((1, 2)))

    @pytest.mark.parametrize("lengths", [[], np.array([2, 3], dtype=np.uint8), (np.int32(5),)])
    def test_integer_lengths_of_any_kind_accepted(self, lengths):
        rows = sum(int(n) for n in lengths)
        data = TrainData(set_rows=np.zeros((rows, 2)), lengths=lengths, normals=np.zeros((1, 2)))
        assert data.lengths.dtype == np.intp and data.lengths.tolist() == list(map(int, lengths))

    def test_normals_need_a_row(self):
        # the one check: no objective, training or validation asks again
        with pytest.raises(DataError, match="normals must have at least one row"):
            TrainData(set_rows=np.zeros((2, 2)), lengths=[2], normals=np.zeros((0, 2)))

    def test_set_rows_of_another_width_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="set rows have 3 features but normals have 2"):
            TrainData(set_rows=np.ones((4, 3)), lengths=[2, 2], normals=np.ones((4, 2)))

    @pytest.mark.parametrize("set_rows, normals", [
        pytest.param(np.ones(4), np.ones((4, 2)), id="1-d-set-rows"),
        pytest.param(np.ones((4, 2)), np.ones((1, 4, 2)), id="3-d-normals"),
    ])
    def test_rows_must_be_2d(self, set_rows, normals):
        with pytest.raises(ShapeError, match="must be 2-d"):
            TrainData(set_rows=set_rows, lengths=[4], normals=normals)
