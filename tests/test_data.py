"""Unit tests for CSV ingestion, preprocessing, splits, and the synthetic generator."""

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
    InexactAnomalySet,
    SplitSpec,
    TrainData,
    gen_synthetic,
    load_csv,
    make_splits,
    materialize,
    preprocess,
)


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

    def test_unknown_label_value(self, tmp_path):
        path = write(tmp_path, "1,2,maybe\n")
        with pytest.raises(DataError, match="unknown label"):
            load_csv(path, label_column=2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(tmp_path / "nope.csv", label_column=0)

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "a,b,label\n1,2,0\n")
        with pytest.raises(DataError, match="not found"):
            load_csv(path, label_column="target")

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "1,2,0\n3,1\n")
        with pytest.raises(DataError, match="expected 3 cells"):
            load_csv(path, label_column=2)


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

    def test_min_and_max_exact(self):
        rng = np.random.default_rng(61)
        ds = Dataset(X=rng.normal(size=(40, 3)), is_anomaly=[False] * 40)
        out = preprocess(ds)
        np.testing.assert_array_equal(out.X.min(axis=0), np.zeros(3))
        np.testing.assert_array_equal(out.X.max(axis=0), np.ones(3))

    def test_too_few_rows(self):
        with pytest.raises(DataError, match="at least 2"):
            preprocess(Dataset(X=[[1.0]], is_anomaly=[False]))


class TestInexactAnomalySet:
    def test_empty_rejected(self):
        with pytest.raises(DataError, match="nonempty"):
            InexactAnomalySet([])

    def test_duplicates_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            InexactAnomalySet([1, 1, 2])


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
        for s in split.train_sets + split.val_sets:
            flags = ds.is_anomaly[s.member_indices]
            assert len(s.member_indices) == 5
            assert flags.sum() == 1
            assert flags[0]  # anomaly listed first by construction

    def test_role_disjointness_over_seeds(self):
        base = np.random.default_rng(64)
        ds = toy_dataset(base, n_normals=400, n_anoms=40)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            split = make_splits(ds, rng)
            groups = [split.train_normals, split.val_normals, split.test_normals,
                      split.test_anomalies]
            groups += [s.member_indices for s in split.train_sets + split.val_sets]
            flat = [i for g in groups for i in g]
            assert len(flat) == len(set(flat))
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
        assert a.train_normals != b.train_normals


class TestSplitSpecJson:
    def test_round_trip(self):
        rng = np.random.default_rng(67)
        ds = toy_dataset(rng, n_normals=400, n_anoms=40)
        split = make_splits(ds, rng)
        back = SplitSpec.from_json(split.to_json())
        assert back.train_normals == split.train_normals
        assert back.test_anomalies == split.test_anomalies
        assert [s.member_indices for s in back.val_sets] == [
            s.member_indices for s in split.val_sets]


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
        planted = {i for s in split.train_sets + split.val_sets
                   for i in s.member_indices if ds.is_anomaly[i]}
        assert all(i < wide_start for i in planted)
        # the test pool holds anomalies from both components
        test_anoms = np.array(split.test_anomalies)
        assert (test_anoms < wide_start).any()
        assert (test_anoms >= wide_start).any()

    def test_deterministic(self):
        a_ds, a_split = gen_synthetic(np.random.default_rng(3))
        b_ds, b_split = gen_synthetic(np.random.default_rng(3))
        np.testing.assert_array_equal(a_ds.X, b_ds.X)
        assert a_split.to_json() == b_split.to_json()

    def test_materialize_shapes(self):
        ds, split = gen_synthetic(np.random.default_rng(4))
        train, val, test = materialize(ds, split)
        assert train.lengths.tolist() == [5] * 10 and val.lengths.tolist() == [5] * 5
        assert train.set_rows.shape == (50, 2) and val.set_rows.shape == (25, 2)
        assert train.normals.shape[0] == len(split.train_normals)
        assert test.anomalies.shape[0] == len(split.test_anomalies)
        # the sets are stacked in set order
        for k, s in enumerate(split.train_sets):
            np.testing.assert_array_equal(train.set_rows[5 * k:5 * k + 5],
                                          ds.X[s.member_indices])


class TestTrainData:
    def test_lengths_must_cover_the_rows(self):
        with pytest.raises(DataError, match="sum to 3 but there are 4"):
            TrainData(set_rows=np.zeros((4, 2)), lengths=[1, 2], normals=np.zeros((1, 2)))

    def test_empty_set_rejected(self):
        with pytest.raises(DataError, match="set 1 is empty"):
            TrainData(set_rows=np.zeros((3, 2)), lengths=[3, 0], normals=np.zeros((1, 2)))
