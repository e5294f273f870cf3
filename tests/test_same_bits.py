"""tools/same_bits.py: what its file comparison ignores and reports, and the
CPUs and BLAS threads that its two settings give a probe."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from inexad.training import _usable_cpus

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_bits", ROOT / "tools" / "same_bits.py")
same_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bits)


def _run_dir(path, seconds=1.5, auc_mean=0.75, auc_csv="repeat,auc\n0,0.75\n"):
    """A small output directory shaped like the CLI's."""
    path.mkdir()
    summary = {"modes": {"ae": {"auc_mean": auc_mean, "seconds": seconds}}}
    (path / "summary.json").write_text(json.dumps(summary))
    (path / "auc_ae.csv").write_text(auc_csv)
    return path


class TestFirstDifferingFile:
    def test_equal_but_for_seconds(self, tmp_path):
        a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b", seconds=9.25)
        assert same_bits._first_differing_file(a, b) is None

    def test_a_changed_summary_value_is_reported(self, tmp_path):
        a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b", auc_mean=0.7500000000000001)
        assert same_bits._first_differing_file(a, b) == "summary.json"

    def test_a_changed_csv_byte_is_reported(self, tmp_path):
        a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b", auc_csv="repeat,auc\n0,0.76\n")
        assert same_bits._first_differing_file(a, b) == "auc_ae.csv"

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_a_file_on_one_side_only_is_reported(self, tmp_path, side):
        a, b = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
        (tmp_path / side / "history_ae_0_0.csv").write_text("epoch\n")
        assert same_bits._first_differing_file(a, b) == "history_ae_0_0.csv"


class TestSettings:
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity on this platform")
    def test_one_cpu_pins_the_probe_to_one_cpu(self, tmp_path):
        result, error = same_bits._probe(ROOT, "hashes", tmp_path, "one-cpu")
        assert error is None
        assert result["cpus"] == 1

    @pytest.mark.skipif(_usable_cpus() < 2, reason="BLAS defaults to one thread on one CPU")
    def test_blas_default_unpins_the_blas_threads(self, tmp_path):
        (tmp_path / "plain").mkdir()
        (tmp_path / "default").mkdir()
        plain, error = same_bits._probe(ROOT, "hashes", tmp_path / "plain")
        assert error is None
        if plain["blas_threads"] is None:
            pytest.skip("the BLAS thread count cannot be read here")
        assert plain["blas_threads"] == 1
        default, error = same_bits._probe(ROOT, "hashes", tmp_path / "default", "blas-default")
        assert error is None
        assert default["blas_threads"] not in (None, 1)
