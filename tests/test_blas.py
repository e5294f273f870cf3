"""The BLAS thread count and kernel name: read (the count also set) where an
OpenBLAS is mapped, unknown where /proc/self/maps cannot be read."""

import builtins
import os
import subprocess
import sys

import pytest

from inexad import blas, harness


def _report_threads(*args):
    """A stand-in for harness._train_task: the worker's BLAS thread count."""
    return blas.num_threads()


@pytest.fixture
def no_proc_maps(monkeypatch):
    """blas cannot open /proc/self/maps, as off Linux.

    The library lookup is cached, so the cache is cleared before and
    after.  The module-level open shadows the builtin for blas only, and
    forked workers inherit it.
    """
    def refuse(path, *args, **kwargs):
        if path == "/proc/self/maps":
            raise FileNotFoundError(path)
        return builtins.open(path, *args, **kwargs)

    blas._api.cache_clear()
    monkeypatch.setattr(blas, "open", refuse, raising=False)
    yield
    monkeypatch.undo()
    blas._api.cache_clear()


class TestWithoutProcMaps:
    def test_count_is_unknown_and_nothing_is_set(self, no_proc_maps):
        assert blas.num_threads() is None
        assert blas.set_num_threads(1) is None

    def test_kernel_is_unknown(self, no_proc_maps):
        assert blas.core_name() is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="pool workers are forked")
    def test_pool_workers_start(self, no_proc_maps, monkeypatch):
        # each worker's initializer asks to set the count, which is unknown there
        monkeypatch.setattr(harness, "_train_task", _report_threads)
        monkeypatch.setattr(harness, "_worker_count", lambda n: 2)
        assert harness._map_tasks([(None,)] * 4) == [None] * 4


class TestSetNumThreads:
    def test_returns_the_count_the_getter_reads(self):
        before = blas.num_threads()
        if before is None:
            pytest.skip("no OpenBLAS thread count to read")
        want = 2 if before == 1 else 1
        try:
            got = blas.set_num_threads(want)
            assert got == blas.num_threads() == want
        finally:
            blas.set_num_threads(before)
        assert blas.num_threads() == before


class TestCoreName:
    @pytest.fixture(autouse=True)
    def openblas_mapped(self):
        if blas.num_threads() is None:
            pytest.skip("no OpenBLAS mapped")

    def test_names_the_kernel(self):
        name = blas.core_name()
        assert isinstance(name, str) and name

    def test_reads_the_kernel_the_environment_picks(self):
        # OpenBLAS picks its kernel when it loads, so this needs a fresh interpreter
        code = "import numpy; from inexad import blas; print(blas.core_name())"
        src = os.path.dirname(os.path.dirname(blas.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60,
                             env=dict(os.environ, OPENBLAS_CORETYPE="Sandybridge",
                                      PYTHONPATH=src))
        assert out.stdout.strip() == "Sandybridge"
