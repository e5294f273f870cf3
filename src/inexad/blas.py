"""The thread count of the BLAS library loaded into this process.

numpy.show_config() names the library numpy was built against, not the
one mapped into the process, so the library is found by its path in
/proc/self/maps and asked through ctypes.  Only OpenBLAS builds are
recognised (the scipy-openblas builds that numpy wheels ship included);
elsewhere the count is unknown.
"""

import ctypes
import functools
import os

# the thread-count getter under the names OpenBLAS builds export it
_GET_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads")


@functools.cache
def _get_threads():
    """The loaded OpenBLAS's thread-count getter, or None if none is found."""
    try:
        with open("/proc/self/maps") as fh:
            # a mapping line has 6 fields when it names a file
            paths = {fields[5].strip() for fields in (line.split(None, 5) for line in fh)
                     if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower()}
    except OSError:  # no /proc: not Linux
        return None
    for path in sorted(paths):
        try:
            # RTLD_NOLOAD: only a library that is already loaded
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in _GET_THREADS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter
    return None


def num_threads():
    """The loaded BLAS's current thread count, or None when it cannot be read."""
    getter = _get_threads()
    return None if getter is None else int(getter())
