"""The thread count of the BLAS library loaded into this process.

numpy.show_config() names the library numpy was built against, not the
one mapped into the process, so the library is found by its path in
/proc/self/maps and asked through ctypes.  Only OpenBLAS builds are
recognised (the scipy-openblas builds that numpy wheels ship included);
elsewhere the count is unknown and cannot be set.
"""

import ctypes
import functools
import os

# the thread-count getter and setter under the names OpenBLAS builds export them
_GET_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads")
_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                "openblas_set_num_threads64_", "openblas_set_num_threads")


def _lookup(lib, names, argtypes, restype):
    """The first of names that lib exports, typed; None if it exports none."""
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, restype
            return fn
    return None


@functools.cache
def _threads_api():
    """(getter, setter) of the loaded OpenBLAS's thread count, the setter None
    if the library has none; (None, None) if no OpenBLAS is found."""
    try:
        with open("/proc/self/maps") as fh:
            # a mapping line has 6 fields when it names a file
            paths = {fields[5].strip() for fields in (line.split(None, 5) for line in fh)
                     if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower()}
    except OSError:  # no /proc: not Linux
        return None, None
    for path in sorted(paths):
        try:
            # RTLD_NOLOAD: only a library that is already loaded
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        getter = _lookup(lib, _GET_THREADS, [], ctypes.c_int)
        if getter is not None:
            return getter, _lookup(lib, _SET_THREADS, [ctypes.c_int], None)
    return None, None


def num_threads():
    """The loaded BLAS's current thread count, or None when it cannot be read."""
    getter, _ = _threads_api()
    return None if getter is None else int(getter())


def set_num_threads(count):
    """Ask the loaded BLAS to run `count` threads in this process.

    Returns the count the library then reports, or None, changing
    nothing, when no setter is found.
    """
    getter, setter = _threads_api()
    if setter is None:
        return None
    setter(count)
    return int(getter())
