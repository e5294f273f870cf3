"""The thread count and kernel name of the BLAS library loaded into this process.

numpy.show_config() names the library numpy was built against, not the
one mapped into the process, so the library is found by its path in
/proc/self/maps and asked through ctypes.  Only OpenBLAS builds are
recognised (the scipy-openblas builds that numpy wheels ship included);
elsewhere the count and the name are unknown and the count cannot be set.
"""

import ctypes
import functools
import os


def _spellings(name):
    """The names under which OpenBLAS builds export openblas_<name>."""
    return (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}",
            f"openblas_{name}64_", f"openblas_{name}")


def _lookup(lib, names, argtypes, restype):
    """The first of names that lib exports, typed; None if it exports none."""
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, restype
            return fn
    return None


@functools.cache
def _api():
    """(thread-count getter, setter, kernel-name getter) of the loaded
    OpenBLAS, each None if the library lacks it; all None if no OpenBLAS
    is found."""
    try:
        with open("/proc/self/maps") as fh:
            # a mapping line has 6 fields when it names a file
            paths = {fields[5].strip() for fields in (line.split(None, 5) for line in fh)
                     if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower()}
    except OSError:  # no /proc: not Linux
        return None, None, None
    for path in sorted(paths):
        try:
            # RTLD_NOLOAD: only a library that is already loaded
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        getter = _lookup(lib, _spellings("get_num_threads"), [], ctypes.c_int)
        if getter is not None:
            return (getter, _lookup(lib, _spellings("set_num_threads"), [ctypes.c_int], None),
                    _lookup(lib, _spellings("get_corename"), [], ctypes.c_char_p))
    return None, None, None


def num_threads():
    """The loaded BLAS's current thread count, or None when it cannot be read."""
    getter, _, _ = _api()
    return None if getter is None else int(getter())


def set_num_threads(count):
    """Ask the loaded BLAS to run `count` threads in this process.

    Returns the count the library then reports, or None, changing
    nothing, when no setter is found.
    """
    getter, setter, _ = _api()
    if setter is None:
        return None
    setter(count)
    return int(getter())


def core_name():
    """The name of the kernel set the loaded BLAS chose for this CPU, such as
    "SkylakeX", or None when it cannot be read.

    Results are bit-identical only within one kernel set;
    OPENBLAS_CORETYPE picks another at start-up.
    """
    _, _, getter = _api()
    name = None if getter is None else getter()
    return name.decode() if name else None
