"""One OpenBLAS thread for fhmerge's own dense algebra.

The dense work here is small: LAPACK's `dpotrf` (Cholesky, on the float
tables of real mirror-even symbols) and numpy's `slogdet` and `solve` (LU,
real or complex in the table's dtype) on Toeplitz matrices of order
n <= ~1024, and the table products of one nested half-rule.  On such sizes
OpenBLAS's thread pool costs more than it saves, and its spinning threads
make the wall time depend on whatever else holds the cores.  On a 2-core
machine, one run of `beta_one_check` at n = 64, 128, 256 plus its
shifted-beta tables took 0.51-1.09 s wall (up to 1.24 s beside a busy
loop) with two threads and 0.27-0.36 s with one; the Dyson check at the
same n used 1.7 s of CPU for 0.9 s of wall with two threads and 0.9 s for
0.9 s with one.

`single_thread` sets every OpenBLAS loaded in the process (numpy's and
scipy's are separate libraries) to one thread for the duration of the
decorated call and restores the previous counts when the last decorated
call running in any thread returns, so code outside fhmerge keeps its own
setting.  The libraries are found through /proc/self/maps; where that does
not exist, or no OpenBLAS is loaded, the decorator changes nothing.
"""

from __future__ import annotations

import ctypes
import functools
import threading

# (get, set) symbol pairs of the OpenBLAS builds numpy and scipy ship
_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


@functools.cache
def _controls():
    """(get, set) thread-count functions of each OpenBLAS in this process.

    Looked up on the first decorated call; numpy and scipy.integrate (which
    loads scipy.linalg) come with the package, so both libraries are in.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    out = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                out.append((get, put))
                break
    return tuple(out)


# calls inside single_thread, over all threads; the first to enter saves the
# counts and the last to leave restores them
_active = 0
_saved: list[int] = []
_lock = threading.Lock()


def single_thread(fn):
    """Run fn with every loaded OpenBLAS at one thread, then restore."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _active, _saved
        controls = _controls()
        with _lock:
            if _active == 0:
                _saved = [get() for get, _ in controls]
                for _, put in controls:
                    put(1)
            _active += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _active -= 1
                if _active == 0:
                    for (_, put), count in zip(controls, _saved):
                        put(count)

    return wrapper
