"""Thread counts of the loaded OpenBLAS libraries.

numpy and scipy each ship their own OpenBLAS, and each runs a pool of
worker threads that busy-wait on a core after every call big enough to
split, even while the caller goes on alone or sleeps: a `np.vdot` over
10k values, a 200 x 200 product or a 100 x 100 `eigvalsh` is enough.
szegolab makes hundreds of such calls, nearly all too small for a second
thread to pay: on two threads throughout, `acceptance.run_all` burns about
twice its wall time in CPU, half of it spinning.

The policy, in two scopes:

- `single_threaded()` sets every bound library to one thread and gives
  back the counts it found on exit, by return or by exception.  The public
  functions that reach BLAS run inside it (`cli.main`,
  `acceptance.run_all`, `manifold.quadrature` and `frame_at`,
  `assembly.assemble_T`, `pair_trace_integral` and
  `nfold_trace_integral`, `spectral.eigensolve`, `singular_values` and
  `schatten_sum`).  Scopes nest; only the outermost one reads and restores
  the counts, so a nested entry costs a lock and a length check.
- `threaded(size, from_size)`, inside it, gives a call of `size` the
  counts the outermost scope saved when size >= from_size, and sets one
  thread again after it.  Two kinds of call get it, each from its own
  crossover (below): `spectral`'s dense-block `eigvalsh` and `svd` from
  SOLVE_ROWS rows, and the kernel products of `assembly._kernel_rows` and
  the chain products of `nfold_trace_integral` from PRODUCT_SIZE on the
  smaller side of the product, so that a kernel applied to one column
  stays on one thread.  The zherk and zgemm updates of a dense T stay on
  one thread at every size.

No option changes this: a threaded call uses the count the process had on
entry, so `OPENBLAS_NUM_THREADS=1` still holds.

Binding: every mapped file of the process whose path contains "openblas"
(`/proc/self/maps`) is opened with ctypes and its thread-count setter and
getter looked up by the names OpenBLAS builds export (`_SYMBOLS`): the
`scipy_openblas_*64_` of numpy's wheels, the `scipy_openblas_*` of
scipy's, and the `openblas_*` names of older wheels and system builds.
The maps are read again when a module has been imported since the last
read, since scipy's library loads only with `scipy.linalg`; a library
that appears inside a scope is saved and set to one thread as it is
found.  Where no library is found (another BLAS, no `/proc`), every scope
is a no-op.

Crossover, end to end: the public call timed whole, wall seconds, median
of 7-11 runs alternating in one process (2-vCPU Xeon VM shared with other
work).  "one" runs every call on one thread, "policy" this module, "two"
binds nothing, so every call runs on OpenBLAS's default two threads, as
before this module.  Dense T: the `szegolab spectrum` (real T: zherk,
dsyevd) and `schatten` (complex T: zgemm, zgesdd) commands on the real
circle (cos t, 0, sin t, 0) in C^2, whose T is one dense block of dim
rows, k = M / 4:

    dim    spectrum                   schatten
           one     policy  two        one     policy  two
    231    0.021   0.025   0.039      0.024   0.018   0.055
    325    0.041   0.044   0.093      0.036   0.041   0.081
    435    0.074   0.067   0.130      0.089   0.092   0.171
    496    0.090   0.086   0.189      0.121   0.105   0.179
    561    0.115   0.106   0.182      0.159   0.127   0.205
    703    0.173   0.151   0.232      0.305   0.228   0.341
    861    0.301   0.242   0.325      0.567   0.392   0.502
    1225   0.847   0.627   0.695      1.635   0.975   1.052

Below SOLVE_ROWS "one" and "policy" make the same calls, so their gap
there, up to 15% at 231 rows, is the box's noise.  SOLVE_ROWS = 480 came
from the solve alone on two threads against one: 0.038 / 0.035 s,
0.065 / 0.060 and 0.086 / 0.104 on spectrum at 325, 435 and 496 rows,
0.047 / 0.041, 0.076 / 0.081 and 0.100 / 0.130 on schatten.  The zherk
on two threads as well (a first design, one 512-row cutoff for every
call) lost at every dim measured: 0.185, 0.231, 0.330 and 0.637 s on
spectrum at 561, 703, 861 and 1225 rows, against 0.104, 0.141, 0.260 and
0.568 with the solve alone on two.  scipy's pool, woken for the zherk,
spins on the core that numpy's second thread then needs for the solve.

Products: `nfold_trace_integral` with three amplitudes on the circle (one
m x m complex chain product) and `pair_trace_integral` on the torus (per
axis a real m x m kernel against m x m columns), m nodes per axis:

    m      nfold                      pair
           one     policy  two        one     policy  two
    200    0.0084  0.0082  0.0076     0.0067  0.0066  0.0063
    256    0.0130  0.0119  0.0127     0.0107  0.0108  0.0110
    300    0.0166  0.0170  0.0174     0.0132  0.0113  0.0127
    400    0.0376  0.0293  0.0299     0.0295  0.0247  0.0241
    512    0.0558  0.0502  0.0546     0.0367  0.0359  0.0379
    800    0.1502  0.1190  0.1206     0.1274  0.0911  0.1087
    1000   -       -       -          0.2012  0.1705  0.1614
    1200   0.4518  0.3160  0.2837     -       -       -

With every product on two threads, they paid 17% on nfold and lost 9%
on pair at m = 256, and paid 13-19% on both at 320, so PRODUCT_SIZE is
300.  On the circle, whose pair trace applies a kernel of m rows to one
column, two threads change nothing up to m = 3000 but the CPU time,
0.15 against 0.10 s.  No benchmark workload makes a call at either
cutoff: verify_all's largest kernel product has 169 rows, and its dense
blocks, like sphere_nodes' and dsl_config's, are band solves.  Every
threaded call still leaves numpy's pool spinning for a while after it
returns.

Per call, numpy's OpenBLAS at 1 and 2 threads, ms on random matrices,
median of 5 (same machine):

    n      eigvalsh real   eigvalsh complex   SVD real       SVD complex
           1      2        1      2           1      2       1       2
    128    0.8    0.9      1.8    1.9         1.4    3.1     2.6     5.8
    256    4.4    6.6      10.0   10.9        7.5    8.8     14.2    19.9
    400    11.9   12.0     38.1   38.0        23.0   24.1    62.1    56.1
    512    18.6   16.9     61.3   60.2        43.2   54.6    137.9   109.8
    640    39.0   28.6     180.9  122.9       103.1  104.3   248.7   194.5
    800    73.2   50.3     287.6  195.5       194.6  173.9   477.8   341.8
    1225   233.5  136.8    873.7  628.0       723.8  531.6   1668.7  1011.1

Alone, a second thread loses up to twice the time at n = 128 and ties
at 400, where only the complex SVD gains, 10%; at 512 it gains 2-20%,
except on the real SVD, which loses 26% and ties at 640.  End to end the
solves of the circle's T pay from 496 rows in both dtypes (above), so one
cutoff serves eigvalsh and SVD alike; a real dense SVD block, which the
circle's commands do not make, may lose between 480 and 640 rows.

The counts are process-wide, so the scope state is too: module variables
under one lock.  Concurrent host threads share the setting: while one
thread is inside a szegolab call, BLAS calls from every other thread of
the process also run on one thread, and the lock covers the bookkeeping,
not BLAS calls already running when a count changes.
"""

from __future__ import annotations

import contextlib
import ctypes
import sys
import threading

SOLVE_ROWS = 480  # rows from which a dense eigvalsh or SVD runs threaded
PRODUCT_SIZE = 300  # smaller side from which a kernel product runs threaded

# (setter, getter) names, the first pair a library exports is bound
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_lock = threading.RLock()  # bound() takes it inside the scopes too
_bound: dict = {}  # path -> (setter, getter) of each library found
_read_at = -1  # len(sys.modules) when the maps were last read
_depth = 0  # open single_threaded scopes, over all threads
_wide = 0  # open threaded scopes running on the saved counts
_saved: dict = {}  # path -> thread count on entry to the outermost scope


def openblas_paths() -> list[str]:
    """Paths of the mapped files whose name contains "openblas"; empty
    where the process has no `/proc/self/maps`."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    return sorted({f[5].strip() for f in fields
                   if len(f) == 6 and "openblas" in f[5].lower()})


def _bind(path: str):
    """(setter, getter) of the library at path, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for setter, getter in _SYMBOLS:
        if hasattr(lib, setter) and hasattr(lib, getter):
            set_, get = getattr(lib, setter), getattr(lib, getter)
            set_.argtypes, set_.restype = [ctypes.c_int], None
            get.argtypes, get.restype = [], ctypes.c_int
            return set_, get
    return None


def bound() -> dict:
    """(setter, getter) by path of every OpenBLAS found so far; the maps
    are read again when a module was imported since the last read."""
    global _read_at
    with _lock:
        if len(sys.modules) != _read_at:
            _read_at = len(sys.modules)
            for path in openblas_paths():
                if path not in _bound:
                    pair = _bind(path)
                    if pair is not None:
                        _bound[path] = pair
        return dict(_bound)


def thread_counts() -> dict:
    """The thread count of each bound library, by path."""
    return {path: get() for path, (_, get) in bound().items()}


def _set(path: str, count: int) -> None:
    set_, get = _bound[path]
    if get() != count:
        set_(count)


def _save_new() -> None:
    """Save, and set to one thread, each library the scope has not seen."""
    for path, (_, get) in bound().items():
        if path not in _saved:
            _saved[path] = get()
            if not _wide:
                _set(path, 1)


class single_threaded(contextlib.ContextDecorator):
    """Every bound library at one thread; the counts found on entry to the
    outermost scope come back on its exit.  `with single_threaded():` or
    `@single_threaded()`; the state is the module's, not the instance's."""

    def __enter__(self):
        global _depth
        with _lock:
            _depth += 1
            _save_new()
        return self

    def __exit__(self, *exc):
        global _depth
        with _lock:
            _depth -= 1
            if not _depth:
                for path, count in _saved.items():
                    _set(path, count)
                _saved.clear()
        return False


@contextlib.contextmanager
def threaded(size: int, from_size: int):
    """The saved thread counts for a call of `size`, when it is at least
    `from_size` and a single_threaded scope is open; otherwise nothing
    changes."""
    global _wide
    with _lock:
        wide = size >= from_size and _depth > 0
        if wide:
            _save_new()
            _wide += 1
            if _wide == 1:
                for path, count in _saved.items():
                    _set(path, count)
    try:
        yield
    finally:
        if wide:
            with _lock:
                _wide -= 1
                if not _wide and _depth:
                    for path in _saved:
                        _set(path, 1)
