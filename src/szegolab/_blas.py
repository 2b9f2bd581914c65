"""The loaded OpenBLAS libraries: their thread counts, and the LAPACK and
BLAS routines szegolab calls.

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
read, since scipy's library loads only with `scipy.linalg` or
`scipy.special`; a library that appears inside a scope is saved and set
to one thread as it is found.  Where no library is found (another BLAS,
no `/proc`), every scope is a no-op.

Routines: `routine(name)` gives every LAPACK and BLAS routine szegolab
calls itself (`_PROTOTYPES`: the band solvers of `spectral` and of the
Gauss-Laguerre rule of `asymptotics`, the zherk and zgemm updates of
`assembly`'s dense T), from the first mapped OpenBLAS that exports it as
`scipy_<name>_64_` (numpy 2's wheels), `<name>_64_` (numpy 1's),
`scipy_<name>_` (scipy's) or `<name>_`, with the integer width that
library reports in its own configuration string (USE64BITINT).  That is
numpy's own OpenBLAS, which `import numpy` has already loaded, so no
scipy module is imported and scipy's second OpenBLAS, about 23 MB of
resident memory with the `scipy.linalg` and `scipy.special` import stack,
loads only for the fallback: where no mapped library exports the
routine (another BLAS, no `/proc`), it comes from the function capsules
of scipy's `cython_lapack` or `cython_blas`, after their C signatures are
checked against `_PROTOTYPES`.  Either pointer goes through one calling
path, `Routine`: arrays are passed by their data pointer, numbers and the
work sizes as one-element arrays of the routine's types, and the hidden
length of each character argument that gfortran's calling convention
appends; a LAPACK routine's info is checked there.  The band solvers
give what scipy's wrappers gave (`eig_banded`, `eigvalsh_tridiagonal`)
bit for bit, and the dense updates what `scipy.linalg.blas` gave on one
thread; the benchmark's DSL torus outputs kept every byte.  A cold
`szegolab verify-all` went from 0.51 to 0.33 s and 74 to 50 MB peak
resident memory, a torus `spectrum` sweep (k = 4, 8, 12) from 0.54 to
0.33 s and 72 to 42 MB, most of the time interpreter start and imports
(median of 7 alternating runs, 2-vCPU VM; BENCH_25.json).

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
These timings were taken while the zherk and zgemm updates ran in
scipy's OpenBLAS; they now run in numpy's (`routine`), and the cutoffs
have not been timed again since.

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
import functools
import sys
import threading

import numpy as np

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


@functools.cache
def _open(path: str):
    """The library at path, or None where it cannot be loaded."""
    try:
        return ctypes.CDLL(path)
    except OSError:
        return None


def _bind(path: str):
    """(setter, getter) of the library at path, or None."""
    lib = _open(path)
    if lib is None:
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


# the C arguments of each routine szegolab calls: c char *, i int *,
# d double *, z double complex *; a LAPACK routine ends in its info
_PROTOTYPES = {
    "dsbevd": "c c i i d i d d i d i i i i",
    "zhbevd": "c c i i z i d z i z i d i i i i",
    "dstevd": "c i d d d i d i i i i",
    "dgbbrd": "c i i i i i d i d d d i d i d i d i",
    "zgbbrd": "c i i i i i z i d d z i z i z i z d i",
    "dbdsqr": "c i i i i d d d i d i d i d i",
    "zherk": "c c i i d z i d z i",
    "zgemm": "c c i i i z z i z i z z i",
}
_BLAS = ("zherk", "zgemm")  # no info argument; in cython_blas
# the names a library may export a routine under, the first found is bound
_EXPORTS = ("scipy_{}_64_", "{}_64_", "scipy_{}_", "{}_")
_CONFIGS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
            "openblas_get_config64_", "openblas_get_config")


class Routine:
    """A LAPACK or BLAS routine called with the Fortran arguments of its
    prototype: str for a character, a number for a scalar, or a
    Fortran-contiguous array of the argument's type, passed by pointer
    and written in place.  A LAPACK routine's trailing info is not
    given: it is checked, and a nonzero one raises RuntimeError."""

    def __init__(self, name: str, pointer: int, int_type):
        kinds = _PROTOTYPES[name].split()
        self.name, self.int_type = name, np.dtype(int_type)
        self.kinds = kinds if name in _BLAS else kinds[:-1]
        self._types = {"i": self.int_type, "d": np.dtype(np.float64),
                       "z": np.dtype(np.complex128)}
        # a number goes in a ctypes scalar, cheaper than a numpy array
        self._int = np.ctypeslib.as_ctypes_type(self.int_type)
        self._scalars = {"i": self._int, "d": ctypes.c_double,
                         "z": lambda v: _Complex(v.real, v.imag)}
        # gfortran appends the length of each character argument
        self._lengths = (1,) * kinds.count("c")
        args = [ctypes.c_char_p if k == "c" else ctypes.c_void_p
                for k in kinds]
        proto = ctypes.CFUNCTYPE(None, *args,
                                 *[ctypes.c_size_t] * len(self._lengths))
        self._fn = proto(pointer)

    def __call__(self, *args) -> None:
        if len(args) != len(self.kinds):
            raise TypeError(f"{self.name} takes {len(self.kinds)} arguments")
        held, pointers = [], []  # held: the numbers' scalars, for the call
        for kind, arg in zip(self.kinds, args):
            if kind == "c":
                pointers.append(arg.encode())
            elif isinstance(arg, np.ndarray):
                dtype = self._types[kind]
                if arg.dtype != dtype or not arg.flags.f_contiguous:
                    raise TypeError(f"{self.name} takes Fortran-contiguous "
                                    f"{dtype} arrays, not {arg.dtype}")
                pointers.append(arg.ctypes.data)
            else:
                held.append(self._scalars[kind](arg))
                pointers.append(ctypes.addressof(held[-1]))
        info = self._int(0)
        if self.name not in _BLAS:
            pointers.append(ctypes.addressof(info))
        self._fn(*pointers, *self._lengths)
        if info.value:
            raise RuntimeError(f"{self.name} failed with info {info.value}")


_Complex = ctypes.c_double * 2  # a double complex


def _int_type(lib):
    """The integer type of a library's LAPACK and BLAS arguments, read
    from its configuration string; None where it reports none."""
    for name in _CONFIGS:
        if hasattr(lib, name):
            config = getattr(lib, name)
            config.argtypes, config.restype = [], ctypes.c_char_p
            return np.int64 if b"USE64BITINT" in config().split() else np.intc
    return None


def _exported(name: str):
    """(pointer, integer type) of the routine in the first mapped OpenBLAS
    that exports it, or None."""
    for path in openblas_paths():
        lib = _open(path)
        if lib is None:
            continue
        for export in _EXPORTS:
            symbol = export.format(name)
            if hasattr(lib, symbol):
                int_type = _int_type(lib)
                if int_type is not None:
                    pointer = ctypes.cast(getattr(lib, symbol),
                                          ctypes.c_void_p).value
                    return pointer, int_type
                break
    return None


def _kinds(signature: str) -> str:
    """The C signature of a cython_lapack or cython_blas capsule in
    `_PROTOTYPES` form; an argument of any other type is kept as
    written."""
    known = {"char *": "c", "int *": "i"}
    kinds = []
    for arg in signature[signature.index("(") + 1:-1].split(", "):
        if arg.endswith("_d *"):
            arg = "d"
        elif arg.endswith("double_complex *") or arg.endswith("_z *"):
            arg = "z"
        kinds.append(known.get(arg, arg))
    return " ".join(kinds)


def _capsule(name: str):
    """(C signature, function pointer) of the routine in scipy's
    cython_lapack or cython_blas."""
    if name in _BLAS:
        from scipy.linalg import cython_blas as module
    else:
        from scipy.linalg import cython_lapack as module
    api = ctypes.pythonapi
    api.PyCapsule_GetName.restype = ctypes.c_char_p
    api.PyCapsule_GetName.argtypes = [ctypes.py_object]
    api.PyCapsule_GetPointer.restype = ctypes.c_void_p
    api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    capsule = module.__pyx_capi__[name]
    signature = api.PyCapsule_GetName(capsule)
    return signature.decode(), api.PyCapsule_GetPointer(capsule, signature)


@functools.cache
def routine(name: str) -> Routine:
    """The routine, bound on first use from a mapped OpenBLAS or else from
    scipy's capsule, whose C signature must be `_PROTOTYPES[name]`."""
    found = _exported(name)
    if found is not None:
        return Routine(name, *found)
    signature, pointer = _capsule(name)
    if _kinds(signature) != _PROTOTYPES[name]:
        raise RuntimeError(f"scipy's {name} is {signature}, not "
                           f"{_PROTOTYPES[name]}")
    return Routine(name, pointer, np.intc)
