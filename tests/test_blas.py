import contextlib
import dataclasses
import sys
import threading

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  loads scipy's OpenBLAS next to numpy's

import szegolab._blas as blas
import szegolab.assembly as asm
from szegolab import acceptance, cli, spectral
from szegolab.assembly import (
    BlockLayout,
    HermitianOperator,
    assemble_T,
    nfold_trace_integral,
    pair_trace_integral,
)
from szegolab.fock import FockTruncation
from szegolab.manifold import (
    circle,
    custom_chart,
    frame_at,
    quadrature,
    torus_product,
)
from szegolab.spectral import eigensolve, schatten_sum, singular_values


def mapped_openblas():
    """The OpenBLAS files of /proc/self/maps, read here on their own."""
    try:
        with open("/proc/self/maps") as fh:
            lines = fh.read().splitlines()
    except OSError:
        pytest.skip("no /proc/self/maps")
    paths = set()
    for line in lines:
        parts = line.split(None, 5)
        if len(parts) == 6 and "openblas" in parts[5].lower():
            paths.add(parts[5].strip())
    return paths


def test_every_mapped_openblas_is_bound():
    # a library whose symbols no name in _SYMBOLS matches would silently
    # keep its threads spinning
    assert set(blas.bound()) == mapped_openblas()


@pytest.fixture
def counts():
    """Every bound library at two threads for the test, then as before;
    yields a function that reads the counts as a set."""
    if not blas.bound():
        pytest.skip("no OpenBLAS bound")
    before = blas.thread_counts()
    for path in before:
        blas._set(path, 2)
    yield lambda: set(blas.thread_counts().values())
    for path, count in before.items():
        blas._set(path, count)


def spy(record, fn):
    def wrapper(*args, **kwargs):
        record.append(set(blas.thread_counts().values()))
        return fn(*args, **kwargs)
    return wrapper


def dense_op(n, hermitian=True):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianOperator(BlockLayout.of_matrix(A + A.conj().T),
                             hermitian=hermitian)


def small_circle():
    sub = circle()
    return sub, FockTruncation(1, 4.0, 40), quadrature(sub, 96)


def call_eigensolve(record, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        spy(record, np.linalg.eigvalsh))
    eigensolve(dense_op(8))


def call_singular_values(record, monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", spy(record, np.linalg.svd))
    singular_values(dense_op(8, hermitian=False))


def call_schatten_sum(record, monkeypatch):
    monkeypatch.setattr(np.linalg, "svd", spy(record, np.linalg.svd))
    schatten_sum(dense_op(8, hermitian=False), [1.0, 2.0])


def call_quadrature(record, monkeypatch):
    sub = circle()
    quadrature(dataclasses.replace(sub, gamma=spy(record, sub.gamma)), 16)


def call_frame_at(record, monkeypatch):
    sub = circle()
    frame_at(dataclasses.replace(sub, jacobian=spy(record, sub.jacobian)),
             np.zeros((3, 1)))


def call_assemble_T(record, monkeypatch):
    sub, trunc, quad = small_circle()
    assemble_T(trunc, sub, spy(record, lambda t: 1.0 + 0.5 * np.cos(t[:, 0])),
               quad)


def call_pair_trace_integral(record, monkeypatch):
    sub, _, quad = small_circle()
    pair_trace_integral(sub, spy(record, lambda t: np.cos(t[:, 0])), None,
                        quad, 4.0)


def call_nfold_trace_integral(record, monkeypatch):
    sub, _, quad = small_circle()
    nfold_trace_integral(sub, [spy(record, lambda t: np.cos(t[:, 0]))] * 3,
                         quad, 4.0)


def call_run_all(record, monkeypatch):
    acceptance.run_all(acceptance.Lab(), [spy(record, lambda lab: {})])


def call_cli_main(record, monkeypatch):
    monkeypatch.setattr(cli, "_run", spy(record, lambda args: 0))
    assert cli.main(["verify-all"]) == 0


ENTRY_POINTS = [call_eigensolve, call_singular_values, call_schatten_sum,
                call_quadrature, call_frame_at, call_assemble_T,
                call_pair_trace_integral, call_nfold_trace_integral,
                call_run_all, call_cli_main]


@pytest.mark.parametrize("entry", ENTRY_POINTS,
                         ids=[e.__name__[5:] for e in ENTRY_POINTS])
def test_entry_points_run_on_one_thread(counts, monkeypatch, entry):
    record = []
    entry(record, monkeypatch)
    assert record and all(seen == {1} for seen in record)
    assert counts() == {2}


@pytest.mark.parametrize("rows, seen", [
    (blas.SOLVE_ROWS - 1, {1}), (blas.SOLVE_ROWS, {2})])
def test_dense_block_of_solve_rows_sees_callers_count(counts, monkeypatch,
                                                      rows, seen):
    record = []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        spy(record, lambda D: np.zeros(D.shape[0])))
    op = HermitianOperator(BlockLayout.of_matrix(np.eye(rows)))
    eigensolve(op)
    assert record == [seen]
    assert counts() == {2}


def test_dense_T_updates_stay_on_one_thread(counts, monkeypatch):
    # the real circle in C^2 has no rotation axis: T is assembled node by
    # node, here a dense T of at least SOLVE_ROWS rows
    record, bind = [], asm.routine
    monkeypatch.setattr(asm, "routine", lambda name: spy(record, bind(name)))
    sub = custom_chart(1, 2, ["cos(t1)", "0", "sin(t1)", "0"], [True],
                       [[0.0, 2 * np.pi]])
    trunc = FockTruncation(2, 7.5, 30)
    assert trunc.dim >= blas.SOLVE_ROWS
    assemble_T(trunc, sub, None, quadrature(sub, 64))
    assert record and all(seen == {1} for seen in record)
    assert counts() == {2}


def recording_threaded(monkeypatch, counts):
    """Record (size, thread counts inside) of each of assembly's threaded
    scopes."""
    seen, real = [], asm.threaded

    @contextlib.contextmanager
    def spy_threaded(size, from_size):
        with real(size, from_size):
            seen.append((size, counts()))
            yield

    monkeypatch.setattr(asm, "threaded", spy_threaded)
    return seen


def test_kernel_products_thread_by_their_smaller_side(counts, monkeypatch):
    seen = recording_threaded(monkeypatch, counts)
    m = blas.PRODUCT_SIZE
    # the circle's kernel of 2m rows meets one column: one thread
    pair_trace_integral(circle(), None, None, quadrature(circle(), 2 * m),
                        4.0)
    assert seen and all(s == (1, {1}) for s in seen)
    seen.clear()
    # on the torus each axis kernel of m rows meets m columns
    torus = torus_product([1.0, 0.7])
    pair_trace_integral(torus, None, None, quadrature(torus, [m, m]), 4.0)
    assert seen and all(s == (m, {2}) for s in seen)
    assert counts() == {2}


@pytest.mark.parametrize("m, seen", [
    (blas.PRODUCT_SIZE - 1, {1}), (blas.PRODUCT_SIZE, {2})])
def test_nfold_chain_products_of_product_size_see_callers_count(
        counts, monkeypatch, m, seen):
    record = recording_threaded(monkeypatch, counts)
    sub = circle()
    nfold_trace_integral(sub, [None] * 3, quadrature(sub, m), 4.0)
    assert record == [(m, seen)]
    assert counts() == {2}


def test_counts_come_back_after_an_exception(counts):
    with pytest.raises(RuntimeError):
        with blas.single_threaded():
            assert counts() == {1}
            with blas.threaded(1, 1):
                assert counts() == {2}
                raise RuntimeError
    assert counts() == {2}
    # and through an entry point that raises
    with pytest.raises(ValueError):
        eigensolve(dense_op(4, hermitian=False))
    assert counts() == {2}


def test_nested_scopes_restore_only_at_the_outermost(counts):
    with blas.single_threaded():
        with blas.single_threaded():
            assert counts() == {1}
        assert counts() == {1}
        with blas.threaded(1, 1):
            with blas.threaded(1, 1):
                assert counts() == {2}
            assert counts() == {2}
        assert counts() == {1}
    assert counts() == {2}


def test_threaded_outside_a_scope_changes_nothing(counts):
    with blas.threaded(1, 1):
        assert counts() == {2}
    assert counts() == {2}


def test_caller_at_one_thread_stays_at_one(counts):
    for path in blas.bound():
        blas._set(path, 1)
    with blas.single_threaded():
        with blas.threaded(10, 1):
            assert counts() == {1}
    assert counts() == {1}


def hide_libraries(monkeypatch):
    """Forget every bound library and find none; returns the getters of
    the libraries that were bound."""
    getters = [get for _, get in blas.bound().values()]
    monkeypatch.setattr(blas, "_bound", {})
    monkeypatch.setattr(blas, "_read_at", -1)
    monkeypatch.setattr(blas, "openblas_paths", lambda: [])
    return lambda: {get() for get in getters}


def test_scopes_are_no_ops_without_a_library(counts, monkeypatch):
    real = hide_libraries(monkeypatch)
    with blas.single_threaded():
        with blas.threaded(1, 1):
            assert blas.thread_counts() == {}
            assert real() == {2}
        eigensolve(dense_op(4))
        assert real() == {2}
    assert real() == {2}


def test_library_found_inside_a_scope_is_saved_and_restored(counts,
                                                            monkeypatch):
    # scipy's library loads with scipy.linalg or scipy.special, which the
    # trapezoid's closed form imports on first use, inside a scope
    paths = blas.openblas_paths
    real = hide_libraries(monkeypatch)
    with blas.single_threaded():
        assert real() == {2}
        monkeypatch.setattr(blas, "openblas_paths", paths)
        monkeypatch.setattr(blas, "_read_at", -1)  # as after an import
        with blas.single_threaded():
            assert real() == {1}
    assert real() == {2}


def test_bound_getters_read_what_the_setters_set(counts):
    for set_, get in blas.bound().values():
        set_(1)
        assert get() == 1


def test_scopes_from_many_threads_leave_the_counts_as_found(counts):
    # the counts are process-wide: a lost update of the depth or of the
    # saved counts would leave a library at one thread, or at two inside
    def work():
        for _ in range(200):
            with blas.single_threaded():
                with blas.threaded(1, 1):
                    with blas.single_threaded():
                        pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert (blas._depth, blas._wide, blas._saved) == (0, 0, {})
    assert counts() == {2}


# --- routines ----------------------------------------------------------------

@pytest.fixture(params=["maps", "capsule"])
def source(request, monkeypatch):
    """Every routine bound afresh from the mapped OpenBLAS, or, with the
    maps reader stubbed to find nothing, from scipy's capsules."""
    if request.param == "maps":
        mapped_openblas()  # skips where there are no maps
    else:
        monkeypatch.setattr(blas, "openblas_paths", lambda: [])
    blas.routine.cache_clear()
    yield request.param
    blas.routine.cache_clear()


def test_routines_are_bound_from_the_source(source):
    for name in blas._PROTOTYPES:
        from_maps = blas._exported(name) is not None
        assert from_maps == (source == "maps")
        if source == "capsule":
            assert blas.routine(name).int_type == np.intc


def hermitian_band(n, kd, complex_):
    """Lower band form of a random Hermitian band matrix."""
    rng = np.random.default_rng(100 * n + kd)
    ab = rng.standard_normal((kd + 1, n))
    if complex_:
        ab = ab + 1j * rng.standard_normal((kd + 1, n))
        ab[0] = ab[0].real
    return ab


def upper_form(ab):
    """The upper band form of the Hermitian matrix with lower form ab."""
    kd = ab.shape[0] - 1
    up = np.zeros_like(ab)
    for d in range(kd + 1):
        up[kd - d, d:] = ab[d, :ab.shape[1] - d].conj()
    return up


BANDS = [(n, kd, c) for n in (1, 2, 50) for kd in (0, 1, 5)
         for c in (False, True)]


@pytest.mark.parametrize("n, kd, complex_", BANDS)
def test_band_eigvals_match_scipys_wrappers(source, n, kd, complex_):
    from scipy.linalg import eig_banded, eigvalsh_tridiagonal
    from scipy.linalg.lapack import dsbevd, zhbevd

    ab = hermitian_band(n, kd, complex_)
    bevd = zhbevd if complex_ else dsbevd
    with blas.single_threaded():
        assert np.array_equal(spectral._bevd(ab),
                              bevd(ab, compute_v=0, lower=1)[0])
        up = upper_form(ab)
        assert np.array_equal(spectral._bevd(up, lower=False),
                              bevd(up, compute_v=0, lower=0)[0])
        # the blocks of an operator: tridiagonal ones go to dstevd
        if kd == 0:
            expected = ab[0].real
        elif kd == 1:
            expected = eigvalsh_tridiagonal(ab[0].real, np.abs(ab[1, :-1]))
        else:
            expected = eig_banded(ab, lower=True, eigvals_only=True)
        assert np.array_equal(spectral._band_eigvals(ab), expected)


def general_band(n, lower, upper, complex_):
    """(general band form, dense matrix) of a random band matrix."""
    rng = np.random.default_rng(10 * n + lower)
    B = rng.standard_normal((n, n))
    if complex_:
        B = B + 1j * rng.standard_normal((n, n))
    i, j = np.indices((n, n))
    inside = (i - j <= lower) & (j - i <= upper)
    B[~inside] = 0
    w = max(lower, upper)
    ab = np.zeros((2 * w + 1, n), dtype=B.dtype)
    ab[w + i[inside] - j[inside], j[inside]] = B[inside]
    return ab, B


def capsule_routine(name):
    """The routine from scipy's capsule, as the band SVD bound it before."""
    return blas.Routine(name, blas._capsule(name)[1], np.intc)


@pytest.mark.parametrize("n", [1, 2, 50])
@pytest.mark.parametrize("lower, upper", [(0, 1), (1, 0), (2, 5), (5, 2),
                                          (3, 3)])
@pytest.mark.parametrize("complex_", [False, True])
def test_band_singular_values_keep_their_bits(source, monkeypatch, n, lower,
                                              upper, complex_):
    ab, B = general_band(n, lower, upper, complex_)
    with monkeypatch.context() as m:
        m.setattr(spectral, "routine", capsule_routine)
        expected = spectral._band_singular_values(ab)
    assert np.array_equal(spectral._band_singular_values(ab), expected)
    sv = np.linalg.svd(B, compute_uv=False)
    assert np.abs(expected - sv).max() <= 4 * n * np.finfo(float).eps * sv[0]


@pytest.mark.parametrize("m, dim", [(1, 1), (7, 5), (300, 60)])
def test_dense_updates_match_scipys_wrappers(source, m, dim):
    import scipy.linalg.blas as sblas

    rng = np.random.default_rng(m)
    C = np.asfortranarray(rng.standard_normal((m, dim))
                          + 1j * rng.standard_normal((m, dim)))
    X = np.asfortranarray(rng.standard_normal((dim, dim))
                          + 1j * rng.standard_normal((dim, dim)))
    phased = np.asfortranarray(C.conj())
    # on one thread, as assembly calls them: two threads may split the
    # sums of a zgemm differently in numpy's and scipy's OpenBLAS
    with blas.single_threaded():
        Y = X.copy(order="F")
        blas.routine("zherk")("U", "C", dim, m, -1.0, C, m, 1.0, Y, dim)
        assert np.array_equal(Y, sblas.zherk(-1.0, C, beta=1.0, c=X, trans=2))
        Y = X.copy(order="F")
        blas.routine("zgemm")("T", "N", dim, dim, m, 1.0, C, m, phased, m,
                              1.0, Y, dim)
        assert np.array_equal(Y, sblas.zgemm(1.0, C, phased, beta=1.0, c=X,
                                             trans_a=1))


@pytest.mark.parametrize("kd", [1, 5])
def test_non_finite_bands_raise(source, kd):
    ab = hermitian_band(6, kd, False)
    ab[0, 2] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        spectral._band_eigvals(ab)
    general, _ = general_band(6, kd, 1, True)
    general[kd, 3] = np.inf
    with pytest.raises(ValueError, match="infs or NaNs"):
        spectral._band_singular_values(general)


def test_nonzero_info_raises(source):
    # "X" is no uplo: dbdsqr reports its first argument as illegal
    unused = np.zeros(1)
    with pytest.raises(RuntimeError, match="dbdsqr failed with info -1"):
        blas.routine("dbdsqr")("X", 3, 0, 0, 0, np.ones(3), np.ones(3),
                               unused, 1, unused, 1, unused, 1, np.empty(12))


def test_routine_refuses_arrays_it_cannot_pass(source):
    dstevd = blas.routine("dstevd")
    args = ["N", 3, np.ones(3), np.ones(3), np.zeros(1), 1, np.empty(1), 1,
            0, 1]
    for bad in (np.ones(3, dtype=np.float32), np.ones((3, 2))[:, 0]):
        with pytest.raises(TypeError, match="dstevd"):
            dstevd(*args[:2], bad, *args[3:])
    with pytest.raises(TypeError, match="10 arguments"):
        dstevd(*args[:-1])
