import math
import warnings

import numpy as np
import pytest

from szegolab import _blas as blas
from szegolab import spectral
from szegolab.assembly import BlockLayout, HermitianOperator, TruncationWarning
from szegolab.fock import FockTruncation
from szegolab.spectral import (
    SpectralSummary,
    eigensolve,
    entropy,
    entropy_function,
    indicator_function,
    power_function,
    rate_regression,
    schatten_sum,
    singular_values,
    trace_phi,
    trapezoid_function,
    weyl_count,
)


def make_op(matrix, k=5.0, hermitian=True):
    M = matrix.shape[0] - 1
    trunc = FockTruncation(1, k, M)
    layout = BlockLayout.of_matrix(np.asarray(matrix, dtype=complex))
    return HermitianOperator(layout, trunc=trunc, hermitian=hermitian,
                             symbol_mass=1.0)


def test_eigensolve_zero_matrix():
    summary = eigensolve(make_op(np.zeros((4, 4))))
    assert np.array_equal(summary.eigenvalues, np.zeros(4))


def test_eigensolve_pauli_x():
    summary = eigensolve(make_op(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert summary.eigenvalues == pytest.approx([1.0, -1.0])


def test_eigensolve_requires_hermitian():
    op = make_op(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=False)
    with pytest.raises(ValueError):
        eigensolve(op)


def test_eigenvalues_sorted_descending():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    summary = eigensolve(make_op(A + A.conj().T))
    assert np.all(np.diff(summary.eigenvalues) <= 0)


def summary_from(eigs):
    return SpectralSummary(eigenvalues=np.sort(eigs)[::-1].astype(float))


def test_trace_phi_identity_and_powers():
    s = summary_from([0.5, 0.25, 0.125])
    ident = power_function(1)
    assert trace_phi(s, ident) == pytest.approx(0.875)
    sq = power_function(2)
    assert trace_phi(s, sq) == pytest.approx(0.25 + 0.0625 + 0.015625)
    assert sq.p == 2


def test_trace_phi_clamps_tiny_negatives():
    s = summary_from([1.0, -1e-12])
    ent = entropy_function()
    val = trace_phi(s, ent)
    assert np.isfinite(val)
    assert val == pytest.approx(0.0, abs=1e-10)


def test_weyl_count_closed_interval():
    s = summary_from([0.1, 0.2, 0.3, 0.7, 0.9])
    assert weyl_count(s, (0.2, 0.7)) == 3
    assert weyl_count(s, (0.05, 1.0)) == 5
    assert weyl_count(s, (0.75, 0.8)) == 0
    # counting is additive over a partition split strictly between eigenvalues
    assert weyl_count(s, (0.05, 0.25)) + weyl_count(s, (0.2500001, 1.0)) == 5
    with pytest.raises(ValueError):
        weyl_count(s, (0.0, 1.0))


def test_schatten_sums():
    matrix = np.diag([3.0, -4.0])
    op = make_op(matrix)
    assert schatten_sum(op, 2) == pytest.approx(25.0)
    assert schatten_sum(op, 1) == pytest.approx(7.0)
    # non-Hermitian matrix: singular values, not eigenvalue magnitudes
    shear = make_op(np.array([[0.0, 2.0], [0.0, 0.0]]), hermitian=False)
    assert schatten_sum(shear, 2) == pytest.approx(4.0)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_schatten_sum_non_normal_known_singular_values(p):
    # A = U diag(s) V^H with unrelated unitaries is far from normal; s spans
    # eight decades, where the Gram route S^H S loses the small values
    rng = np.random.default_rng(5)
    n = 12
    s = np.logspace(0, -8, n)
    U, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    A = (U * s) @ V.conj().T
    assert np.abs(A @ A.conj().T - A.conj().T @ A).max() > 0.1
    op = make_op(A, hermitian=False)
    assert schatten_sum(op, p) == pytest.approx(np.sum(s ** p), rel=1e-12)


def test_schatten_sum_sequence_of_p_matches_scalar_calls():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    op = make_op(A, hermitian=False)
    ps = [0.5, 1.0, 2.0]
    sums = schatten_sum(op, ps)
    assert sums == [schatten_sum(op, p) for p in ps]
    assert isinstance(schatten_sum(op, 1.0), float)
    assert singular_values(op) == pytest.approx(
        np.linalg.svd(A, compute_uv=False), rel=1e-14)
    with pytest.raises(ValueError):
        schatten_sum(op, [1.0, 0.0])


def test_eigensolve_of_diagonal_matrix_equals_eigvalsh():
    rng = np.random.default_rng(4)
    diag = rng.normal(size=40) * np.logspace(0, -200, 40)
    diag[::7] = 0.0
    op = make_op(np.diag(diag))
    # a dense block goes to eigvalsh even when it is exactly diagonal, and
    # eigvalsh returns that diagonal sorted, bit for bit
    expect = np.linalg.eigvalsh(op.matrix)[::-1]
    assert np.array_equal(eigensolve(op).eigenvalues, expect)
    assert np.array_equal(expect, np.sort(diag)[::-1])
    # and with one off-diagonal entry it still matches eigvalsh
    tilted = np.diag(diag).astype(complex)
    tilted[0, 1] = tilted[1, 0] = 1e-3
    assert eigensolve(make_op(tilted)).eigenvalues == pytest.approx(
        np.linalg.eigvalsh(tilted)[::-1], abs=1e-15)


def test_entropy_rank_one_and_uniform():
    assert entropy(summary_from([1.0, 0.0, 0.0])) == pytest.approx(0.0)
    n = 8
    val = entropy(summary_from([1.0 / n] * n))
    assert val == pytest.approx(math.log(n))
    with pytest.raises(ValueError):
        entropy(summary_from([0.5, 0.1]))


def test_rate_regression_power_laws():
    ks = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    fit = rate_regression(ks, 5.0 + 3.0 / ks, 5.0)
    assert fit.slope == pytest.approx(-1.0, abs=1e-8)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-8)
    fit2 = rate_regression(ks, 2.0 / ks ** 2, 0.0)
    assert fit2.slope == pytest.approx(-2.0, abs=1e-8)
    assert not fit.converged_below_noise


def test_rate_regression_noise_floor():
    ks = np.array([10.0, 20.0, 40.0])
    fit = rate_regression(ks, np.full(3, 1.0 + 1e-15), 1.0)
    assert fit.converged_below_noise
    with pytest.raises(ValueError):
        rate_regression([10.0], [1.0], 0.0)


def test_trapezoid_function_shape():
    phi = trapezoid_function(0.2, 0.4, 0.6, 0.8)
    xs = np.array([0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    vals = phi.fn(xs)
    assert vals[0] == 0 and vals[1] == 0
    assert vals[2] == pytest.approx(0.5)
    assert vals[3] == 1.0
    assert vals[4] == pytest.approx(0.5)
    assert vals[5] == 0


def test_indicator_function_counts_the_closed_interval():
    phi = indicator_function(0.2, 0.7)
    s = SpectralSummary(np.array([0.9, 0.7, 0.5, 0.2, 0.1, 0.0]))
    assert trace_phi(s, phi) == weyl_count(s, (0.2, 0.7)) == 3
    # a jump: the only test function without the decrease gate
    assert not phi.continuous
    assert all(f.continuous for f in (power_function(2), entropy_function(),
                                      trapezoid_function(0.1, 0.2, 0.3, 0.4)))
    with pytest.raises(ValueError, match="0 < lo <= hi"):
        indicator_function(0.7, 0.2)


@pytest.mark.parametrize("k", [25.0, 50.0, 100.0, 200.0])
def test_band_singular_values_keep_the_frobenius_norm(k):
    # the Schatten check's complex circle operators, whose one-sided
    # banded blocks go through ?gbbrd and dbdsqr: sum sigma^2 = ||T||_F^2
    # to 2e-15 relative (9.6e-16 at worst, at k = 50; the dense SVD gives
    # 1.9e-16 to 5.4e-16)
    from szegolab.acceptance import Lab

    T = Lab().circle_op(k, "complex")
    assert T.layout.widths.max() > 0 and not T.layout.dense
    sv = singular_values(T)
    parts = T.matrix.view(np.float64).ravel()
    frobenius2 = math.fsum((parts * parts).tolist())
    assert abs(math.fsum((sv * sv).tolist()) - frobenius2) <= 2e-15 * frobenius2


@pytest.mark.parametrize("name", sorted(blas._PROTOTYPES))
def test_lapack_capsules_match_their_prototypes(name):
    # scipy's C signature of each bound routine, read from its capsule,
    # against the ctypes prototype the binding declares
    signature, pointer = blas._capsule(name)
    assert pointer
    assert blas._kinds(signature) == blas._PROTOTYPES[name]
    kinds = blas._PROTOTYPES[name].split()
    fn = blas.Routine(name, pointer, np.intc)._fn
    # and one hidden length per character argument
    assert len(fn.argtypes) == len(kinds) + kinds.count("c")


def test_lapack_binding_refuses_another_signature(monkeypatch):
    # with no mapped OpenBLAS the routine comes from scipy's capsule
    monkeypatch.setattr(blas, "openblas_paths", lambda: [])
    monkeypatch.setitem(blas._PROTOTYPES, "dbdsqr",
                        "c i i i i d d d i d i d i i i")
    blas.routine.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="dbdsqr"):
            blas.routine("dbdsqr")
    finally:
        blas.routine.cache_clear()


def dsl_torus_operators(k):
    """The two operators of the benchmark's DSL torus config at fixed
    phases: the real amplitude and the complex [re, im] one."""
    from szegolab import cli

    torus = {"kind": "custom", "dim": 2, "ambient_dim": 2,
             "coords": ["cos(t1)", "sin(t1)", "0.7*cos(t2)", "0.7*sin(t2)"],
             "periodic": [True, True],
             "domain": [[0.0, 2 * math.pi], [0.0, 2 * math.pi]]}
    amplitudes = ["1 + 0.25*cos(t1 + 2.1) + 0.25*cos(t2 + 5.3)",
                  ["1 + 0.5*cos(t1 + 0.4)", "0.5*sin(t2 + 3.9)"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return [cli.Experiment({"manifold": torus, "amplitude": a})
                .operator(k)[0] for a in amplitudes]


def test_dsl_torus_blocks_are_level_ordered_bands(monkeypatch):
    called = []
    bound = spectral.routine
    monkeypatch.setattr(spectral, "routine",
                        lambda name: called.append(name) or bound(name))
    real, complex_ = dsl_torus_operators(12.0)
    eps = np.finfo(np.float64).eps
    for op in (real, complex_):
        layout = op.layout
        assert layout.bounds.tolist() == [0, op.dim] and not layout.dense
        assert layout.widths.max() <= 30
        assert layout.band.dtype == np.float64
    eigs = np.linalg.eigvalsh(real.matrix)[::-1]
    tol = real.dim * eps * eigs[0]
    assert np.abs(eigensolve(real).eigenvalues - eigs).max() <= tol
    assert called == ["dsbevd"]
    called.clear()
    sv = np.linalg.svd(complex_.matrix, compute_uv=False)
    tol = complex_.dim * eps * sv[0]
    assert np.abs(singular_values(complex_) - sv).max() <= tol
    assert called == ["dgbbrd", "dbdsqr"]
