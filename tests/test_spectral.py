import math

import numpy as np
import pytest

from szegolab.assembly import HermitianOperator
from szegolab.fock import FockTruncation
from szegolab.spectral import (
    SpectralSummary,
    eigensolve,
    entropy,
    entropy_function,
    power_function,
    rate_regression,
    schatten_sum,
    singular_values,
    trace_distance,
    trace_phi,
    trapezoid_function,
    weyl_count,
)


def make_op(matrix, k=5.0, hermitian=True, normalization="scaled_S"):
    M = matrix.shape[0] - 1
    trunc = FockTruncation(1, k, M)
    return HermitianOperator(matrix=np.asarray(matrix, dtype=complex),
                             trunc=trunc, normalization=normalization,
                             scale_factor=1.0, hermitian=hermitian,
                             manifold_dim=1, d_prime=1, symbol_mass=1.0)


def test_eigensolve_zero_matrix():
    summary = eigensolve(make_op(np.zeros((4, 4))))
    assert np.array_equal(summary.eigenvalues, np.zeros(4))
    assert summary.k == 5.0


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


def summary_from(eigs, k=5.0):
    return SpectralSummary(eigenvalues=np.sort(eigs)[::-1].astype(float),
                           k=k, ambient_dim=1, manifold_dim=1, d_prime=1,
                           normalization="scaled_S")


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
    expect = np.linalg.eigvalsh(op.matrix)[::-1]
    assert np.array_equal(eigensolve(op).eigenvalues, expect)
    # one off-diagonal entry sends it to the eigensolver
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


def test_trace_distance_extremes():
    a = make_op(np.diag([0.6, 0.4]))
    assert trace_distance(a, a) == pytest.approx(0.0)
    b = make_op(np.diag([1.0, 0.0]))
    c = make_op(np.diag([0.0, 1.0]))
    # orthogonal supports: trace distance equals 2
    assert trace_distance(b, c) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        trace_distance(a, make_op(np.zeros((3, 3))))


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
