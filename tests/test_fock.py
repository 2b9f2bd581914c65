import math

import numpy as np
import pytest

from szegolab.fock import FockTruncation, eval_basis_matrix


def kernel_closed_form(k, z, w):
    """Bergman kernel (k/pi)^N e^{k z.conj(w)} e^{-k|z|^2/2} e^{-k|w|^2/2}.

    The real part of the exponent is taken as -k|z - w|^2/2 in log form, so
    the value never overflows for large k|z||w|.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    log_mag = z.size * math.log(k / math.pi) - 0.5 * k * float(
        np.sum(np.abs(z - w) ** 2))
    return math.exp(log_mag) * np.exp(1j * k * np.sum(z * w.conj()).imag)


def kernel_sum(trunc, z, w):
    """Truncated kernel sum_n u_n(z) conj(u_n(w)) over the basis."""
    vals = eval_basis_matrix(trunc, np.array([z, w], dtype=complex))
    return complex(np.sum(vals[0] * vals[1].conj()))


def test_basis_size_is_binomial():
    for N, M in [(1, 5), (2, 7), (3, 4)]:
        trunc = FockTruncation(ambient_dim=N, k=2.0, max_degree=M)
        assert trunc.dim == math.comb(M + N, N)


def test_basis_ordering_graded_and_stable():
    trunc = FockTruncation(ambient_dim=2, k=1.0, max_degree=3)
    degrees = [sum(n) for n in trunc.basis]
    assert degrees == sorted(degrees)
    again = FockTruncation(ambient_dim=2, k=1.0, max_degree=3)
    assert trunc.basis == again.basis
    assert trunc.basis[:4] == ((0, 0), (1, 0), (0, 1), (2, 0))


def test_basis_norm_gaussian_integrals():
    # each normalized basis function has unit L^2 norm on C
    # Gauss-Legendre in the radius on [0, 12]
    x, wx = np.polynomial.legendre.leggauss(200)
    r, wr = 6.0 * (x + 1.0), 6.0 * wx
    for k in (1.0, 3.0):
        trunc = FockTruncation(1, k, 4)
        vals = eval_basis_matrix(trunc, (r + 0j)[:, None])
        mass = 2 * math.pi * (wr * r) @ np.abs(vals) ** 2
        assert mass == pytest.approx(np.ones(trunc.dim), rel=1e-12)


def test_eval_basis_values():
    trunc = FockTruncation(1, 1.0, 3)
    vals = eval_basis_matrix(trunc, [0j])[0]
    assert vals[trunc.basis.index((0,))] == pytest.approx(1 / math.sqrt(math.pi))
    assert vals[trunc.basis.index((1,))] == 0


def test_eval_basis_radial_maximum():
    k, n = 3.0, 4
    trunc = FockTruncation(1, k, 8)
    radii = np.linspace(0.2, 3.0, 400)
    column = trunc.basis.index((n,))
    vals = np.abs(eval_basis_matrix(trunc, (radii + 0j)[:, None])[:, column])
    r_star = radii[int(np.argmax(vals))]
    assert r_star ** 2 == pytest.approx(n / k, rel=0.02)


def test_kernel_diagonal_and_examples():
    t = FockTruncation(1, 3.0, 40)
    assert kernel_sum(t, [0j], [0j]) == pytest.approx(3 / math.pi, rel=1e-14)
    z = [0.4 + 0.2j]
    val = kernel_sum(t, z, z)
    assert val.imag == pytest.approx(0.0, abs=1e-15)
    assert val.real == pytest.approx(3 / math.pi, rel=1e-12)
    assert kernel_closed_form(3.0, z, z) == pytest.approx(3 / math.pi)
    t1 = FockTruncation(1, 1.0, 40)
    assert abs(kernel_sum(t1, [1 + 0j], [1j])) == pytest.approx(
        math.exp(-1) / math.pi, rel=1e-12)


def test_kernel_hermitian_symmetry_and_phase():
    trunc = FockTruncation(2, 7.0, 80)
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        w = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        kzw = kernel_sum(trunc, z, w)
        assert kzw == pytest.approx(np.conj(kernel_sum(trunc, w, z)),
                                    rel=1e-12)
        omega = np.imag(np.sum(z * np.conj(w)))
        expect = (7.0 / math.pi) ** 2 * math.exp(
            -3.5 * float(np.sum(np.abs(z - w) ** 2))) * np.exp(7j * omega)
        assert kernel_closed_form(7.0, z, w) == pytest.approx(expect,
                                                              rel=1e-12)
        assert kzw == pytest.approx(expect, rel=1e-9)


def test_kernel_no_overflow_large_k():
    # (sqrt(k)|z|)^M = 60^1600 overflows unless the tables stay in log form
    trunc = FockTruncation(1, 400.0, 1600)
    vals = eval_basis_matrix(trunc, [[3 + 0j], [2.5 + 0j]])
    assert np.all(np.isfinite(vals))
    assert np.isfinite(kernel_sum(trunc, [3 + 0j], [2.5 + 0j]))


def test_truncated_kernel_completeness():
    k, M = 6.0, 24
    trunc = FockTruncation(1, k, M)
    # k|z|^2, k|w|^2 <= M/4
    z, w = 0.9 + 0.2j, 0.5 - 0.7j
    partial = kernel_sum(trunc, [z], [w])
    exact = kernel_closed_form(k, [z], [w])
    assert abs(partial - exact) <= 1e-8 * (k / math.pi)


def test_coherent_state_coeffs():
    # the coherent state e_w has the coefficient conj(u_n(w)) on u_n
    trunc = FockTruncation(1, 1.0, 12)
    c0 = eval_basis_matrix(trunc, [0j])[0].conj()
    assert np.count_nonzero(np.abs(c0) > 1e-14) == 1
    cw = eval_basis_matrix(trunc, [1 + 0j])[0].conj()
    bound = (1.0 / math.pi)
    assert np.sum(np.abs(cw) ** 2) <= bound + 1e-12
    # |c_n|^2 = e^{-1} / (pi n!)
    for n in range(5):
        idx = trunc.basis.index((n,))
        assert abs(cw[idx]) ** 2 == pytest.approx(
            math.exp(-1) / (math.pi * math.factorial(n)))


def test_eval_basis_matrix_zero_coordinate_masking():
    trunc = FockTruncation(2, 2.0, 2)
    vals = eval_basis_matrix(trunc, np.array([[0j, 1.0 + 0j]]))[0]
    assert np.all(np.isfinite(vals))
    idx = trunc.basis.index((1, 0))
    assert vals[idx] == 0
    idx2 = trunc.basis.index((0, 1))
    assert vals[idx2] != 0


def log_magnitude_formula(trunc, pts):
    """exp(sum n_j log|z_j| - k|z|^2/2 - log norm + i sum n_j arg z_j)."""
    k, N = trunc.k, trunc.ambient_dim
    E = np.array(trunc.basis, dtype=float)
    zero = pts == 0
    logabs = np.log(np.abs(np.where(zero, 1.0, pts)))
    lg = np.array([sum(math.lgamma(nj + 1) for nj in n) for n in trunc.basis])
    log_norm = 0.5 * (N * math.log(math.pi) + lg - (E.sum(axis=1) + N)
                      * math.log(k))
    logmag = logabs @ E.T - 0.5 * k * np.sum(np.abs(pts) ** 2, axis=1)[:, None]
    vals = np.exp(logmag - log_norm + 1j * (np.angle(pts) @ E.T))
    vals[(zero.astype(int) @ (E.T > 0).astype(int)) > 0] = 0.0
    return vals


@pytest.mark.parametrize("N,k,M,spread", [
    (1, 3.0, 20, 1.5), (2, 5.0, 16, 1.0), (3, 2.0, 9, 1.0),
    (1, 400.0, 1600, 0.1),
])
def test_factorized_basis_matches_log_magnitude_formula(N, k, M, spread):
    trunc = FockTruncation(N, k, M)
    rng = np.random.default_rng(N + M)
    # radii around sqrt(M / (k N)), where the top degrees peak
    radius = math.sqrt(M / (k * N)) * (1.0 + spread
                                       * rng.uniform(-1, 1, (60, N)))
    pts = radius * np.exp(1j * rng.uniform(0, 2 * math.pi, (60, N)))
    pts[:6, 0] = 0.0
    if N > 1:
        pts[3:9, -1] = 0.0
    vals = eval_basis_matrix(trunc, pts)
    expect = log_magnitude_formula(trunc, pts)
    assert vals.shape == (60, trunc.dim)
    assert np.all(np.isfinite(vals))
    normal = np.abs(expect) > 1e-250
    assert normal.sum() > 0.2 * normal.size
    rel = np.abs(vals - expect)[normal] / np.abs(expect)[normal]
    assert rel.max() <= 1e-10
    assert np.abs(vals[~normal]).max(initial=0.0) <= 1e-240
    assert np.array_equal(vals[expect == 0], expect[expect == 0])


def recursive_exponents(N, M):
    """Graded, then lexicographically descending, by recursive compositions."""
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    out = []
    for degree in range(M + 1):
        out.extend(sorted(compositions(degree, N), reverse=True))
    return out


@pytest.mark.parametrize("N,M", [(1, 1600), (2, 48), (3, 12), (4, 6)])
def test_exponents_match_recursive_compositions(N, M):
    trunc = FockTruncation(ambient_dim=N, k=1.0, max_degree=M)
    E = trunc.exponent_matrix
    assert E.dtype == np.int64
    assert E.tolist() == [list(n) for n in recursive_exponents(N, M)]
    assert trunc.dim == E.shape[0]


def test_basis_tuples_are_built_only_when_read():
    trunc = FockTruncation(ambient_dim=2, k=3.0, max_degree=6)
    eval_basis_matrix(trunc, np.array([[0.1 + 0.2j, -0.3j]]))
    assert trunc.dim == 28
    assert "basis" not in vars(trunc)
    assert trunc.basis == tuple(map(tuple, trunc.exponent_matrix.tolist()))
