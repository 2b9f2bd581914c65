import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

import szegolab.manifold as mfd
from szegolab.assembly import (
    CostLimitError,
    TruncationWarning,
    assemble_T,
    assemble_polynomial_multiplier,
    covariant_symbol,
    exact_trace,
    mixed_trace_polynomial_H,
    nfold_trace_integral,
    pair_trace_integral,
    read_matrix,
    scale_to_S,
    write_matrix,
)
from szegolab.fock import FockTruncation, eval_basis_matrix


def circle_setup(k, r=1.0, M=None, order=None):
    sub = mfd.circle(r)
    M = M if M is not None else math.ceil(4 * k * r * r)
    quad = mfd.quadrature(sub, order if order is not None else 2 * M + 9)
    trunc = FockTruncation(1, k, M)
    return sub, trunc, quad


def poisson_lambdas(k, M, r=1.0):
    n = np.arange(M + 1)
    return 2 * k * r * np.exp((2 * n + 0) * math.log(r) + n * math.log(k)
                              - k * r * r - gammaln(n + 1))


def test_zero_amplitude_gives_zero_matrix():
    sub, trunc, quad = circle_setup(5.0)
    op = assemble_T(trunc, sub, 0.0, quad)
    assert np.abs(op.matrix).max() == 0


def test_circle_matrix_is_diagonal_poisson():
    k = 12.0
    sub, trunc, quad = circle_setup(k)
    op = assemble_T(trunc, sub, None, quad)
    diag = np.diag(op.matrix).real
    expect = poisson_lambdas(k, trunc.max_degree)
    assert np.allclose(diag, expect, rtol=1e-12)
    off = op.matrix - np.diag(np.diag(op.matrix))
    assert np.abs(off).max() <= 1e-10 * diag.max()


def test_torus_matrix_diagonal_product_formula():
    k, radii = 6.0, (1.0, 0.7)
    sub = mfd.torus_product(radii)
    M = math.ceil(4 * k * sum(r * r for r in radii))
    quad = mfd.quadrature(sub, 2 * M + 9)
    trunc = FockTruncation(2, k, M)
    op = assemble_T(trunc, sub, None, quad)
    diag = np.diag(op.matrix).real
    for i, n in enumerate(trunc.basis[:40]):
        expect = 1.0
        for nj, r in zip(n, radii):
            expect *= 2 * k * r * r ** (2 * nj) * k ** nj \
                * math.exp(-k * r * r) / math.factorial(nj)
        assert diag[i] == pytest.approx(expect, rel=1e-12)
    off = op.matrix - np.diag(np.diag(op.matrix))
    assert np.abs(off).max() <= 1e-10 * diag.max()


def test_scale_to_S_factors():
    sub, trunc, quad = circle_setup(1.0, M=6, order=32)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        op = assemble_T(trunc, sub, None, quad)
    S = scale_to_S(op, 1)
    assert S.scale_factor == pytest.approx(2 ** -0.5 * math.sqrt(math.pi))
    assert S.normalization == "scaled_S"
    with pytest.raises(ValueError):
        scale_to_S(S, 1)
    # plane: d = 2N, d' = 0 gives factor 1
    plane = mfd.plane_patch([[-0.8, 0.8]] * 4)
    pq = mfd.quadrature(plane, 6)
    pt = FockTruncation(2, 4.0, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        pop = assemble_T(pt, plane, None, pq)
    assert scale_to_S(pop, 0).scale_factor == pytest.approx(1.0)


def test_exact_trace_circle_and_torus():
    k = 20.0
    sub, trunc, quad = circle_setup(k)
    op = assemble_T(trunc, sub, None, quad)
    observed, predicted, gap = exact_trace(op)
    assert predicted == pytest.approx(2 * k)
    assert gap <= 1e-10
    sub2 = mfd.torus_product([1.0, 0.5])
    k2 = 5.0
    quad2 = mfd.quadrature(sub2, 24)
    trunc2 = FockTruncation(2, k2, 25)
    op2 = assemble_T(trunc2, sub2, None, quad2)
    _, predicted2, gap2 = exact_trace(op2)
    assert predicted2 == pytest.approx((k2 / math.pi) ** 2
                                       * (2 * math.pi) ** 2 * 0.5)
    assert gap2 <= 1e-8


def test_truncation_warning_fires_for_small_M():
    sub, trunc, quad = circle_setup(10.0, M=8, order=64)
    with pytest.warns(TruncationWarning):
        assemble_T(trunc, sub, None, quad)


def test_pair_trace_matches_poisson_and_is_symmetric():
    k = 15.0
    sub, trunc, quad = circle_setup(k)
    value = pair_trace_integral(sub, None, None, quad, k)
    expect = float(np.sum(poisson_lambdas(k, 200) ** 2))
    assert value == pytest.approx(expect, rel=1e-8)
    a = lambda t: 1.0 + np.cos(t[:, 0])
    assert pair_trace_integral(sub, a, None, quad, k) == pytest.approx(
        pair_trace_integral(sub, None, a, quad, k), rel=1e-12)
    assert pair_trace_integral(sub, None, 0.0, quad, k) == 0


def test_nfold_trace_reduces_to_pair_and_matches_cubes():
    k = 10.0
    sub, trunc, quad = circle_setup(k)
    two = nfold_trace_integral(sub, [None, None], quad, k)
    assert two.imag == pytest.approx(0.0, abs=1e-8 * abs(two))
    assert two.real == pytest.approx(
        pair_trace_integral(sub, None, None, quad, k), rel=1e-10)
    three = nfold_trace_integral(sub, [None, None, None], quad, k)
    expect = float(np.sum(poisson_lambdas(k, 200) ** 3))
    assert three.real == pytest.approx(expect, rel=1e-7)
    assert nfold_trace_integral(sub, [None, 0.0, None], quad, k) == 0


def test_nfold_cost_budget():
    sub, trunc, quad = circle_setup(10.0)
    with pytest.raises(CostLimitError):
        nfold_trace_integral(sub, [None, None], quad, 10.0, budget=10.0)


def test_polynomial_multiplier_identity_and_number_operator():
    trunc = FockTruncation(1, 3.0, 6)
    ident = assemble_polynomial_multiplier(trunc, [(1.0, (0,), (0,))])
    assert np.allclose(ident, np.eye(trunc.dim), atol=1e-12)
    # |z|^2 acts diagonally with <n| |z|^2 |n> = (n+1)/k
    num = assemble_polynomial_multiplier(trunc, [(1.0, (1,), (1,))])
    diag = np.diag(num).real
    for n in range(trunc.dim - 1):
        assert diag[n] == pytest.approx((n + 1) / 3.0)


def test_mixed_trace_polynomial_H():
    k = 25.0
    sub, trunc, quad = circle_setup(k)
    # H = 1 reduces to the plain trace identity
    obs, pred, gap = mixed_trace_polynomial_H(trunc, sub, None,
                                              [(1.0, (0,), (0,))], quad)
    assert obs.real == pytest.approx(2 * k, rel=1e-10)
    assert gap <= 1e-10
    # H = |z|^2 equals 1 on the circle, prediction 2k, gap O(1/k)
    obs2, pred2, gap2 = mixed_trace_polynomial_H(trunc, sub, None,
                                                 [(1.0, (1,), (1,))], quad)
    assert pred2.real == pytest.approx(2 * k, rel=1e-12)
    assert gap2 <= 5.0 / k
    # H = z has zero prediction by symmetry
    obs3, pred3, _ = mixed_trace_polynomial_H(trunc, sub, None,
                                              [(1.0, (1,), (0,))], quad)
    assert abs(pred3) <= 1e-10
    assert abs(obs3) <= 1e-10


def test_mixed_trace_gap_shrinks_like_one_over_k():
    gaps = []
    for k in (10.0, 20.0, 40.0):
        sub, trunc, quad = circle_setup(k)
        _, _, gap = mixed_trace_polynomial_H(trunc, sub, None,
                                             [(1.0, (1,), (1,))], quad)
        gaps.append(gap)
    assert gaps[1] == pytest.approx(gaps[0] / 2, rel=0.2)
    assert gaps[2] == pytest.approx(gaps[1] / 2, rel=0.2)


def test_covariant_symbol():
    k = 30.0
    sub, trunc, quad = circle_setup(k)
    far = covariant_symbol(trunc, sub, None, quad, [4.0 + 0j])
    assert far <= 1e-15 * (k / math.pi)
    on_gamma = covariant_symbol(trunc, sub, None, quad, [1.0 + 0j])
    # on the submanifold the scaled symbol stays bounded as k grows
    assert 0.1 <= on_gamma * (math.pi / k) ** 0.5 <= 10.0


def test_complex_amplitude_not_hermitian():
    k = 8.0
    sub, trunc, quad = circle_setup(k)
    op = assemble_T(trunc, sub, lambda t: np.exp(1j * t[:, 0]), quad)
    assert not op.hermitian
    assert np.abs(op.matrix - op.matrix.conj().T).max() > 1e-6


def test_matrix_export_roundtrip(tmp_path):
    sub, trunc, quad = circle_setup(6.0, M=28)
    op = assemble_T(trunc, sub, None, quad)
    path = tmp_path / "op.bin"
    write_matrix(op, path)
    assert path.stat().st_size == 16 + 16 * op.dim ** 2
    matrix, k, N, M = read_matrix(path)
    assert (k, N, M) == (6.0, 1, trunc.max_degree)
    assert np.array_equal(matrix, op.matrix)


def gemm_reference(trunc, quad, a):
    """sum over nodes of w a conj(u(z))^T u(z), as one dense product."""
    T = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    for block in quad.blocks:
        av = a(block.nodes) if callable(a) else (1.0 if a is None else a)
        B = eval_basis_matrix(trunc, block.points)
        T += (B.conj() * (block.weights * av)[:, None]).T @ B
    return T


def two_chart_circle():
    """Unit circle covered twice, the two charts weighted cos^2 and sin^2."""
    (chart,) = mfd.circle(1.0).charts
    shift = 0.3

    def gamma(t):
        return chart.gamma(t + shift)

    def jac(t):
        return chart.jacobian(t + shift)

    first = dataclasses.replace(
        chart, pou_weight=lambda t: np.cos(t[:, 0]) ** 2)
    second = dataclasses.replace(
        chart, gamma=gamma, jacobian=jac,
        pou_weight=lambda t: np.sin(t[:, 0] + shift) ** 2)
    return mfd.ChartedSubmanifold(ambient_dim=1, charts=(first, second),
                                  label="circle, two charts")


def reference_cases():
    k, M = 20.0, 80
    circle = mfd.circle(1.0)
    circle_quad = mfd.quadrature(circle, 2 * M + 9)
    sphere = mfd.sphere3(1.0)
    twice = two_chart_circle()
    return {
        "signed_cos": (FockTruncation(1, k, M), circle, circle_quad,
                       lambda t: np.cos(t[:, 0])),
        "negative_scalar": (FockTruncation(1, k, M), circle, circle_quad,
                            -1.5),
        "sphere3": (FockTruncation(2, 4.0, 20), sphere,
                    mfd.quadrature(sphere, [11, 21, 21]),
                    lambda t: 1.0 + 0.5 * np.cos(t[:, 1])),
        "two_charts": (FockTruncation(1, k, M), twice,
                       mfd.quadrature(twice, 2 * M + 9),
                       lambda t: 0.3 + np.cos(t[:, 0])),
        "complex": (FockTruncation(1, k, M), circle, circle_quad,
                    lambda t: np.exp(1j * t[:, 0]) * (1.0 + np.cos(t[:, 0]))),
    }


@pytest.mark.parametrize("case", ["signed_cos", "negative_scalar", "sphere3",
                                  "two_charts", "complex"])
def test_rank_k_assembly_matches_gemm_reference(case):
    trunc, sub, quad, a = reference_cases()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        op = assemble_T(trunc, sub, a, quad)
    expect = gemm_reference(trunc, quad, a)
    scale = np.abs(expect).max()
    assert np.abs(op.matrix - expect).max() <= 1e-13 * scale
    assert op.hermitian == (case != "complex")
    if op.hermitian:
        assert np.array_equal(op.matrix, op.matrix.conj().T)
        assert np.all(np.diag(op.matrix).imag == 0)
    else:
        assert np.abs(op.matrix - op.matrix.conj().T).max() > 1e-3 * scale


def test_two_chart_quadrature_covers_circle_once():
    quad = mfd.quadrature(two_chart_circle(), 64)
    assert len(quad.blocks) == 2
    assert quad.total_mass == pytest.approx(2 * math.pi, rel=1e-12)


def test_circle_k400_has_no_subnormals_and_tiny_flush_bound():
    k = 400.0
    sub, trunc, quad = circle_setup(k)
    op = assemble_T(trunc, sub, None, quad)
    parts = op.matrix.view(np.float64)
    tiny = np.finfo(np.float64).tiny
    assert not np.any((np.abs(parts) < tiny) & (parts != 0))
    # the largest diagonal entry is a lower bound of lambda_max
    lam = np.abs(np.diag(op.matrix)).max()
    assert 0 < op.flush_bound <= 1e-60 * lam
    S = scale_to_S(op, 1)
    assert S.flush_bound == pytest.approx(S.scale_factor * op.flush_bound)


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg takes longer to import than the package itself; assembly
    # loads its BLAS wrappers on first use
    code = ("import sys, szegolab; "
            "sys.exit('scipy.linalg' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
