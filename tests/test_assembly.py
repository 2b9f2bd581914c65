import dataclasses
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

import szegolab.assembly as asm
import szegolab.manifold as mfd
from szegolab.assembly import (
    CostLimitError,
    TruncationWarning,
    assemble_T,
    exact_trace,
    nfold_trace_integral,
    pair_trace_integral,
)
from szegolab.fock import FockTruncation, eval_basis_matrix
from szegolab.spectral import eigensolve


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


def test_nfold_trace_matches_identity_started_chain():
    # the chain as first written: n gemms from the identity, then the trace
    sub = mfd.parabola_patch((-1.0, 1.0), (-1.0, 1.0))
    quad = mfd.quadrature(sub, 10)
    k = 12.0
    amps = [lambda t: 1.0 + 0.5 * t[:, 0], lambda t: np.cos(t[:, 1]),
            None, lambda t: 1.0 - 0.3 * t[:, 0] * t[:, 1]]
    pts, w = quad.points, quad.weights
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.sum(np.abs(diff) ** 2, axis=2)
    kernel = np.exp(-0.5 * k * d2 + 1j * k * np.imag(pts @ pts.conj().T))
    for n in (2, 3, 4):
        chain = np.eye(pts.shape[0], dtype=complex)
        for a in amps[:n]:
            chain = chain @ ((w * mfd.amp_values(a, quad))[:, None] * kernel)
        expect = (k / math.pi) ** (2 * n) * np.trace(chain)
        value = nfold_trace_integral(sub, amps[:n], quad, k)
        assert abs(value - expect) <= 1e-13 * abs(expect)


def test_nfold_cost_budget(monkeypatch):
    sub, trunc, quad = circle_setup(10.0)
    monkeypatch.setattr(asm, "_NFOLD_BUDGET", 10.0)
    with pytest.raises(CostLimitError):
        nfold_trace_integral(sub, [None, None], quad, 10.0)


def test_complex_amplitude_not_hermitian():
    k = 8.0
    sub, trunc, quad = circle_setup(k)
    op = assemble_T(trunc, sub, lambda t: np.exp(1j * t[:, 0]), quad)
    assert not op.hermitian
    assert np.abs(op.matrix - op.matrix.conj().T).max() > 1e-6


def gemm_reference(trunc, quad, a):
    """sum over nodes of w a conj(u(z))^T u(z), as one dense product."""
    av = a(quad.nodes) if callable(a) else (1.0 if a is None else a)
    B = eval_basis_matrix(trunc, quad.points)
    return (B.conj() * (quad.weights * av)[:, None]).T @ B


TWO_PI = 2.0 * math.pi


def dsl_torus(coords=("cos(t1)", "sin(t1)", "0.7*cos(t2)", "0.7*sin(t2)")):
    return mfd.custom_chart(2, 2, list(coords), [True, True],
                            [[0.0, TWO_PI], [0.0, TWO_PI]], label="torus")


def wobbly_circle():
    """Periodic DSL chart of the curve |z| = 1 + 0.1 cos t: no rotation."""
    return mfd.custom_chart(1, 1, ["(1 + 0.1*cos(t1))*cos(t1)",
                                   "(1 + 0.1*cos(t1))*sin(t1)"],
                            [True], [[0.0, TWO_PI]], label="wobbly")


def reference_cases():
    k, M = 20.0, 80
    circle = mfd.circle(1.0)
    circle_quad = mfd.quadrature(circle, 2 * M + 9)
    sphere = mfd.sphere3(1.0)
    parabola = mfd.parabola_patch()
    flat = mfd.torus_product([1.0, 0.7], ambient_dim=3)
    torus_amp = lambda t: 1.0 + 0.5 * np.cos(t[:, 0] - 2.0 * t[:, 1])
    sphere_amp = lambda t: 1.0 + 0.5 * np.cos(t[:, 1]) + 0.2 * np.sin(t[:, 2])
    return {
        "torus_zero_coordinate": (FockTruncation(3, 3.0, 12), flat,
                                  mfd.quadrature(flat, 24), torus_amp),
        "dsl_torus": (FockTruncation(2, 4.0, 16), dsl_torus(),
                      mfd.quadrature(dsl_torus(), 16), torus_amp),
        "dsl_wobbly_dense": (FockTruncation(1, k, M), wobbly_circle(),
                             mfd.quadrature(wobbly_circle(), 2 * M + 9),
                             lambda t: 1.0 + np.cos(t[:, 0])),
        # 48 rotation nodes per radial node take the dense path, 144 the
        # sector sum
        "sphere3_dense_grid": (FockTruncation(2, 4.0, 20), sphere,
                               mfd.quadrature(sphere, [30, 6, 8]), sphere_amp),
        "sphere3_sector_grid": (FockTruncation(2, 4.0, 20), sphere,
                                mfd.quadrature(sphere, [12, 12, 12]),
                                sphere_amp),
        "signed_cos": (FockTruncation(1, k, M), circle, circle_quad,
                       lambda t: np.cos(t[:, 0])),
        "negative_scalar": (FockTruncation(1, k, M), circle, circle_quad,
                            -1.5),
        "sphere3": (FockTruncation(2, 4.0, 20), sphere,
                    mfd.quadrature(sphere, [11, 21, 21]),
                    lambda t: 1.0 + 0.5 * np.cos(t[:, 1])),
        "complex": (FockTruncation(1, k, M), circle, circle_quad,
                    lambda t: np.exp(1j * t[:, 0]) * (1.0 + np.cos(t[:, 0]))),
        # no periodic axis: zgemm node by node
        "complex_no_rotation": (FockTruncation(2, 3.0, 8), parabola,
                                mfd.quadrature(parabola, 24),
                                lambda t: np.exp(1j * t[:, 0])
                                * (1.2 + t[:, 1])),
    }


@pytest.mark.parametrize("case", ["signed_cos", "negative_scalar", "sphere3",
                                  "complex", "complex_no_rotation",
                                  "torus_zero_coordinate", "dsl_torus",
                                  "dsl_wobbly_dense", "sphere3_dense_grid",
                                  "sphere3_sector_grid"])
def test_rank_k_assembly_matches_gemm_reference(case):
    trunc, sub, quad, a = reference_cases()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        op = assemble_T(trunc, sub, a, quad)
    expect = gemm_reference(trunc, quad, a)
    scale = np.abs(expect).max()
    assert np.abs(op.matrix - expect).max() <= 1e-13 * scale
    assert op.hermitian == (not case.startswith("complex"))
    if op.hermitian:
        assert np.array_equal(op.matrix, op.matrix.conj().T)
        assert np.all(np.diag(op.matrix).imag == 0)
    else:
        assert np.abs(op.matrix - op.matrix.conj().T).max() > 1e-3 * scale


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


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg and scipy.sparse take longer to import than the package
    # itself; assembly and the block solvers load what they use on first use
    code = ("import sys, szegolab; "
            "sys.exit('scipy.linalg' in sys.modules "
            "or 'scipy.sparse' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize("case, sector", [
    ("signed_cos", True), ("torus_zero_coordinate", True),
    ("dsl_torus", True), ("dsl_wobbly_dense", False),
    ("sphere3_dense_grid", False), ("sphere3_sector_grid", True),
    ("complex_no_rotation", False)])
def test_rotation_detection_picks_the_path(case, sector):
    _, _, quad, _ = reference_cases()[case]
    assert (asm._sector_axes(quad) is not None) == sector


def test_rotation_charges_read_from_points():
    axes, charges = asm._sector_axes(mfd.quadrature(dsl_torus(), 16))
    assert axes == (0, 1)
    assert charges.tolist() == [[1, 0], [0, 1]]
    # z1 = e^{-2i t1} turns twice per lap, backwards: charge -2 mod 16
    chart = dsl_torus(("cos(2*t1)", "-sin(2*t1)", "0.7*cos(t2)", "0.7*sin(t2)"))
    axes, charges = asm._sector_axes(mfd.quadrature(chart, 16))
    assert charges.tolist() == [[14, 0], [0, 1]]
    # the unrotated third coordinate of a torus in C^3 carries charge 0
    flat = mfd.quadrature(mfd.torus_product([1.0, 0.7], ambient_dim=3), 8)
    assert asm._sector_axes(flat)[1].tolist() == [[1, 0], [0, 1], [0, 0]]
    assert asm._sector_axes(mfd.quadrature(wobbly_circle(), 64)) is None
    assert asm._sector_axes(mfd.quadrature(mfd.parabola_patch(), 8)) is None


@pytest.mark.filterwarnings("ignore::szegolab.assembly.TruncationWarning")
def test_sector_sum_keeps_the_weights_of_every_node():
    # at the 64 nodes sin(32 t1) = 0, so the points lie on |z| = 1 and turn
    # by one node per step; |gamma'| = 1 + 0.32 cos(32 t1) alternates
    # between 1.32 and 0.68 there, so the weights do not turn with them
    chart = mfd.custom_chart(1, 1, ["cos(t1 + 0.01*sin(32*t1))",
                                    "sin(t1 + 0.01*sin(32*t1))"],
                             [True], [[0.0, TWO_PI]], label="wiggly")
    quad = mfd.quadrature(chart, 64)
    assert asm._sector_axes(quad)[1].tolist() == [[1]]
    assert quad.weights[1] < 0.55 * quad.weights[0]
    trunc = FockTruncation(1, 10.0, 40)
    expect = gemm_reference(trunc, quad, None)
    scale = np.abs(expect).max()
    op = assemble_T(trunc, chart, None, quad)
    assert np.abs(op.matrix - expect).max() <= 1e-13 * scale
    # the base node's weight on every node is off by about a third of T
    base = dataclasses.replace(quad, weights=np.full(64, quad.weights[0]))
    assert np.abs(gemm_reference(trunc, base, None) - expect).max() > 0.25 * scale


@pytest.mark.filterwarnings("ignore::szegolab.assembly.TruncationWarning")
def test_dsl_torus_matches_builtin_torus():
    trunc = FockTruncation(2, 4.0, 16)
    amp = lambda t: 1.0 + 0.5 * np.cos(t[:, 0] - 2.0 * t[:, 1])
    custom = assemble_T(trunc, dsl_torus(), amp,
                        mfd.quadrature(dsl_torus(), 16))
    builtin = mfd.torus_product([1.0, 0.7])
    expect = assemble_T(trunc, builtin, amp, mfd.quadrature(builtin, 16))
    scale = np.abs(expect.matrix).max()
    assert np.abs(custom.matrix - expect.matrix).max() <= 1e-13 * scale


def off_diagonal_count(matrix):
    return np.count_nonzero(matrix) - np.count_nonzero(np.diag(matrix))


def test_invariant_operators_are_exactly_diagonal():
    k = 400.0
    sub, trunc, quad = circle_setup(k)
    op = assemble_T(trunc, sub, None, quad)
    assert off_diagonal_count(op.matrix) == 0
    # the zeroed coefficients were FFT rounding: their bound is tiny
    lam = np.abs(np.diag(op.matrix)).max()
    assert 0 < op.offblock_bound <= 1e-12 * lam
    sphere = mfd.sphere3(1.0)
    M = 44
    sop = assemble_T(FockTruncation(2, 10.0, M), sphere, None,
                     mfd.quadrature(sphere, [M // 2 + 1, M + 1, M + 1]))
    assert off_diagonal_count(sop.matrix) == 0
    assert sop.offblock_bound <= 1e-12 * np.abs(np.diag(sop.matrix)).max()


def test_non_invariant_amplitude_keeps_every_coefficient():
    # charges 1 and 12 link the circle's basis into one block of bandwidth
    # 12, which keeps the dense path and every coefficient the FFT gives;
    # the phase 1 at charge 12 and none at charge 1 admit no gauge, so the
    # coefficients stay complex too
    trunc, sub, quad, _ = reference_cases()["signed_cos"]
    a = lambda t: np.cos(t[:, 0]) + 0.5 * np.cos(12 * t[:, 0] + 1.0)
    op = assemble_T(trunc, sub, a, quad)
    assert op.offblock_bound == 0
    assert op.layout.dense[0].dtype == complex
    assert off_diagonal_count(op.matrix) == trunc.dim * (trunc.dim - 1)


def test_gauged_amplitude_keeps_every_charge_and_bounds_the_imaginary_dust():
    # cos t + 0.5 cos 12t has real coefficients: the same dense block, real,
    # with only the imaginary rounding of the FFT dropped into offblock_bound
    trunc, sub, quad, _ = reference_cases()["signed_cos"]
    a = lambda t: np.cos(t[:, 0]) + 0.5 * np.cos(12 * t[:, 0])
    op = assemble_T(trunc, sub, a, quad)
    (D,) = op.layout.dense
    assert D.dtype == np.float64 and op.layout.phase is None
    assert off_diagonal_count(op.matrix) == trunc.dim * (trunc.dim - 1)
    expect = gemm_reference(trunc, quad, a)
    lam = np.abs(expect).max()
    assert 0 < op.offblock_bound <= 1e-13 * lam
    assert np.abs(op.matrix - expect).max() <= 1e-13 * lam


def test_split_amplitude_zeroes_the_rounding_noise():
    # cos t links charge n to n +- 1 only: one tridiagonal block whose
    # entries off the three diagonals are exact zeros
    trunc, sub, quad, a = reference_cases()["signed_cos"]
    op = assemble_T(trunc, sub, a, quad)
    assert op.layout.widths.tolist() == [1]
    lam = np.abs(op.matrix).max()
    assert 0 < op.offblock_bound <= 1e-13 * lam
    band = np.abs(np.subtract.outer(np.arange(trunc.dim),
                                    np.arange(trunc.dim))) <= 1
    assert not np.any(op.matrix[~band])


def test_charge_collisions_give_exact_blocks():
    # 24 nodes per circle and degrees up to 48: charges n mod 24 collide
    sub = mfd.torus_product([1.0, 0.7])
    trunc = FockTruncation(2, 8.0, 48)
    op = assemble_T(trunc, sub, None, mfd.quadrature(sub, 24))
    charge = trunc.exponent_matrix % 24
    same = np.all(charge[:, None, :] == charge[None, :, :], axis=2)
    assert not np.any(op.matrix[~same])
    assert off_diagonal_count(op.matrix) > 0
    expect = gemm_reference(trunc, mfd.quadrature(sub, 24), None)
    assert np.abs(op.matrix - expect).max() <= 1e-13 * np.abs(expect).max()
    assert np.array_equal(op.matrix, op.matrix.conj().T)


def test_wide_charge_support_gives_one_dense_block(monkeypatch):
    # exp(cos t) keeps 27 charges on 169 nodes, more than
    # max(dim / 4, 2 _BAND_MAX + 1) = 20.25 at M = 80: the charge graph
    # is never built
    def no_pairs(self):
        raise AssertionError("charge pairs built for a wide support")

    monkeypatch.setattr(asm._Sector, "pairs", no_pairs)
    sub, trunc, quad = circle_setup(20.0, M=80, order=169)
    a = lambda t: np.exp(np.cos(t[:, 0]))
    op = assemble_T(trunc, sub, a, quad)
    assert op.layout.widths.size == 0 and len(op.layout.dense) == 1
    expect = gemm_reference(trunc, quad, a)
    assert np.abs(op.matrix - expect).max() <= 1e-13 * np.abs(expect).max()


def test_circle_k400_spectrum_matches_poisson_closed_form():
    k = 400.0
    sub, trunc, quad = circle_setup(k)
    eigs = eigensolve(assemble_T(trunc, sub, None, quad)).eigenvalues
    expect = np.sort(poisson_lambdas(k, trunc.max_degree))[::-1]
    top = expect >= 1e-10 * expect[0]
    assert np.abs(eigs[top] / expect[top] - 1.0).max() <= 1e-11


PAIR_TRACE_CASES = {
    # name: (manifold, quadrature order, axis groups)
    "parabola": (lambda: mfd.parabola_patch(), 12, 2),
    "torus": (lambda: mfd.torus_product([1.0, 0.7]), 12, 2),
    "plane_c2": (lambda: mfd.plane_patch([(-1.0, 1.0), (-0.5, 0.5),
                                          (0.0, 1.0), (-1.0, 0.0)]), 4, 4),
    "sphere3": (lambda: mfd.sphere3(), [3, 6, 6], 1),
    "dsl_parabola": (lambda: mfd.custom_chart(
        2, 2, ["t1", "t2", "t1^2/2", "0"], [False, False],
        [(-1.0, 1.0), (-1.0, 1.0)]), 12, 2),
}


@pytest.mark.parametrize("case", list(PAIR_TRACE_CASES))
def test_pair_trace_matches_direct_difference_sum(case):
    make, order, n_groups = PAIR_TRACE_CASES[case]
    sub = make()
    quad = mfd.quadrature(sub, order)
    assert len(asm._axis_groups(quad)[2]) == n_groups
    a = lambda t: 1.0 + 0.5 * t[:, 0]
    # e^{i t2} would sum to rounding noise over a periodic t2
    b = lambda t: np.exp(0.5j * t[:, 1])
    k = 30.0
    diff = quad.points[:, None, :] - quad.points[None, :, :]
    kernel = np.exp(-k * np.sum(np.abs(diff) ** 2, axis=2))
    wa, wb = quad.weights * a(quad.nodes), quad.weights * b(quad.nodes)
    N = sub.ambient_dim
    expect = (k / math.pi) ** (2 * N) * (wa @ kernel @ wb)
    value = pair_trace_integral(sub, a, b, quad, k)
    assert abs(value - expect) <= 1e-13 * abs(expect)


def test_pair_trace_forms_no_kernel_wider_than_an_axis(monkeypatch):
    shapes = []

    def recording(x, y):
        shapes.append((x.shape[0], y.shape[0]))
        return sq_dists(x, y)

    sq_dists = asm._sq_dists
    monkeypatch.setattr(asm, "_sq_dists", recording)
    sub = mfd.parabola_patch()
    quad = mfd.quadrature(sub, 64)
    assert pair_trace_integral(sub, None, None, quad, 50.0) > 0
    assert shapes and max(max(s) for s in shapes) <= 64
