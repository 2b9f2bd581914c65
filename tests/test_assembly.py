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
    monkeypatch.setattr(asm, "_DENSE_BUDGET", 10.0)
    with pytest.raises(CostLimitError):
        nfold_trace_integral(sub, [None, None], quad, 10.0)


def bump(t):
    return np.exp(-8.0 * (1.0 - np.cos(t[:, 0])))


def test_dense_budget_stops_a_sector_block_before_its_fill(monkeypatch):
    # the bump's support links the whole circle basis into one dense block
    sub, trunc, quad = circle_setup(10.0)
    monkeypatch.setattr(asm, "_assemble_dense", None)  # the sector path only
    monkeypatch.setattr(asm, "_DENSE_BUDGET", 16.0 * trunc.dim ** 2)
    layout = assemble_T(trunc, sub, bump, quad).layout
    assert [D.shape for D in layout.dense] == [(trunc.dim, trunc.dim)]

    def no_gather(*args, **kwargs):
        raise AssertionError("filled past the budget")

    monkeypatch.setattr(asm, "_DENSE_BUDGET", 16.0 * trunc.dim ** 2 - 1.0)
    monkeypatch.setattr(np, "take", no_gather)
    with pytest.raises(CostLimitError, match=f"{trunc.dim} rows"):
        assemble_T(trunc, sub, bump, quad)


def test_dense_budget_stops_node_by_node_assembly_before_evaluation(
        monkeypatch):
    sub = mfd.parabola_patch()
    quad = mfd.quadrature(sub, [6, 6])
    trunc = FockTruncation(2, 2.0, 12)
    monkeypatch.setattr(asm, "_DENSE_BUDGET", 16.0 * trunc.dim ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        assert assemble_T(trunc, sub, None, quad).dim == trunc.dim
    monkeypatch.setattr(asm, "_DENSE_BUDGET", 16.0 * trunc.dim ** 2 - 1.0)
    monkeypatch.setattr(asm, "eval_basis_matrix", None)
    with pytest.raises(CostLimitError, match=f"{trunc.dim} x {trunc.dim}"):
        assemble_T(trunc, sub, None, quad)


def test_truncation_warning_names_the_caller():
    sub, trunc, quad = circle_setup(5.0, M=20)
    with pytest.warns(TruncationWarning) as caught:
        assemble_T(trunc, sub, bump, quad)
    assert caught[0].filename == __file__


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
        # 12 rotation nodes per radial node take the dense path, 144 the
        # sector sum
        "sphere3_dense_grid": (FockTruncation(2, 4.0, 20), sphere,
                               mfd.quadrature(sphere, [30, 3, 4]), sphere_amp),
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


def reference_sector_axes(quad):
    """Rotation axes and charges by the slab check over the materialized
    points of the whole grid."""
    grid = quad.points.reshape(quad.shape + (-1,))
    tol = mfd._ROTATION_TOL * max(float(np.abs(here).max(initial=0.0))
                                  for here, _ in mfd._slab_pairs(grid, 0))
    idx = list(range(grid.ndim))
    axes, charges = [], []
    for axis, (L, periodic) in enumerate(zip(quad.shape, quad.sub.periodic)):
        if not periodic:
            continue
        turn = sum(np.einsum(ahead, idx, here.conj(), idx, idx[-1:])
                   for here, ahead in mfd._slab_pairs(grid, axis))
        c = np.rint(np.angle(turn) * L / (2.0 * math.pi)).astype(np.int64) % L
        phase = np.exp(2j * math.pi * c / L)
        if all(np.abs(ahead - phase * here).max() <= tol
               for here, ahead in mfd._slab_pairs(grid, axis)):
            axes.append(axis)
            charges.append(c)
    if math.prod(quad.shape[a] for a in axes) < asm._SECTOR_NODES:
        return None
    return tuple(axes), np.stack(charges, axis=1)


SECTOR_AXES_CASES = {
    "circle": (mfd.circle(1.3), 40),
    "torus_zero_coordinate": (mfd.torus_product([1.0, 0.7], ambient_dim=3), 8),
    "dsl_torus": (dsl_torus(), 16),
    "dsl_torus_backwards": (dsl_torus(("cos(2*t1)", "-sin(2*t1)",
                                       "0.7*cos(t2)", "0.7*sin(t2)")), 16),
    # the second coordinate reads both axes
    "dsl_coupled": (dsl_torus(("cos(t1)", "sin(t1)", "0.7*cos(t1 + t2)",
                               "0.7*sin(t1 + t2)")), [8, 12]),
    "wobbly": (wobbly_circle(), 64),
    "sphere3": (mfd.sphere3(1.0), [23, 45, 45]),
    "sphere3_dense_grid": (mfd.sphere3(1.0), [30, 3, 4]),
    "parabola": (mfd.parabola_patch(), 8),
}


@pytest.mark.parametrize("case", list(SECTOR_AXES_CASES))
def test_sector_axes_match_the_check_over_every_point(monkeypatch, case):
    sub, order = SECTOR_AXES_CASES[case]
    # small slabs: blocks of several slabs, and one slab a block
    for slab_bytes in (mfd._SLAB_BYTES, 64):
        monkeypatch.setattr(mfd, "_SLAB_BYTES", slab_bytes)
        quad = mfd.quadrature(sub, order)
        got, want = asm._sector_axes(quad), reference_sector_axes(quad)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0]
            assert got[1].dtype == want[1].dtype
            assert np.array_equal(got[1], want[1])


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


def reference_sector_coefficients(quad, wa, axes):
    """F of the sector sum by one inverse FFT over every rotation axis."""
    explicit = [a for a in range(len(quad.shape)) if a not in axes]
    grid = wa.reshape(quad.shape).transpose(explicit + list(axes))
    grid = grid.reshape((-1,) + tuple(quad.shape[a] for a in axes))
    rot = grid[0].size
    scale = np.abs(grid).reshape(grid.shape[0], -1).sum(axis=1)
    F = np.fft.ifftn(grid, axes=tuple(range(1, grid.ndim))).reshape(-1, rot)
    F *= (rot / scale)[:, None]
    F[:, 0] = F[:, 0].real
    return F


@pytest.mark.filterwarnings("ignore::szegolab.assembly.TruncationWarning")
@pytest.mark.parametrize("case, fft_axes", [
    ("sphere3_one", []), ("sphere3_cos", [(1,)]), ("dsl_torus", [(1, 2)])])
def test_sector_fft_runs_only_along_axes_where_wa_varies(monkeypatch, case,
                                                         fft_axes):
    sphere, torus = mfd.sphere3(1.0), dsl_torus()
    trunc, sub, quad, a = {
        "sphere3_one": (FockTruncation(2, 4.0, 20), sphere,
                        mfd.quadrature(sphere, [11, 21, 21]), None),
        "sphere3_cos": (FockTruncation(2, 4.0, 20), sphere,
                        mfd.quadrature(sphere, [11, 21, 21]),
                        lambda t: 1.0 + 0.5 * np.cos(t[:, 1] + 0.7)),
        "dsl_torus": (FockTruncation(2, 4.0, 16), torus,
                      mfd.quadrature(torus, 24),
                      lambda t: 1.0 + np.cos(t[:, 0]) / 4
                      + np.cos(t[:, 1]) / 4)}[case]
    calls = []
    ifftn = np.fft.ifftn

    def recording(x, axes=None):
        calls.append(axes)
        return ifftn(x, axes=axes)

    monkeypatch.setattr(np.fft, "ifftn", recording)
    wa = quad.weights * mfd.amp_values(a, quad)
    axes, charges = asm._sector_axes(quad)
    sector = asm._sector(trunc, quad, wa, axes, charges, True)
    assert calls == fft_axes
    # F holds the charges of its support, and is zero at the others
    expect = reference_sector_coefficients(quad, wa, axes)
    off = np.ones(expect.shape[1], dtype=bool)
    off[sector.support] = False
    assert np.abs(sector.F - expect[:, sector.support]).max() <= 1e-15
    assert np.abs(expect[:, off]).max(initial=0.0) <= 1e-15
    # the base points come from the coordinates: no full-grid points
    assemble_T(trunc, sub, a, quad)
    assert "points" not in vars(quad)


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


@pytest.mark.parametrize("amplitude, turns", [
    ("1 + 0.5*cos(t1) + 0.25*cos(t2)", 1),  # F is real already
    ("1 + 0.25*cos(t1 + 2.1) + 0.25*cos(t2 + 5.3)", 2),  # the charge turn
])
def test_gauge_residual_is_computed_once_per_turn(monkeypatch, amplitude,
                                                  turns):
    # the check that a turn makes F real also sums what it drops, which
    # the flush reuses instead of turning F again
    calls = []
    turned = asm._turned
    monkeypatch.setattr(asm, "_turned",
                        lambda *args: calls.append(1) or turned(*args))
    torus = dsl_torus()
    op = assemble_T(FockTruncation(2, 8.0, 48), torus,
                    mfd.amplitude_from_dsl(amplitude, 2),
                    mfd.quadrature(torus, 64))
    assert op.layout.band.dtype == np.float64  # gauged
    assert len(calls) == turns


def off_diagonal_count(matrix):
    return np.count_nonzero(matrix) - np.count_nonzero(np.diag(matrix))


def test_invariant_operators_are_exactly_diagonal():
    k = 400.0
    sub, trunc, quad = circle_setup(k)
    op = assemble_T(trunc, sub, None, quad)
    assert off_diagonal_count(op.matrix) == 0
    # w a is the same on every node of each rotation axis, so its Fourier
    # coefficients are exactly zero off charge 0 and nothing is dropped
    assert op.offblock_bound == 0
    sphere = mfd.sphere3(1.0)
    M = 44
    sop = assemble_T(FockTruncation(2, 10.0, M), sphere, None,
                     mfd.quadrature(sphere, [M // 2 + 1, M + 1, M + 1]))
    assert off_diagonal_count(sop.matrix) == 0
    assert sop.offblock_bound == 0


def band_pattern(dim, width):
    """Positions at most `width` off the diagonal."""
    steps = np.subtract.outer(np.arange(dim), np.arange(dim))
    return np.abs(steps) <= width


def test_non_invariant_amplitude_keeps_every_coefficient():
    # charges 1 and 12 link the circle's basis into one block of bandwidth
    # 12, a band that pays at dim 81 (12 <= 1.5 sqrt(81)); every entry in
    # it keeps every coefficient the FFT gives, and only noise charges
    # reach the entries outside; the phase 1 at charge 12 and none at
    # charge 1 admit no gauge, so the coefficients stay complex too
    trunc, sub, quad, _ = reference_cases()["signed_cos"]
    a = lambda t: np.cos(t[:, 0]) + 0.5 * np.cos(12 * t[:, 0] + 1.0)
    op = assemble_T(trunc, sub, a, quad)
    assert op.layout.widths.tolist() == [12] and not op.layout.dense
    assert op.layout.band.dtype == complex
    inside = band_pattern(trunc.dim, 12)
    assert np.all(op.matrix[inside] != 0)
    assert not np.any(op.matrix[~inside])
    expect = gemm_reference(trunc, quad, a)
    lam = np.abs(expect).max()
    assert 0 < op.offblock_bound <= 1e-13 * lam
    assert np.abs(op.matrix - expect).max() <= 1e-13 * lam


def test_gauged_amplitude_keeps_every_charge_and_bounds_the_imaginary_dust():
    # cos t + 0.5 cos 12t has real coefficients: the same band, real, with
    # the noise charges outside it and the imaginary rounding of the FFT
    # dropped into offblock_bound
    trunc, sub, quad, _ = reference_cases()["signed_cos"]
    a = lambda t: np.cos(t[:, 0]) + 0.5 * np.cos(12 * t[:, 0])
    op = assemble_T(trunc, sub, a, quad)
    assert op.layout.widths.tolist() == [12] and not op.layout.dense
    assert op.layout.band.dtype == np.float64 and op.layout.phase is None
    inside = band_pattern(trunc.dim, 12)
    assert np.all(op.matrix[inside] != 0)
    assert not np.any(op.matrix[~inside])
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
    # exp(cos t) keeps 27 charges on 169 nodes, more than dim / 4 = 20.25
    # at M = 80: the charge graph is never built
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


@pytest.mark.parametrize("case", ["complex_no_rotation", "sphere3_dense_grid"])
def test_node_by_node_matrix_is_the_assembled_block(case):
    # one block in basis order: `.matrix` is that block, not a copy
    trunc, sub, quad, a = reference_cases()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        op = assemble_T(trunc, sub, a, quad)
    (D,) = op.layout.dense
    assert np.shares_memory(op.matrix, D) and np.array_equal(op.matrix, D)
