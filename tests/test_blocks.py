"""Charge-block operators: layout, block-by-block spectra, stored pattern."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eig_banded

import szegolab.assembly as asm
import szegolab.manifold as mfd
import szegolab.spectral as spectral
from szegolab.assembly import (
    TruncationWarning,
    assemble_T,
    exact_trace,
    trace_product,
)
from szegolab.fock import FockTruncation, eval_basis_matrix
from szegolab.spectral import (
    _band_extents,
    eigensolve,
    schatten_sum,
    singular_values,
)
from szegolab.states import rayleigh_lower_bound

EPS = np.finfo(np.float64).eps
TWO_PI = 2.0 * math.pi


def assemble(trunc, sub, a, quad):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return assemble_T(trunc, sub, a, quad)


def quadrature_sum(trunc, quad, a):
    """sum over nodes of w a conj(u(z))^T u(z), as one dense product."""
    B = eval_basis_matrix(trunc, quad.points)
    return (B.conj() * (quad.weights * a(quad.nodes))[:, None]).T @ B


def torus_case(k=4.0):
    sub = mfd.torus_product([1.0, 0.7])
    M = math.ceil(4 * k * 1.49)
    return FockTruncation(2, k, M), sub, mfd.quadrature(sub, 2 * M + 9)


def circle_case(k=10.0):
    sub = mfd.circle(1.0)
    M = math.ceil(4 * k)
    # at least 64 nodes, so that the sector sum applies at small k
    quad = mfd.quadrature(sub, max(2 * M + 9, 72))
    return FockTruncation(1, k, M), sub, quad


def sphere_case(k=4.0):
    sub = mfd.sphere3(1.0)
    M = int(round(4 * k)) + 4
    return (FockTruncation(2, k, M), sub,
            mfd.quadrature(sub, [M // 2 + 1, M + 1, M + 1]))


def cycle_phase(t):
    return (1.0 + 0.25 * np.cos(t[:, 0]) + 0.25 * np.cos(t[:, 1])
            + 0.2 * np.cos(t[:, 0] + t[:, 1] + 1.0))


def test_one_dimensional_support_gives_tridiagonal_blocks():
    trunc, sub, quad = torus_case()
    a = lambda t: 1.0 + 0.5 * np.cos(t[:, 0] + 0.3)
    op = assemble(trunc, sub, a, quad)
    layout = op.layout
    # one chain over n1 for each n2
    assert len(layout.bounds) - 1 == trunc.max_degree + 1
    assert layout.widths.max() == 1 and not layout.dense
    expect = quadrature_sum(trunc, quad, a)
    assert np.abs(op.matrix - expect).max() <= 1e-13 * np.abs(expect).max()
    # the zeroed entries are FFT rounding, and their bound is that small
    assert 0 < op.offblock_bound <= 1e-13 * np.abs(expect).max()


def test_wrap_around_charge_links_stay_in_the_block():
    # 37 nodes per angle and degrees up to 36: charges 0 and 36 of the
    # n2 = 0 chain meet mod 37, where F[-1] aliases a 1.7e-8 entry
    sub = mfd.sphere3(1.0)
    trunc = FockTruncation(2, 8.0, 36)
    quad = mfd.quadrature(sub, [19, 37, 37])
    a = lambda t: 1.0 + 0.5 * np.cos(t[:, 1])
    op = assemble(trunc, sub, a, quad)
    E = trunc.exponent_matrix
    chain = np.flatnonzero(E[:, 1] == 0)
    first = chain[E[chain, 0] == 0][0]
    last = chain[E[chain, 0] == 36][0]
    layout = op.layout
    pos = np.empty_like(layout.perm)
    pos[layout.perm] = np.arange(trunc.dim)
    which = np.searchsorted(layout.bounds, pos[first], side="right") - 1
    lo, hi = layout.bounds[which], layout.bounds[which + 1]
    assert sorted(layout.perm[lo:hi]) == sorted(chain)
    T = op.matrix
    assert 1e-8 < abs(T[first, last]) < 3e-8
    expect = quadrature_sum(trunc, quad, a)
    block = np.ix_(chain, chain)
    scale = np.abs(expect).max()
    assert np.abs(T[block] - expect[block]).max() <= 1e-13 * scale


def stored_count(n, lower, upper):
    """Entries of an n-row block between its lower and upper extents."""
    return sum(n - abs(d) for d in range(-upper, lower + 1))


def test_one_wide_component_is_one_level_ordered_band():
    # support {0, +-e1, +-e2, +-(e1 + e2)}: one component of bandwidth
    # M + 2 in charge order, and a phase around the charge cycle that no
    # gauge removes; its level order is a band of half that width
    trunc, sub, quad = torus_case()
    op = assemble(trunc, sub, cycle_phase, quad)
    layout = op.layout
    assert layout.bounds.tolist() == [0, trunc.dim] and not layout.dense
    (width,) = layout.widths
    assert 2 * width <= trunc.max_degree + 2
    assert layout.band.dtype == complex and layout.phase is None
    # every stored entry keeps the coefficients of every charge, linked or
    # not, so none is an exact zero; only noise charges fall outside
    assert (np.count_nonzero(op.matrix)
            == stored_count(trunc.dim, width, width))
    expect = quadrature_sum(trunc, quad, cycle_phase)
    scale = np.abs(expect).max()
    assert 0 < op.offblock_bound <= 1e-13 * scale
    assert np.abs(op.matrix - expect).max() <= 1e-13 * scale


def test_split_operator_never_builds_the_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("densified a split operator")

    monkeypatch.setattr(asm.BlockLayout, "densify", refuse)
    trunc, sub, quad = torus_case()
    op = assemble(trunc, sub, lambda t: 1.0 + 0.5 * np.cos(t[:, 0]), quad)
    assert len(op.layout.widths) > 1
    eigensolve(op)
    singular_values(op)
    schatten_sum(op, [1.0, 2.0])
    exact_trace(op)
    op.trace()
    rayleigh_lower_bound(op, np.ones(trunc.dim))
    trace_product(op, op)
    ctrunc, circle, cquad = circle_case()
    cop = assemble(ctrunc, circle,
                   lambda t: np.exp(1j * t[:, 0]) * (1.0 + np.cos(t[:, 0])),
                   cquad)
    assert not cop.hermitian
    singular_values(cop)
    schatten_sum(cop, 1.0)
    exact_trace(cop)


@pytest.mark.parametrize("merged", [0, 1])
@pytest.mark.parametrize("widths", [[0, 0, 1, 1, 2, 3, 3], [0, 2, 2], [1],
                                    [4, 5], []])
def test_runs_match_a_walk_over_every_banded_block(widths, merged):
    from szegolab.spectral import _runs

    widths = np.array(widths, dtype=np.int64)
    # banded blocks of sizes 1, 2, 3, ... and one dense block of 2
    bounds = np.cumsum([0, *range(1, widths.size + 1), 2])
    layout = asm.BlockLayout(perm=np.arange(bounds[-1]), bounds=bounds,
                             widths=widths,
                             band=np.zeros((9, bounds[-1])),
                             dense=(np.zeros((2, 2)),))
    expect = []
    for width in range(merged + 1):
        sel = np.flatnonzero(widths == width)
        if sel.size:
            expect.append((bounds[sel[0]], bounds[sel[-1] + 1], width))
    expect += [(bounds[i], bounds[i + 1], w)
               for i, w in enumerate(widths) if w > merged]
    assert list(_runs(layout, merged)) == expect


def test_spectra_do_not_depend_on_the_matrix_cache():
    trunc, sub, quad = sphere_case()
    a = lambda t: 1.0 + 0.5 * np.cos(t[:, 1] + 0.7)
    fresh, cached = (assemble(trunc, sub, a, quad) for _ in range(2))
    cached.matrix
    assert np.array_equal(eigensolve(fresh).eigenvalues,
                          eigensolve(cached).eigenvalues)
    assert np.array_equal(singular_values(fresh), singular_values(cached))


def test_trace_product_matches_dense_product():
    trunc, sub, quad = circle_case(20.0)
    ops = [assemble(trunc, sub, a, quad) for a in
           (None, lambda t: 1.0 + np.cos(t[:, 0]),
            lambda t: np.exp(1j * t[:, 0]) * np.sin(t[:, 0]) ** 2)]
    ops.append(asm.HermitianOperator(
        asm.BlockLayout.of_matrix(ops[1].matrix.copy()), trunc=trunc))
    for A in ops:
        for B in ops:
            expect = np.sum(A.matrix.T * B.matrix)
            assert abs(trace_product(A, B) - expect) <= 1e-13 * abs(expect)


def test_apply_matches_dense_product():
    trunc, sub, quad = sphere_case()
    op = assemble(trunc, sub, lambda t: 1.0 + 0.5 * np.cos(t[:, 1]), quad)
    x = np.random.default_rng(3).normal(size=trunc.dim) + 0j
    expect = op.matrix @ x
    scale = np.abs(expect).max()
    assert np.abs(op.layout.apply(x) - expect).max() <= 1e-13 * scale


def dsl_real(t):
    """The real amplitude of the DSL torus benchmark config, seeded phases."""
    return 1.0 + 0.25 * np.cos(t[:, 0] + 2.1) + 0.25 * np.cos(t[:, 1] + 5.3)


def dsl_complex(t):
    """Its complex amplitude [1 + 0.5 cos(t1 + p3), 0.5 sin(t2 + p4)]."""
    return 1.0 + 0.5 * np.cos(t[:, 0] + 0.4) + 0.5j * np.sin(t[:, 1] + 3.9)


def real_blocks(layout):
    """Whether the band and every dense block are stored real."""
    return all(x.dtype == np.float64 for x in (layout.band, *layout.dense))


def spectra_match(op, expect):
    """Blocked spectra against the dense complex solvers on `expect`,
    within offblock_bound + dim eps sigma_max; returns that tolerance."""
    sv = np.linalg.svd(expect, compute_uv=False)
    tol = op.offblock_bound + op.dim * EPS * sv[0]
    assert np.abs(singular_values(op) - sv).max() <= tol
    if op.hermitian:
        eigs = np.linalg.eigvalsh(expect)[::-1]
        assert np.abs(eigensolve(op).eigenvalues - eigs).max() <= tol
    return tol


# 2M + 9 nodes per circle, and 32 <= 2M, where charges alias as on the
# benchmark's DSL torus (64 nodes, M = 48)
@pytest.mark.parametrize("order", [None, 32])
@pytest.mark.parametrize("a", [dsl_real, dsl_complex])
def test_symmetric_torus_amplitudes_give_real_blocks(a, order):
    trunc, sub, quad = torus_case()
    if order is not None:
        quad = mfd.quadrature(sub, order)
    op = assemble(trunc, sub, a, quad)
    assert op.layout.bounds.tolist() == [0, trunc.dim]
    assert real_blocks(op.layout) and op.layout.phase is not None
    assert op.hermitian == (a is dsl_real)
    expect = quadrature_sum(trunc, quad, a)
    tol = spectra_match(op, expect)
    assert 0 < op.offblock_bound <= 1e-13 * np.abs(expect).max()
    assert np.abs(op.matrix - expect).max() <= tol


def test_complex_base_point_splits_off_its_phases():
    # the DSL torus with both angles starting at 0.5: the base point
    # (e^{0.5i}, 0.7 e^{0.5i}) gives V complex phases, which the gauge
    # takes into g along with the turn of the amplitude
    trunc, _, quad = torus_case()
    start = [[0.5, 0.5 + TWO_PI]] * 2
    sub = mfd.custom_chart(2, 2, ["cos(t1)", "sin(t1)", "0.7*cos(t2)",
                                  "0.7*sin(t2)"], [True, True], start)
    quad = mfd.quadrature(sub, quad.shape[0])
    op = assemble(trunc, sub, dsl_real, quad)
    assert op.layout.bounds.tolist() == [0, trunc.dim]
    assert real_blocks(op.layout) and op.layout.phase is not None
    expect = quadrature_sum(trunc, quad, dsl_real)
    tol = spectra_match(op, expect)
    assert np.abs(op.matrix - expect).max() <= tol


def test_cycle_phase_stays_complex_and_solves_as_before():
    trunc, sub, quad = torus_case()
    op = assemble(trunc, sub, cycle_phase, quad)
    layout = op.layout
    assert layout.band.dtype == complex and layout.phase is None
    # the complex band solver on the very block, its one band
    (width,) = layout.widths
    w = layout.half_width
    eigs = eig_banded(layout.band[w:w + width + 1], lower=True,
                      eigvals_only=True)
    assert np.array_equal(eigensolve(op).eigenvalues, eigs[::-1])
    assert np.array_equal(singular_values(op),
                          np.sort(np.abs(eigs))[::-1])
    spectra_match(op, quadrature_sum(trunc, quad, cycle_phase))


@pytest.mark.parametrize("shift", [0.0, 0.7])
def test_aliased_cyclic_block_gauges_consistently_or_stays_complex(shift):
    # L = M + 1: the n2 = 0 chain closes into a cycle through charge M = -1
    # mod 37.  Without a shift its coefficients are real; with one, the
    # phase around the 37 links is 37 * 0.7, not a multiple of pi, and no
    # gauge removes it
    sub = mfd.sphere3(1.0)
    trunc = FockTruncation(2, 8.0, 36)
    quad = mfd.quadrature(sub, [19, 37, 37])
    a = lambda t: 1.0 + 0.5 * np.cos(t[:, 1] + shift)
    op = assemble(trunc, sub, a, quad)
    assert real_blocks(op.layout) == (shift == 0)
    spectra_match(op, op.matrix)


def test_layout_applies_the_phase_vector():
    trunc, sub, quad = torus_case()
    banded = lambda t: 1.0 + 0.5 * np.cos(t[:, 0] + 0.3)
    re, im = np.random.default_rng(5).normal(size=(2, trunc.dim))
    x = re + 1j * im
    ops, refs, tols = [], [], []
    for a in (dsl_real, banded):
        op = assemble(trunc, sub, a, quad)
        assert op.layout.band.dtype == np.float64
        assert op.layout.phase is not None
        expect = quadrature_sum(trunc, quad, a)
        tol = op.offblock_bound + trunc.dim * EPS * np.abs(expect).max()
        layout = op.layout
        assert np.abs(layout.densify() - expect).max() <= tol
        rows, cols, vals = layout.entries()
        T = np.zeros_like(expect)
        T[rows, cols] = vals
        assert np.abs(T - expect).max() <= tol
        assert np.abs(layout.diagonal() - np.diag(expect)).max() <= tol
        assert abs(layout.trace() - np.trace(expect)) <= trunc.dim * tol
        err = np.abs(layout.apply(x) - expect @ x).max()
        assert err <= tol * np.linalg.norm(x)
        assert abs(rayleigh_lower_bound(op, x)
                   - (x.conj() @ expect @ x).real / (x.conj() @ x).real) <= tol
        ops.append(op), refs.append(expect), tols.append(tol)
    # Tr(AB) of a gauged pair with different phase vectors
    (A, B), (RA, RB), (ta, tb) = ops, refs, tols
    fro = [np.linalg.norm(R) for R in refs]
    bound = math.sqrt(trunc.dim) * (ta * fro[1] + tb * fro[0] + ta * tb)
    assert abs(trace_product(A, B) - np.sum(RA.T * RB)) <= bound


def test_non_hermitian_band_stays_zero_on_its_unlinked_side():
    # e^{it}(1 + cos t)/2 = 1/4 + e^{it}/2 + e^{2it}/4 links each charge to
    # the next two on one side only; the band is filled between the block's
    # own extents, so the other side stays exactly zero and ?gbbrd reduces
    # a band of 2 diagonals off the main one instead of 4
    trunc, sub, quad = circle_case(20.0)
    a = lambda t: np.exp(1j * t[:, 0]) * (1.0 + np.cos(t[:, 0])) / 2
    op = assemble(trunc, sub, a, quad)
    layout = op.layout
    assert layout.widths.tolist() == [2] and not layout.dense
    w = layout.half_width
    filled = [d for d in range(-w, w + 1) if layout.band[w + d].any()]
    assert filled in ([-2, -1, 0], [0, 1, 2])
    assert _band_extents(layout.band) in ((2, 0), (0, 2))
    expect = quadrature_sum(trunc, quad, a)
    assert np.abs(op.matrix - expect).max() <= 1e-13 * np.abs(expect).max()


@pytest.mark.parametrize("case, a, several_blocks, gauged", [
    (torus_case, lambda t: 1.0 + 0.5 * np.cos(t[:, 0] + 0.3), True, True),
    (sphere_case, lambda t: 1.0 + 0.5 * np.cos(t[:, 1] + 0.7), True, False),
    (torus_case, dsl_real, False, True),
    (torus_case, cycle_phase, False, False),
], ids=["bands-gauged", "aliased-cycle-complex", "dense-gauged",
        "dense-complex"])
def test_eigenvalues_stay_within_the_recorded_bounds(case, a, several_blocks,
                                                     gauged):
    trunc, sub, quad = case()
    op = assemble(trunc, sub, a, quad)
    layout = op.layout
    assert (len(layout.bounds) > 2) == several_blocks
    assert (layout.band.dtype == np.float64) == gauged
    expect = np.linalg.eigvalsh(quadrature_sum(trunc, quad, a))[::-1]
    tol = op.flush_bound + op.offblock_bound + op.dim * EPS * expect[0]
    assert np.abs(eigensolve(op).eigenvalues - expect).max() <= tol


CASES = {"circle": circle_case, "torus": torus_case, "sphere3": sphere_case}
# rotation axes of each chart, as columns of t
ANGLES = {"circle": [0], "torus": [0, 1], "sphere3": [1, 2]}


@st.composite
def trig_amplitudes(draw):
    """A random trigonometric polynomial on the rotation angles."""
    case = draw(st.sampled_from(sorted(CASES)))
    angles = ANGLES[case]
    terms = draw(st.lists(st.tuples(
        st.lists(st.integers(-3, 3), min_size=len(angles),
                 max_size=len(angles)),
        st.floats(-0.5, 0.5), st.floats(0.0, TWO_PI)), min_size=1,
        max_size=3))
    imaginary = draw(st.booleans())
    tilt = draw(st.floats(-0.5, 0.5))  # dependence on sphere3's s axis
    # a(c + t) = conj a(c - t) about a centre c admits a gauge
    centre = draw(st.one_of(st.none(), st.lists(
        st.floats(0.0, TWO_PI), min_size=len(angles), max_size=len(angles))))
    if centre is not None:
        terms = [(freq, coef, -float(np.dot(freq, centre)))
                 for freq, coef, _ in terms]

    def amplitude(t):
        value = np.ones(t.shape[0], dtype=complex if imaginary else float)
        for freq, coef, phase in terms:
            wave = np.exp(1j * (t[:, angles] @ np.array(freq) + phase))
            value = value + coef * (wave if imaginary else wave.real)
        if case == "sphere3":
            value = value * (1.0 + tilt * t[:, 0])
        return value

    # sphere3's L = M + 1 nodes alias charges, which can still forbid it
    return case, amplitude, centre is not None and case != "sphere3"


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trig_amplitudes(), st.sampled_from([2.0, 3.0, 4.0]))
@example(("torus", cycle_phase, False), 3.0)
@example(("torus", dsl_complex, True), 3.0)
def test_blocked_spectra_match_dense_solvers(drawn, k):
    case, a, symmetric = drawn
    trunc, sub, quad = CASES[case](k)
    op = assemble(trunc, sub, a, quad)
    gauged = op.layout.band.dtype == np.float64
    event("gauged" if gauged else "complex")
    if symmetric:
        assert gauged
    spectra_match(op, op.matrix)


def test_ungauged_non_hermitian_band_takes_the_complex_reduction(monkeypatch):
    # e^{it}(1 + cos t)/2 + i e^{2it}/5 is symmetric about no centre, so no
    # gauge makes its coefficients real: one complex one-sided band
    called = []
    bound = spectral.routine
    monkeypatch.setattr(spectral, "routine",
                        lambda name: called.append(name) or bound(name))
    trunc, sub, quad = circle_case(20.0)
    a = lambda t: (np.exp(1j * t[:, 0]) * (1.0 + np.cos(t[:, 0])) / 2
                   + 0.2j * np.exp(2j * t[:, 0]))
    op = assemble(trunc, sub, a, quad)
    layout = op.layout
    assert not op.hermitian and not layout.dense
    assert layout.widths.tolist() == [2] and layout.band.dtype == complex
    assert layout.phase is None
    spectra_match(op, quadrature_sum(trunc, quad, a))
    assert called == ["zgbbrd", "dbdsqr"]
