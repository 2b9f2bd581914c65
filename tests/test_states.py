import math

import numpy as np
import pytest

import szegolab.manifold as mfd
import szegolab.states as states_mod
from szegolab.assembly import assemble_T
from szegolab.fock import FockTruncation, eval_basis_matrix
from szegolab.spectral import eigensolve
from szegolab.states import (
    BohrSommerfeldData,
    BSViolationError,
    build_test_state,
    circle_theta,
    norm_asymptotics_check,
    rayleigh_lower_bound,
    verify_bohr_sommerfeld,
)


def circle_parts(k, m=None, r=1.0):
    """Circle of radius r, truncation, quadrature; kr^2 = m when m is given."""
    sub = mfd.circle(r)
    M = math.ceil(4 * k * r * r)
    quad = mfd.quadrature(sub, 2 * M + 9)
    trunc = FockTruncation(1, k, M)
    return sub, trunc, quad


def test_circle_theta_passes_verification():
    sub = mfd.circle(1.0)
    bs = BohrSommerfeldData(theta=circle_theta(1.0))
    verify_bohr_sommerfeld(sub, bs, 12.0)
    sub2 = mfd.circle(1.3)
    bs2 = BohrSommerfeldData(theta=circle_theta(1.3))
    # k r^2 = 10 * 1.69 = 16.9 is not an integer: closure fails
    with pytest.raises(BSViolationError):
        verify_bohr_sommerfeld(sub2, bs2, 10.0)
    # but gradient + closure both pass at k = 100/1.69
    verify_bohr_sommerfeld(sub2, bs2, 100.0 / 1.69)


def test_wrong_gradient_rejected():
    sub = mfd.circle(1.0)
    bs = BohrSommerfeldData(theta=lambda t: 0.5 * np.atleast_2d(t)[:, 0] ** 2)
    with pytest.raises(BSViolationError):
        verify_bohr_sommerfeld(sub, bs, 2 * math.pi)


def test_state_at_integer_kr2_is_number_state():
    # kr^2 = m: the smeared state is proportional to the basis vector |m>
    k, m = 11.0, 11
    sub, trunc, quad = circle_parts(k)
    bs = BohrSommerfeldData(theta=circle_theta(1.0))
    c = build_test_state(trunc, sub, bs, quad)
    norm = np.linalg.norm(c)
    overlap = abs(c[m]) / norm
    assert overlap >= 1.0 - 1e-8


def test_zero_alpha_gives_zero_state():
    sub, trunc, quad = circle_parts(9.0)
    bs = BohrSommerfeldData(theta=circle_theta(1.0), alpha=0.0)
    c = build_test_state(trunc, sub, bs, quad)
    assert np.abs(c).max() == 0


def test_doubling_alpha_quadruples_norm():
    sub, trunc, quad = circle_parts(9.0)
    one = BohrSommerfeldData(theta=circle_theta(1.0), alpha=1.0)
    two = BohrSommerfeldData(theta=circle_theta(1.0), alpha=2.0)
    n1 = float(np.vdot(*(build_test_state(trunc, sub, one, quad),) * 2).real)
    n2 = float(np.vdot(*(build_test_state(trunc, sub, two, quad),) * 2).real)
    assert n2 == pytest.approx(4 * n1, rel=1e-12)


def test_non_lagrangian_rejected():
    sub = mfd.parabola_patch()
    quad = mfd.quadrature(sub, 8)
    trunc = FockTruncation(2, 4.0, 8)
    bs = BohrSommerfeldData(theta=lambda t: np.zeros(np.atleast_2d(t).shape[0]))
    with pytest.raises(ValueError):
        build_test_state(trunc, sub, bs, quad)


def test_norm_ratio_converges_to_circumference():
    # |psi_k|^2 / (2k/pi)^{1/2} -> int |alpha|^2 dsigma = 2 pi
    bs = BohrSommerfeldData(theta=circle_theta(1.0))
    ks = [9.0, 16.0, 25.0, 36.0, 49.0]
    states = []
    for k in ks:
        sub, trunc, quad = circle_parts(k)
        states.append(build_test_state(trunc, sub, bs, quad))
    report = norm_asymptotics_check(ks, states, 1, 2 * math.pi)
    assert report.ok
    assert report.ratios[-1] == pytest.approx(2 * math.pi, rel=1e-2)
    assert np.all(np.abs(report.ratios - 2 * math.pi)
                  <= 5.0 / np.asarray(ks) * 2 * math.pi)


def test_rayleigh_quotient_attains_top_eigenvalue():
    # at k r^2 = m the state is |m> and lambda_m = lambda_max exactly
    k = 16.0
    sub, trunc, quad = circle_parts(k)
    op = assemble_T(trunc, sub, None, quad)
    bs = BohrSommerfeldData(theta=circle_theta(1.0))
    c = build_test_state(trunc, sub, bs, quad)
    q = rayleigh_lower_bound(op, c)
    top = eigensolve(op).max
    assert q <= top * (1 + 1e-10)
    assert q == pytest.approx(top, rel=1e-10)
    with pytest.raises(ValueError):
        rayleigh_lower_bound(op, np.zeros(trunc.dim, dtype=complex))


def test_rayleigh_is_lower_bound_with_nonuniform_alpha():
    k = 16.0
    sub, trunc, quad = circle_parts(k)
    op = assemble_T(trunc, sub, None, quad)
    bs = BohrSommerfeldData(theta=circle_theta(1.0),
                            alpha=lambda t: 1.0 + 0.5 * np.cos(t[:, 0]))
    c = build_test_state(trunc, sub, bs, quad)
    q = rayleigh_lower_bound(op, c)
    top = eigensolve(op).max
    assert q <= top * (1 + 1e-10)
    assert q >= 0.5 * top  # still within a factor of the top eigenvalue


def node_sum_state(trunc, bs, quad):
    """c_n = sum over every node of conj(u_n) w e^{ik theta} alpha."""
    theta = np.asarray(bs.theta(quad.nodes)).reshape(-1)
    g = quad.weights * np.exp(1j * trunc.k * theta) \
        * mfd.amp_values(bs.alpha, quad)
    return eval_basis_matrix(trunc, quad.points).conj().T @ g


def assert_matches_node_sum(trunc, sub, bs, quad):
    c = build_test_state(trunc, sub, bs, quad)
    ref = node_sum_state(trunc, bs, quad)
    assert np.abs(c - ref).max() <= 1e-13 * np.abs(ref).max()
    return c


@pytest.mark.parametrize("k", [25.0, 200.0])
def test_circle_state_matches_node_sum(k):
    sub, trunc, quad = circle_parts(k)
    bs = BohrSommerfeldData(theta=circle_theta(1.0),
                            alpha=lambda t: 1.0 + 0.5 * np.cos(3 * t[:, 0]))
    assert_matches_node_sum(trunc, sub, bs, quad)


def test_torus_state_matches_node_sum():
    # theta = t1 + 0.49 t2 is a primitive of eta on the (1, 0.7) torus, and
    # k r_j^2 = 100, 49 are integers; the degree cap keeps the oracle small
    sub = mfd.torus_product([1.0, 0.7])
    quad = mfd.quadrature(sub, 32)
    trunc = FockTruncation(2, 100.0, 60)
    bs = BohrSommerfeldData(
        theta=lambda t: t[:, 0] + 0.49 * t[:, 1],
        alpha=lambda t: 1.0 + 0.3 * np.cos(t[:, 0]) * np.sin(2 * t[:, 1]))
    assert_matches_node_sum(trunc, sub, bs, quad)


def test_dsl_circle_state_matches_node_sum():
    sub = mfd.custom_chart(1, 1, ["cos(t1)", "sin(t1)"], [True],
                           [[0.0, 2 * math.pi]])
    k = 30.0
    quad = mfd.quadrature(sub, 2 * 120 + 9)
    trunc = FockTruncation(1, k, 120)
    bs = BohrSommerfeldData(theta=circle_theta(1.0),
                            alpha=lambda t: np.exp(np.sin(t[:, 0])))
    assert_matches_node_sum(trunc, sub, bs, quad)


def spy_basis_points(monkeypatch) -> list:
    """Point counts of every basis evaluation that `states` makes."""
    seen = []

    def spy(tr, points):
        seen.append(len(points))
        return eval_basis_matrix(tr, points)

    monkeypatch.setattr(states_mod, "eval_basis_matrix", spy)
    return seen


def test_few_node_circle_keeps_node_sum(monkeypatch):
    # fewer than 16 rotation nodes: every node is evaluated, as before
    sub = mfd.circle(1.0)
    quad = mfd.quadrature(sub, 12)
    trunc = FockTruncation(1, 4.0, 16)
    seen = spy_basis_points(monkeypatch)
    bs = BohrSommerfeldData(theta=circle_theta(1.0))
    assert_matches_node_sum(trunc, sub, bs, quad)
    assert seen == [quad.size]


def test_circle_state_evaluates_one_basis_point(monkeypatch):
    sub, trunc, quad = circle_parts(200.0)
    seen = spy_basis_points(monkeypatch)
    bs = BohrSommerfeldData(theta=circle_theta(1.0))
    build_test_state(trunc, sub, bs, quad)
    assert seen == [1]
