import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

import szegolab.manifold as mfd
from szegolab.asymptotics import (
    entropy_prediction,
    limiting_density,
    mellin_log,
    moment_prediction,
    s_factor,
    schatten_prediction,
    szego_functional,
    szego_scaling,
    weyl_prediction,
)
from szegolab.spectral import entropy_function, power_function


def test_mellin_alpha_zero_is_identity():
    phi = power_function(3)
    ts = np.array([0.0, 0.2, 1.0, 2.5])
    assert mellin_log(phi, 0.0, ts) == pytest.approx(ts ** 3)
    assert mellin_log(phi, 0.0, 0.7) == pytest.approx(0.343)


def test_mellin_powers_closed_form():
    # O_{-alpha}(s^p)(t) = t^p / p^alpha
    for alpha in (0.5, 1.0, 1.5, 2.0):
        for p in (1, 2, 3):
            for t in (0.3, 1.0, 2.0):
                val = mellin_log(power_function(p), alpha, t)
                assert val == pytest.approx(t ** p / p ** alpha, rel=1e-10)


def test_mellin_alpha_one_is_plain_integral():
    # alpha = 1: int_0^t phi(s) ds/s; for phi = s^2 at t = 1 this is 1/2
    assert mellin_log(power_function(2), 1.0, 1.0) == pytest.approx(0.5)


def test_mellin_entropy_function():
    # O_{-1/2}(s log s)(t) = t (log t - 1/2)
    phi = entropy_function()
    for t in (0.25, 0.5, 1.0, 1.7):
        val = mellin_log(phi, 0.5, t)
        assert val == pytest.approx(t * (math.log(t) - 0.5), rel=1e-9)
    assert mellin_log(phi, 0.5, 0.0) == 0.0


def test_mellin_zero_at_origin_and_rejects_bad_args():
    phi = power_function(2)
    assert mellin_log(phi, 1.5, 0.0) == 0.0
    with pytest.raises(ValueError):
        mellin_log(phi, -1.0, 1.0)


def test_szego_functional_powers_on_circle():
    # For phi = s^n: F = n^{-d'/2} int a^n dsigma
    sub = mfd.circle(1.0)
    quad = mfd.quadrature(sub, 128)
    a = lambda t: 1.0 + 0.5 * np.cos(t[:, 0])
    for n in (1, 2, 3):
        pred = szego_functional(sub, a, power_function(n), quad)
        expect = np.sum(quad.weights * a(quad.nodes) ** n)
        assert pred == pytest.approx(expect / n ** 0.5, rel=1e-10)
    # unit amplitude with s log s gives -|Gamma|/2 = -pi
    pred = szego_functional(sub, None, entropy_function(), quad)
    assert pred == pytest.approx(-math.pi, rel=1e-10)


def test_szego_scaling_factor():
    sub = mfd.circle(1.0)
    scaling = szego_scaling(4.0, sub.dim, mfd.d_prime(sub))
    assert scaling == pytest.approx(math.sqrt(2.0) * math.sqrt(math.pi / 4.0))


def test_s_factor_values():
    # circle, N = d = d' = 1, at k = 1: 2^{-1/2} sqrt(pi)
    assert s_factor(1.0, 1, 1, 1) == pytest.approx(2 ** -0.5 * math.sqrt(math.pi),
                                                   rel=1e-15)
    # plane: d = 2N, d' = 0 gives factor 1 at every k
    assert s_factor(4.0, 2, 4, 0) == 1.0
    # s times the Szego normalization is (pi/k)^N, whatever d and d'
    for N, d, dp in ((1, 1, 1), (2, 3, 1), (2, 2, 2), (3, 4, 2)):
        assert (s_factor(7.0, N, d, dp) * szego_scaling(7.0, d, dp)
                == pytest.approx((math.pi / 7.0) ** N, rel=1e-14))


def test_szego_normalization_on_sphere3_where_d_differs_from_d_prime():
    # sphere3 in C^2 has N = 2, d = 3, d' = 1, so a factor that reads d
    # for d' (or the reverse) is off by a power of 2; the circle checks,
    # where d = d' = 1, cannot see that.  The Lab's k = 10 operator, a = 1.
    from szegolab.acceptance import Lab
    from szegolab.spectral import eigensolve

    k, lab = 10.0, Lab()
    sub = lab.sphere
    N, d, dp = sub.ambient_dim, sub.dim, mfd.d_prime(sub)
    assert (N, d, dp) == (2, 3, 1)
    mu = s_factor(k, N, d, dp) * eigensolve(lab.sphere_op(k)).eigenvalues
    norm = szego_scaling(k, d, dp)
    # phi = s: the trace identity, norm * s * Tr T = |S^3| = 2 pi^2
    assert norm * math.fsum(mu.tolist()) == pytest.approx(2 * math.pi ** 2,
                                                          rel=1e-10)
    # phi = s^2: F = 2^{-d'/2} |S^3| = sqrt(2) pi^2, and the scaled trace
    # is within its O(1/k) gap of it
    M = int(round(4 * k)) + 4
    quad = mfd.quadrature(sub, [M // 2 + 1, M + 1, M + 1])
    pred = szego_functional(sub, None, power_function(2), quad)
    assert pred == pytest.approx(math.sqrt(2) * math.pi ** 2, rel=1e-10)
    assert norm * math.fsum((mu ** 2).tolist()) == pytest.approx(pred,
                                                                 rel=0.05)


def test_szego_rejects_symplectic():
    sub = mfd.parabola_patch()
    quad = mfd.quadrature(sub, 8)
    with pytest.raises(ValueError):
        szego_functional(sub, None, power_function(1), quad)


def test_limiting_density_unit_circle():
    # unit amplitude, d' = 1: D(s) = |Gamma| / (Gamma(1/2) s sqrt(-log s))
    sub = mfd.circle(1.0)
    quad = mfd.quadrature(sub, 256)
    for s in (0.2, 0.5, 0.8):
        val = limiting_density(sub, None, s, quad)
        expect = 2 * math.pi / (gamma_fn(0.5) * s * math.sqrt(-math.log(s)))
        assert val == pytest.approx(expect, rel=1e-10)
    # above the amplitude maximum the density vanishes
    assert limiting_density(sub, None, 1.5, quad) == 0.0
    with pytest.raises(ValueError):
        limiting_density(sub, None, 0.0, quad)


def test_weyl_prediction_examples():
    # lo = hi gives zero count
    assert weyl_prediction(2 * math.pi, 1, (0.5, 0.5)) == pytest.approx(0.0)
    # area 4 sqrt(pi), d' = 1, [e^{-1}, 1]: 4 sqrt(pi) / Gamma(3/2) * 1 = 8
    val = weyl_prediction(4 * math.sqrt(math.pi), 1, (math.exp(-1.0), 1.0))
    assert val == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(ValueError):
        weyl_prediction(1.0, 1, (0.5, 2.0))


def test_weyl_prediction_additive_over_intervals():
    area, dp = 2 * math.pi, 1
    total = weyl_prediction(area, dp, (0.1, 0.9))
    split = weyl_prediction(area, dp, (0.1, 0.4)) + weyl_prediction(
        area, dp, (0.4, 0.9))
    assert total == pytest.approx(split, rel=1e-12)


def test_moment_prediction_n1_is_trace_identity():
    # n = 1, Delta_1 = 1: prediction reduces to (k/pi)^N 2^{d/2} ... times
    # int a dsigma; for the circle this is the exact trace 2 k r^2 e^0 ... = 2k
    sub = mfd.circle(1.0)
    quad = mfd.quadrature(sub, 64)
    k = 13.0
    assert moment_prediction(sub, [None], 1, quad, k) == pytest.approx(
        2 * k, rel=1e-12)


def test_moment_prediction_circle_n2():
    # Delta_2 = 2^{d/2} = sqrt(2) on a Lagrangian curve
    sub = mfd.circle(1.0)
    quad = mfd.quadrature(sub, 64)
    k = 9.0
    val = moment_prediction(sub, [None, None], 2, quad, k)
    expect = (math.sqrt(2.0) * (k / math.pi) ** 0.5) ** 2 \
        * math.sqrt(k / (2 * math.pi)) * 2 * math.pi / math.sqrt(2.0)
    assert val == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        moment_prediction(sub, [None], 2, quad, k)


def test_moment_prediction_matches_frame_at_route():
    # the frame cached on the quadrature serves every k bit for bit
    sub = mfd.parabola_patch((-1.0, 1.0), (-1.0, 1.0))
    quad = mfd.quadrature(sub, 16)

    def amp(t):
        return 1.0 + 0.5 * t[:, 0] * t[:, 1]

    d, N = sub.dim, sub.ambient_dim
    for n in (2, 3):
        for k in (50.0, 100.0):
            prod = np.ones(quad.size, dtype=complex)
            for a in (amp,) * n:
                prod = prod * mfd.amp_values(a, quad)
            deltas = mfd.delta_n(mfd.frame_at(sub, quad.nodes), n)
            total = float(np.sum(quad.weights * (prod / deltas)).real)
            expect = (2.0 ** (0.5 * d) * (k / math.pi) ** (N - 0.5 * d)) ** n \
                * (k / (2.0 * math.pi)) ** (0.5 * d) * total
            assert moment_prediction(sub, [amp] * n, n, quad, k) == expect


def test_schatten_prediction_values():
    sub = mfd.circle(1.0)
    quad = mfd.quadrature(sub, 128)
    # unit amplitude: int 1 dsigma / p^{1/2}
    assert schatten_prediction(sub, None, 2.0, quad) == pytest.approx(
        2 * math.pi / math.sqrt(2.0), rel=1e-12)
    assert schatten_prediction(sub, None, 1.0, quad) == pytest.approx(
        2 * math.pi, rel=1e-12)
    # homogeneity: |c a|^p scales by |c|^p
    a = lambda t: 1.0 + 0.3 * np.sin(t[:, 0])
    a3 = lambda t: -3.0 * (1.0 + 0.3 * np.sin(t[:, 0]))
    assert schatten_prediction(sub, a3, 2.0, quad) == pytest.approx(
        9.0 * schatten_prediction(sub, a, 2.0, quad), rel=1e-12)
    with pytest.raises(ValueError):
        schatten_prediction(sub, None, 0.0, quad)


def test_entropy_prediction_uniform_circle():
    sub = mfd.circle(1.0)
    quad = mfd.quadrature(sub, 128)
    uniform = 1.0 / (2 * math.pi)
    value = entropy_prediction(sub, uniform, quad)
    assert value == pytest.approx(math.log(2 * math.pi) + 0.5, rel=1e-12)
    with pytest.raises(ValueError):
        entropy_prediction(sub, 1.0, quad)  # mass 2 pi, not 1


def test_density_functional_consistency():
    # For polynomial phi the Szego functional equals int phi(s) D(s) ds
    sub = mfd.circle(1.0)
    quad = mfd.quadrature(sub, 256)
    a = lambda t: 0.9 * np.exp(0.3 * np.cos(t[:, 0]))
    phi = power_function(2)
    pred = szego_functional(sub, a, phi, quad)
    s_nodes, s_weights = np.polynomial.legendre.leggauss(400)
    lo, hi = 1e-6, 1.3
    s = 0.5 * (hi - lo) * (s_nodes + 1.0) + lo
    w = 0.5 * (hi - lo) * s_weights
    dens = np.array([limiting_density(sub, a, si, quad) for si in s])
    # the density has integrable sqrt singularities at the amplitude extremes,
    # so a global Gauss rule in s converges slowly; percent level is enough here
    assert float(np.sum(w * phi(s) * dens)) == pytest.approx(pred, rel=1e-2)


def test_limiting_density_trapezoid_count_consistency():
    # integral of the density over [lo, hi] matches the Weyl prediction
    sub = mfd.circle(1.0)
    quad = mfd.quadrature(sub, 64)
    lo, hi = 0.2, 0.9
    s_nodes, s_weights = np.polynomial.legendre.leggauss(200)
    s = 0.5 * (hi - lo) * (s_nodes + 1.0) + lo
    w = 0.5 * (hi - lo) * s_weights
    dens = np.array([limiting_density(sub, None, si, quad) for si in s])
    count = float(np.sum(w * dens))
    assert count == pytest.approx(weyl_prediction(2 * math.pi, 1, (lo, hi)),
                                  rel=1e-10)
