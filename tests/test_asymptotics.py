import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as gamma_fn

import szegolab.asymptotics as asymptotics
import szegolab.manifold as mfd
from szegolab.asymptotics import (
    _laguerre_rule,
    entropy_prediction,
    limiting_density,
    mellin_log,
    moment_prediction,
    s_factor,
    schatten_prediction,
    szego_factors,
    szego_functional,
    szego_scaling,
    weyl_prediction,
)
from szegolab.spectral import (
    entropy_function,
    indicator_function,
    power_function,
    trapezoid_function,
)


def test_mellin_alpha_zero_is_identity():
    phi = power_function(3)
    ts = np.array([0.0, 0.2, 1.0, 2.5])
    assert mellin_log(phi, 0.0, ts) == pytest.approx(ts ** 3)
    assert mellin_log(phi, 0.0, 0.7) == pytest.approx(0.343)


@pytest.mark.parametrize("a", [-0.5, 0.0, 0.5, 1.0])
def test_gauss_laguerre_matches_scipys_rule(a):
    # the alpha - 1 of mellin_log at d' = 1, 2, 3, 4; the weights as the
    # rule uses them, w e^x
    from scipy.special import roots_genlaguerre

    x, w = asymptotics._gauss_laguerre(64, a)
    xs, ws = roots_genlaguerre(64, a)
    assert np.abs(x / xs - 1.0).max() <= 1e-12
    assert np.abs(w * np.exp(x) / (ws * np.exp(xs)) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("a", [-0.5, 0.0, 1.5])
def test_gauss_laguerre_integrates_polynomials_exactly(n, a):
    # int x^j x^a e^{-x} dx = Gamma(a + j + 1) for j <= 2n - 1
    x, w = asymptotics._gauss_laguerre(n, a)
    for j in range(2 * n):
        assert np.sum(w * x ** j) == pytest.approx(math.gamma(a + j + 1.0),
                                                   rel=1e-13)


def test_cached_laguerre_rule_is_read_only():
    decay, wexp = _laguerre_rule(0.5)
    assert _laguerre_rule(0.5)[0] is decay
    for a in (decay, wexp):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    # a caller's result is its own array, not a view of the rule
    out = mellin_log(power_function(2), 0.5, np.array([0.5, 1.0]))
    out[:] = 0.0
    assert mellin_log(power_function(2), 0.5, 1.0) == pytest.approx(2 ** -0.5)


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


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_closed_forms_match_mellin_log(alpha):
    # t^p / p^alpha and t log t - alpha t against Gauss-Laguerre
    t = np.array([0.3, 0.5, 1.0, 2.0, 3.5])
    for phi in (power_function(0.5), power_function(2), power_function(3),
                entropy_function()):
        assert phi.mellin(t, alpha) == pytest.approx(
            mellin_log(phi, alpha, t), rel=1e-12, abs=0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_indicator_closed_form_matches_its_integral(alpha):
    # (1/Gamma(alpha)) int_0^t phi(s) log(t/s)^{alpha-1} ds/s, by quadpack
    lo, hi = 0.2, 0.9
    phi = indicator_function(lo, hi)
    for t in (0.1, 0.2, 0.5, 0.9, 1.0, 2.0):
        top = min(t, hi)
        direct = 0.0 if top <= lo else integrate.quad(
            lambda s: math.log(t / s) ** (alpha - 1.0) / s, lo, top,
            epsabs=1e-13, epsrel=1e-12)[0] / math.gamma(alpha)
        assert phi.mellin(np.array([t]), alpha)[0] == pytest.approx(
            direct, rel=1e-10, abs=1e-13)


def test_weyl_prediction_is_area_times_the_indicator_at_one():
    for dp in (1, 2, 3):
        for lo, hi in ((0.2, 0.9), (0.05, 1.0), (0.5, 0.5)):
            closed = indicator_function(lo, hi).mellin(np.ones(1), 0.5 * dp)
            assert weyl_prediction(2 * math.pi, dp, (lo, hi)) == (
                2 * math.pi * closed[0])


def test_szego_functional_takes_the_closed_form_when_there_is_one(
        monkeypatch):
    sub = mfd.circle(1.0)
    quad = mfd.quadrature(sub, 64)
    a = lambda t: 1.0 + 0.5 * np.cos(t[:, 0])
    calls = []
    monkeypatch.setattr(asymptotics, "mellin_log",
                        lambda *args: calls.append(1) or mellin_log(*args))
    closed = szego_functional(a, power_function(2), quad)
    assert not calls
    numeric = szego_functional(
        a, dataclasses.replace(power_function(2), mellin=None), quad)
    assert calls and numeric == pytest.approx(closed, rel=1e-12)
    # the trapezoid has one too, the ramp up less the ramp down
    szego_functional(a, trapezoid_function(0.2, 0.3, 0.6, 0.8), quad)
    assert len(calls) == 1


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_trapezoid_closed_form_matches_its_integral(alpha):
    # (1/Gamma(alpha)) int_0^inf phi(t e^{-x}) x^{alpha-1} dx, by quadpack
    # with the kinks x = log(t/c) as break points; the 64-node
    # Gauss-Laguerre rule of `mellin_log` is off by up to 3e-2 here
    corners = (0.2, 0.3, 0.6, 0.8)
    phi = trapezoid_function(*corners)
    for t in (0.1, 0.25, 0.5, 1.0, 1.5, 3.0):
        kinks = [math.log(t / c) for c in corners if t > c]
        direct = 0.0 if not kinks else integrate.quad(
            lambda x: phi(t * math.exp(-x)) * x ** (alpha - 1.0),
            0.0, kinks[0], points=kinks[1:] or None, epsabs=1e-14,
            epsrel=1e-13, limit=200)[0] / math.gamma(alpha)
        assert phi.mellin(np.array([t]), alpha)[0] == pytest.approx(
            direct, rel=1e-12, abs=1e-14)


def test_szego_functional_powers_on_circle():
    # For phi = s^n: F = n^{-d'/2} int a^n dsigma
    sub = mfd.circle(1.0)
    quad = mfd.quadrature(sub, 128)
    a = lambda t: 1.0 + 0.5 * np.cos(t[:, 0])
    for n in (1, 2, 3):
        pred = szego_functional(a, power_function(n), quad)
        expect = np.sum(quad.weights * a(quad.nodes) ** n)
        assert pred == pytest.approx(expect / n ** 0.5, rel=1e-10)
    # unit amplitude with s log s gives -|Gamma|/2 = -pi
    pred = szego_functional(None, entropy_function(), quad)
    assert pred == pytest.approx(-math.pi, rel=1e-10)


def test_szego_scaling_factor():
    quad = mfd.quadrature(mfd.circle(1.0), 16)
    scaling = szego_scaling(4.0, quad.sub.dim,
                            mfd.d_prime(quad.classification))
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


@pytest.mark.parametrize("sub, order, expected", [
    (mfd.circle(1.0), 16, (1, 1, 1)),
    (mfd.torus_product([1.0, 0.7]), 16, (2, 2, 2)),
    (mfd.sphere3(1.0), [5, 9, 9], (2, 3, 1)),  # coisotropic, d != d'
], ids=["circle", "torus", "sphere3"])
def test_szego_factors_read_the_classification(sub, order, expected):
    quad = mfd.quadrature(sub, order)
    cls = quad.classification
    N, d, dp = expected
    assert (cls.ambient_dim, cls.dim, mfd.d_prime(cls)) == expected
    for k in (3.0, 25.0, 400.0):
        assert szego_factors(k, quad) == (s_factor(k, N, d, dp),
                                          szego_scaling(k, d, dp))


def test_szego_factors_refuse_a_symplectic_quadrature():
    with pytest.raises(ValueError, match="isotropic or coisotropic"):
        szego_factors(10.0, mfd.quadrature(mfd.parabola_patch(), 8))


def test_szego_normalization_on_sphere3_where_d_differs_from_d_prime():
    # sphere3 in C^2 has N = 2, d = 3, d' = 1, so a factor that reads d
    # for d' (or the reverse) is off by a power of 2; the circle checks,
    # where d = d' = 1, cannot see that.  The Lab's k = 10 operator, a = 1.
    from szegolab.acceptance import Lab
    from szegolab.spectral import eigensolve

    k, lab = 10.0, Lab()
    sub = lab.sphere
    M = int(round(4 * k)) + 4
    quad = mfd.quadrature(sub, [M // 2 + 1, M + 1, M + 1])
    N, d, dp = sub.ambient_dim, sub.dim, mfd.d_prime(quad.classification)
    assert (N, d, dp) == (2, 3, 1)
    mu = s_factor(k, N, d, dp) * eigensolve(lab.sphere_op(k)).eigenvalues
    norm = szego_scaling(k, d, dp)
    # phi = s: the trace identity, norm * s * Tr T = |S^3| = 2 pi^2
    assert norm * math.fsum(mu.tolist()) == pytest.approx(2 * math.pi ** 2,
                                                          rel=1e-10)
    # phi = s^2: F = 2^{-d'/2} |S^3| = sqrt(2) pi^2, and the scaled trace
    # is within its O(1/k) gap of it
    pred = szego_functional(None, power_function(2), quad)
    assert pred == pytest.approx(math.sqrt(2) * math.pi ** 2, rel=1e-10)
    assert norm * math.fsum((mu ** 2).tolist()) == pytest.approx(pred,
                                                                 rel=0.05)


def test_szego_rejects_symplectic():
    sub = mfd.parabola_patch()
    quad = mfd.quadrature(sub, 8)
    with pytest.raises(ValueError):
        szego_functional(None, power_function(1), quad)


def test_limiting_density_unit_circle():
    # unit amplitude, d' = 1: D(s) = |Gamma| / (Gamma(1/2) s sqrt(-log s))
    sub = mfd.circle(1.0)
    quad = mfd.quadrature(sub, 256)
    for s in (0.2, 0.5, 0.8):
        val = limiting_density(None, s, quad)
        expect = 2 * math.pi / (gamma_fn(0.5) * s * math.sqrt(-math.log(s)))
        assert val == pytest.approx(expect, rel=1e-10)
    # above the amplitude maximum the density vanishes
    assert limiting_density(None, 1.5, quad) == 0.0
    with pytest.raises(ValueError):
        limiting_density(None, 0.0, quad)


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
    assert schatten_prediction(None, 2.0, quad) == pytest.approx(
        2 * math.pi / math.sqrt(2.0), rel=1e-12)
    assert schatten_prediction(None, 1.0, quad) == pytest.approx(
        2 * math.pi, rel=1e-12)
    # homogeneity: |c a|^p scales by |c|^p
    a = lambda t: 1.0 + 0.3 * np.sin(t[:, 0])
    a3 = lambda t: -3.0 * (1.0 + 0.3 * np.sin(t[:, 0]))
    assert schatten_prediction(a3, 2.0, quad) == pytest.approx(
        9.0 * schatten_prediction(a, 2.0, quad), rel=1e-12)
    with pytest.raises(ValueError):
        schatten_prediction(None, 0.0, quad)


def test_entropy_prediction_uniform_circle():
    sub = mfd.circle(1.0)
    quad = mfd.quadrature(sub, 128)
    uniform = 1.0 / (2 * math.pi)
    value = entropy_prediction(uniform, quad)
    assert value == pytest.approx(math.log(2 * math.pi) + 0.5, rel=1e-12)
    with pytest.raises(ValueError):
        entropy_prediction(1.0, quad)  # mass 2 pi, not 1


def test_density_functional_consistency():
    # For polynomial phi the Szego functional equals int phi(s) D(s) ds
    sub = mfd.circle(1.0)
    quad = mfd.quadrature(sub, 256)
    a = lambda t: 0.9 * np.exp(0.3 * np.cos(t[:, 0]))
    phi = power_function(2)
    pred = szego_functional(a, phi, quad)
    s_nodes, s_weights = np.polynomial.legendre.leggauss(400)
    lo, hi = 1e-6, 1.3
    s = 0.5 * (hi - lo) * (s_nodes + 1.0) + lo
    w = 0.5 * (hi - lo) * s_weights
    dens = np.array([limiting_density(a, si, quad) for si in s])
    # the density has integrable sqrt singularities at the amplitude extremes,
    # so a global Gauss rule in s converges slowly; percent level is enough here
    assert float(np.sum(w * phi(s) * dens)) == pytest.approx(pred, rel=1e-2)


@pytest.mark.parametrize("radii", [(1.0,), (1.0, 0.7), (1.0, 0.7, 0.5)],
                         ids=["circle", "torus2", "torus3"])
def test_limiting_density_trapezoid_count_consistency(radii):
    # integral of the density over [lo, hi] matches the Weyl prediction on
    # Lagrangian tori with d' = 1, 2, 3; Gamma(d'/2) and Gamma(d'^2/2)
    # agree at d' = 1 and 2, so only d' = 3 tells them apart
    sub = mfd.torus_product(radii)
    quad = mfd.quadrature(sub, 64 if len(radii) == 1 else 8)
    area = (2 * math.pi) ** len(radii) * math.prod(radii)
    lo, hi = 0.2, 0.9
    s_nodes, s_weights = np.polynomial.legendre.leggauss(200)
    s = 0.5 * (hi - lo) * (s_nodes + 1.0) + lo
    w = 0.5 * (hi - lo) * s_weights
    dens = np.array([limiting_density(None, si, quad) for si in s])
    count = float(np.sum(w * dens))
    assert count == pytest.approx(
        weyl_prediction(area, len(radii), (lo, hi)), rel=1e-10)
