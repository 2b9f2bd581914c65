import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import szegolab.manifold as mfd
from szegolab import dsl
from szegolab.assembly import assemble_T, exact_trace
from szegolab.fock import FockTruncation
from szegolab.spectral import eigensolve


def test_circle_frame():
    sub = mfd.circle(1.5)
    frame = mfd.frame_at(sub, (0.7,))
    assert frame.G[0, 0] == pytest.approx(1.5 ** 2)
    assert frame.H[0, 0] == 0
    assert frame.half_rank == 0
    assert frame.lambdas == ()
    assert frame.vol_density == pytest.approx(1.5)


def test_parabola_frame_matches_closed_form():
    sub = mfd.parabola_patch()
    for x1 in (0.0, 0.5, 1.0):
        frame = mfd.frame_at(sub, (x1, 0.2))
        expect_W = np.array([[0.0, -1.0 / (1.0 + x1 ** 2)], [1.0, 0.0]])
        assert np.allclose(frame.W, expect_W, atol=1e-12)
        assert frame.lambdas == pytest.approx(((1.0 + x1 ** 2) ** -0.5,))
        assert frame.half_rank == 1


def test_plane_frame_all_lambdas_one():
    sub = mfd.plane_patch([[-1, 1]] * 6)  # C^3
    frame = mfd.frame_at(sub, np.zeros(6))
    assert frame.half_rank == 3
    assert frame.lambdas == pytest.approx((1.0, 1.0, 1.0))


def test_classification_catalog():
    assert mfd.classify(mfd.circle(1.0)).tag == "lagrangian"
    assert mfd.classify(mfd.sphere3(1.0)).tag == "coisotropic"
    assert mfd.classify(mfd.parabola_patch()).tag == "symplectic"
    assert mfd.classify(mfd.torus_product([1.0, 0.7])).tag == "lagrangian"
    assert mfd.classify(mfd.torus_product([1.0], ambient_dim=2)).tag == "isotropic"
    assert mfd.classify(mfd.plane_patch([[-1, 1]] * 4)).tag == "coisotropic"


def test_d_prime_values():
    assert mfd.d_prime(mfd.circle(1.0)) == 1
    assert mfd.d_prime(mfd.sphere3(1.0)) == 1
    assert mfd.d_prime(mfd.plane_patch([[-1, 1]] * 4)) == 0
    with pytest.raises(ValueError):
        mfd.d_prime(mfd.parabola_patch())


def test_delta_n_values():
    circle_frame = mfd.frame_at(mfd.circle(1.0), (0.1,))
    assert mfd.delta_n(circle_frame, 1) == 1.0
    assert mfd.delta_n(circle_frame, 2) == pytest.approx(math.sqrt(2))
    plane = mfd.plane_patch([[-1, 1]] * 4)  # N = 2
    pf = mfd.frame_at(plane, np.zeros(4))
    for n in (1, 2, 3, 4):
        assert mfd.delta_n(pf, n) == pytest.approx(2.0 ** (2 * (n - 1)))
    # lambda = 1, d = 2, r = 1, n = 3 gives 4
    from szegolab.manifold import GeometryFrame

    frame = GeometryFrame(G=np.eye(2), H=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                          W=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                          lambdas=(1.0,), half_rank=1, vol_density=1.0)
    assert mfd.delta_n(frame, 3) == pytest.approx(4.0)


def test_delta_identity_binomial_sum():
    # (1+l)^n - (1-l)^n = 2l * sum_j binom(n, 2j+1) l^{2j}
    for lam in (0.1, 0.5, 1.0):
        for n in range(1, 13):
            lhs = (1 + lam) ** n - (1 - lam) ** n
            rhs = 2 * lam * sum(math.comb(n, 2 * j + 1) * lam ** (2 * j)
                                for j in range(n // 2 + 1))
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_stacked_delta_n_matches_per_node_frames():
    sub = mfd.parabola_patch()
    quad = mfd.quadrature(sub, 16)
    for n in (2, 3, 5):
        stacked = mfd.delta_n_at(sub, quad.nodes, n)
        loop = np.array([mfd.delta_n(mfd.frame_at(sub, t), n)
                         for t in quad.nodes])
        assert np.abs(stacked - loop).max() <= 1e-13 * np.abs(loop).max()
        # lambda^2 = 1 / (1 + x1^2) on the parabola
        lam2 = 1.0 / (1.0 + quad.nodes[:, 0] ** 2)
        series = sum(math.comb(n, 2 * j + 1) * lam2 ** j
                     for j in range(n // 2 + 1))
        assert np.abs(stacked / series - 1.0).max() <= 1e-13
    # ranks that differ by manifold: circle r = 0, plane r = 2
    circle = mfd.circle(1.0)
    assert mfd.delta_n_at(circle, [[0.1], [2.0]], 2) == pytest.approx(
        [math.sqrt(2)] * 2)
    plane = mfd.plane_patch([[-1, 1]] * 4)
    assert mfd.delta_n_at(plane, np.zeros((3, 4)), 3) == pytest.approx(
        [16.0] * 3)


def test_quadrature_records_grid_shape():
    quad = mfd.quadrature(mfd.sphere3(1.0), [3, 4, 5])
    assert quad.shape == (3, 4, 5)
    grid = quad.nodes.reshape(3, 4, 5, 3)
    assert np.all(grid[:, 1:, :, 1] > grid[:, :-1, :, 1])  # C order


def test_isotropic_has_zero_H():
    sub = mfd.torus_product([1.0, 0.5, 0.8])
    for t in [(0.1, 0.2, 0.3), (1.0, 2.0, 3.0)]:
        frame = mfd.frame_at(sub, t)
        assert np.abs(frame.H).max() <= 1e-12


def test_W_kernel_dimension():
    sub = mfd.sphere3(1.0)
    frame = mfd.frame_at(sub, (0.4, 1.0, 2.0))
    d, r = frame.dim, frame.half_rank
    eigs = np.linalg.eigvals(frame.W)
    assert np.count_nonzero(np.abs(eigs) < 1e-8) == d - 2 * r


def test_quadrature_masses():
    q = mfd.quadrature(mfd.circle(2.0), 17)
    assert q.total_mass == pytest.approx(2 * math.pi * 2.0, rel=1e-12)
    q2 = mfd.quadrature(mfd.torus_product([1.0, 0.5]), 9)
    assert q2.total_mass == pytest.approx(4 * math.pi ** 2 * 0.5, rel=1e-12)
    q3 = mfd.quadrature(mfd.sphere3(1.3), [9, 8, 8])
    assert q3.total_mass == pytest.approx(2 * math.pi ** 2 * 1.3 ** 3, rel=1e-12)


def test_gauss_legendre_polynomial_exactness():
    sub = mfd.plane_patch([[0, 1], [0, 1]])
    q = mfd.quadrature(sub, 4)  # exact through degree 7
    val = q.integrate(lambda quad: quad.nodes[:, 0] ** 7)
    assert val == pytest.approx(1 / 8, rel=1e-13)


def test_jacobians_match_finite_differences():
    subs = [mfd.circle(1.2), mfd.torus_product([1.0, 0.6]),
            mfd.parabola_patch(), mfd.sphere3(0.9)]
    rng = np.random.default_rng(7)
    h = 1e-5
    for sub in subs:
        for _ in range(3):
            t = np.array([lo + (hi - lo) * rng.uniform(0.2, 0.8)
                          for lo, hi in sub.domain])
            J = sub.jacobian(t[None])[0]
            for j in range(sub.dim):
                step = np.zeros(sub.dim)
                step[j] = h
                fd = (sub.gamma((t + step)[None])[0]
                      - sub.gamma((t - step)[None])[0]) / (2 * h)
                assert np.abs(fd - J[:, j]).max() <= 1e-6


def test_manifold_from_spec_kinds():
    assert mfd.manifold_from_spec({"kind": "circle", "radius": 2.0}).dim == 1
    assert mfd.manifold_from_spec(
        {"kind": "torus_product", "radii": [1, 1]}).ambient_dim == 2
    assert mfd.manifold_from_spec({"kind": "sphere3"}).dim == 3
    assert mfd.manifold_from_spec({"kind": "parabola_patch"}).dim == 2
    assert mfd.manifold_from_spec(
        {"kind": "plane_patch", "ranges": [[-1, 1]] * 2}).ambient_dim == 1
    with pytest.raises(ValueError):
        mfd.manifold_from_spec({"kind": "moebius"})


def test_custom_dsl_chart_matches_builtin_circle():
    spec = {
        "kind": "custom", "dim": 1, "ambient_dim": 1,
        "coords": ["1.5*cos(t1)", "1.5*sin(t1)"],
        "periodic": [True], "domain": [[0.0, 2 * math.pi]],
    }
    custom = mfd.manifold_from_spec(spec)
    builtin = mfd.circle(1.5)
    assert mfd.classify(custom).tag == "lagrangian"
    fc = mfd.frame_at(custom, (0.7,))
    fb = mfd.frame_at(builtin, (0.7,))
    assert np.allclose(fc.G, fb.G, rtol=1e-12)
    q = mfd.quadrature(custom, 32)
    assert q.total_mass == pytest.approx(2 * math.pi * 1.5, rel=1e-10)


def test_custom_chart_evaluates_each_expression_once(monkeypatch):
    calls = []
    evaluate = dsl.evaluate

    def counting(e, t):
        calls.append(len(t))
        return evaluate(e, t)

    monkeypatch.setattr(dsl, "evaluate", counting)
    torus = mfd.custom_chart(2, 2, ["cos(t1)", "sin(t1)", "0.7*cos(t2)",
                                    "0.7*sin(t2)"], [True, True],
                             [[0.0, 2 * math.pi]] * 2)
    for order in (4, 40):
        calls.clear()
        q = mfd.quadrature(torus, order)
        # 2N coordinates and 2N * d derivatives, each over all nodes at once
        assert calls == [q.size] * (2 * 2 * (1 + 2))


@settings(max_examples=20, deadline=None)
@given(r=st.floats(0.5, 2.0), s=st.floats(0.0, 2 * math.pi))
def test_shifted_dsl_circle_matches_builtin(r, s):
    custom = mfd.custom_chart(1, 1, [f"{r!r}*cos(t1 + {s!r})",
                                     f"{r!r}*sin(t1 + {s!r})"],
                              [True], [[0.0, 2 * math.pi]])
    builtin = mfd.circle(r)
    # M = 80 holds all but ~1e-18 of the Poisson(k r^2) mass at r <= 2
    trunc = FockTruncation(1, 4.0, 80)
    ops = [assemble_T(trunc, sub, None, mfd.quadrature(sub, 192))
           for sub in (custom, builtin)]
    for op in ops:
        assert exact_trace(op)[2] <= 1e-10
    got, want = (eigensolve(op).eigenvalues for op in ops)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_default_max_degree_rule():
    q = mfd.quadrature(mfd.circle(1.0), 16)
    assert mfd.default_max_degree(10.0, q) == 40


def test_amplitude_from_dsl():
    amp = mfd.amplitude_from_dsl("1 + cos(t1)", 1)
    vals = amp(np.array([[0.0], [math.pi]]))
    assert vals == pytest.approx([2.0, 0.0], abs=1e-15)
