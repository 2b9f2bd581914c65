import numpy as np
import pytest

from szegolab.hessian import (
    build_hessian,
    det_closed_form,
    det_recursion,
    lambdas_of,
    random_spd_skew,
    verify_sqrt_det,
)

W_CANON = np.array([[0.0, 1.0], [-1.0, 0.0]])  # lambda = 1
G2 = np.eye(2)
H2 = W_CANON.copy()


def test_build_hessian_examples():
    # d = 1, q = 1: the single block is [2g]
    S = build_hessian(np.array([[3.0]]), np.array([[0.0]]), 1)
    assert S.shape == (1, 1)
    assert S[0, 0] == 6.0
    # d = 1, q = 2: det [[2g, -g], [-g, 2g]] = 3 g^2
    S = build_hessian(np.array([[1.5]]), np.array([[0.0]]), 2)
    assert np.linalg.det(S).real == pytest.approx(3 * 1.5 ** 2)


def test_build_hessian_is_complex_symmetric_with_real_det():
    rng = np.random.default_rng(1)
    G, H = random_spd_skew(3, rng)
    S = build_hessian(G, H, 4)
    assert S.shape == (12, 12)
    assert np.allclose(S, S.T)
    det = np.linalg.det(S)
    assert abs(det.imag) <= 1e-8 * abs(det)
    assert det.real > 0


def test_build_hessian_validates_inputs():
    # every public entry point rejects every invalid (G, H, q)
    invalid = [
        (np.eye(2), np.eye(2), 2),  # H not skew
        (-np.eye(2), H2, 2),  # G not positive definite
        (np.array([[1.0, 0.5], [0.0, 1.0]]), H2, 2),  # G not symmetric
        (np.eye(3), H2, 2),  # shapes differ
        (np.ones(2), np.zeros(2), 2),  # not matrices
        (G2, H2, 0),  # q < 1
    ]
    for entry in (build_hessian, det_recursion, verify_sqrt_det):
        for G, H, q in invalid:
            with pytest.raises(ValueError):
                entry(G, H, q)


def test_verify_carries_the_recursion_ring():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 4):
        G, H = random_spd_skew(d, rng)
        for q in (1, 2, 5):
            report = verify_sqrt_det(G, H, q)
            assert np.array_equal(report.det_m, det_recursion(G, H, q))
            assert np.array_equal(report.W, np.linalg.solve(G, H))


def test_recursion_W_zero_gives_q_plus_one():
    G = np.diag([1.0, 2.0])
    H = np.zeros((2, 2))
    for q in range(1, 8):
        D = det_recursion(G, H, q)
        assert np.allclose(D, (q + 1) * np.eye(2), atol=1e-12)


def test_recursion_canonical_d2():
    # W^2 = -I so D_2 = 3I - W^2 = 4I
    D = det_recursion(G2, H2, 2)
    assert np.allclose(D, 4 * np.eye(2), atol=1e-12)


def test_closed_form_examples():
    # q = 2: binom(3,1) - binom(3,3) W^2 = 3I - W^2
    D = det_closed_form(W_CANON, 2)
    assert np.allclose(D, 3 * np.eye(2) - W_CANON @ W_CANON)
    # q = 3: 4I - 4W^2
    D = det_closed_form(W_CANON, 3)
    assert np.allclose(D, 4 * np.eye(2) - 4 * W_CANON @ W_CANON)
    # W = 0 gives (q+1) I
    for q in range(1, 6):
        D = det_closed_form(np.zeros((3, 3)), q)
        assert np.allclose(D, (q + 1) * np.eye(3), atol=1e-12)


def test_recursion_matches_closed_form_random():
    rng = np.random.default_rng(42)
    for d in (1, 2, 3, 4):
        G, H = random_spd_skew(d, rng)
        W = np.linalg.solve(G, H)
        for q in range(1, 13):
            rec = det_recursion(G, H, q)
            closed = det_closed_form(W, q)
            assert np.allclose(rec, closed, atol=1e-8 * max(1.0, np.abs(rec).max()))


def test_lambdas_of_examples():
    lam, r = lambdas_of(G2, H2)
    assert r == 1
    assert lam == pytest.approx([1.0])
    lam0, r0 = lambdas_of(np.eye(3), np.zeros((3, 3)))
    assert r0 == 0 and lam0.size == 0
    # parabola frame at x1 = 1: lambda = 1/sqrt(2)
    G = np.array([[2.0, 0.0], [0.0, 1.0]])
    H = np.array([[0.0, -1.0], [1.0, 0.0]])
    lam, r = lambdas_of(G, H)
    assert lam == pytest.approx([2 ** -0.5])


def test_verify_examples():
    # canonical d = 2, q = 2: detM = 16, sqrt = 4 = Delta_3 (lambda=1, r=1)
    report = verify_sqrt_det(G2, H2, 2)
    assert report.ok
    assert report.sqrt_det == pytest.approx(4.0)
    assert report.delta == pytest.approx(4.0)
    # W = 0, d = 1, q = 3: detM = 4, sqrt = 2 = Delta_4 = 4^{1/2}
    report = verify_sqrt_det(np.array([[1.0]]), np.array([[0.0]]), 3)
    assert report.ok
    assert report.sqrt_det == pytest.approx(2.0)
    assert report.delta == pytest.approx(2.0)


def test_verify_random_three_way():
    rng = np.random.default_rng(7)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        q = int(rng.integers(1, 7))
        G, H = random_spd_skew(d, rng)
        report = verify_sqrt_det(G, H, q)
        assert report.ok, (d, q, report)
        assert report.det_dense > 0


def test_det_eigenvalue_form():
    # det(Det(M_q)) = (q+1)^{d-2r} prod_l [((1+l)^{q+1}-(1-l)^{q+1})/(2l)]^2
    rng = np.random.default_rng(19)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        q = int(rng.integers(1, 6))
        G, H = random_spd_skew(d, rng)
        detM = float(np.linalg.det(det_recursion(G, H, q)))
        lam, r = lambdas_of(G, H)
        n = q + 1
        expect = float(n) ** (d - 2 * r)
        for l in lam:
            expect *= (((1 + l) ** n - (1 - l) ** n) / (2 * l)) ** 2
        assert detM == pytest.approx(expect, rel=1e-8)
