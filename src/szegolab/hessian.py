"""Block tri-diagonal Hessian determinants.

The q-block Hessian S_q built from a metric G and a skew form H factors as
det(S_q) = det(G)^q det(Det(M_q)) where Det(M_q) lives in the commutative
ring of polynomials in W = G^{-1}H.  Det(M_q) satisfies a three-term
recursion and has an explicit binomial closed form; its square root equals
the Hessian factor Delta_{q+1}.  All three routes are checked against each
other and against a brute-force dense determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifold import _delta_values, _lambda_pairs

__all__ = [
    "RingElement",
    "build_hessian",
    "det_recursion",
    "det_closed_form",
    "verify_sqrt_det",
    "lambdas_of",
    "random_spd_skew",
    "SqrtDetReport",
]


@dataclass(frozen=True)
class RingElement:
    """Polynomial in a fixed d x d matrix W, reduced to degree < d.

    Stores the coefficient vector on W^0..W^{d-1} together with W itself;
    the realized matrix is the polynomial applied to W.  Products reduce
    modulo the characteristic polynomial, so commutativity is exact.
    """

    W: np.ndarray
    coeffs: np.ndarray

    @staticmethod
    def constant(W: np.ndarray, c: float) -> "RingElement":
        d = W.shape[0]
        coeffs = np.zeros(d)
        coeffs[0] = c
        return RingElement(W=W, coeffs=coeffs)

    @staticmethod
    def generator(W: np.ndarray) -> "RingElement":
        d = W.shape[0]
        coeffs = np.zeros(d)
        if d == 1:
            # W is scalar; the generator is that scalar times the identity
            coeffs[0] = float(W[0, 0])
        else:
            coeffs[1] = 1.0
        return RingElement(W=W, coeffs=coeffs)

    def realize(self) -> np.ndarray:
        d = self.W.shape[0]
        out = np.zeros((d, d))
        P = np.eye(d)
        for c in self.coeffs:
            out = out + c * P
            P = P @ self.W
        return out

    def __add__(self, other: "RingElement") -> "RingElement":
        return RingElement(W=self.W, coeffs=self.coeffs + other.coeffs)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return RingElement(W=self.W, coeffs=self.coeffs - other.coeffs)

    def scale(self, c: float) -> "RingElement":
        return RingElement(W=self.W, coeffs=c * self.coeffs)

    def __mul__(self, other: "RingElement") -> "RingElement":
        raw = np.convolve(self.coeffs, other.coeffs)
        return RingElement(W=self.W, coeffs=_reduce(raw, self.W))


def _reduce(coeffs: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Reduce a power series in W modulo its characteristic polynomial."""
    d = W.shape[0]
    # np.poly gives monic charpoly [1, c_1, ..., c_d]; W^d = -sum c_i W^{d-i}
    cp = np.poly(W).real
    coeffs = np.array(coeffs, dtype=float, copy=True)
    for p in range(coeffs.size - 1, d - 1, -1):
        top = coeffs[p]
        if top != 0.0:
            for i in range(1, d + 1):
                coeffs[p - i] -= top * cp[i]
            coeffs[p] = 0.0
    out = np.zeros(d)
    out[:min(d, coeffs.size)] = coeffs[:d]
    return out


def _check_gh(G: np.ndarray, H: np.ndarray) -> None:
    G = np.asarray(G, float)
    H = np.asarray(H, float)
    if G.shape != H.shape or G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError("G and H must be square matrices of the same size")
    if not np.allclose(G, G.T, atol=1e-12 * max(1.0, np.abs(G).max())):
        raise ValueError("G must be symmetric")
    if np.linalg.eigvalsh(G).min() <= 0:
        raise ValueError("G must be positive definite")
    if not np.allclose(H, -H.T, atol=1e-12 * max(1.0, np.abs(H).max(initial=0.0))):
        raise ValueError("H must be skew-symmetric")


def build_hessian(G: np.ndarray, H: np.ndarray, q: int) -> np.ndarray:
    """Dense qd x qd block tri-diagonal matrix: diagonal 2G, superdiagonal
    -G - iH, subdiagonal -G + iH."""
    _check_gh(G, H)
    if q < 1:
        raise ValueError("q must be >= 1")
    G = np.asarray(G, float)
    H = np.asarray(H, float)
    d = G.shape[0]
    S = np.zeros((q * d, q * d), dtype=complex)
    for b in range(q):
        S[b * d:(b + 1) * d, b * d:(b + 1) * d] = 2.0 * G
        if b + 1 < q:
            S[b * d:(b + 1) * d, (b + 1) * d:(b + 2) * d] = -G - 1j * H
            S[(b + 1) * d:(b + 2) * d, b * d:(b + 1) * d] = -G + 1j * H
    return S


def det_recursion(G: np.ndarray, H: np.ndarray, q: int) -> RingElement:
    """Det(M_q) by the recursion D_1 = 2I, D_2 = 3I - W^2,
    D_{q+1} = 2 D_q - (I + W^2) D_{q-1}, with W = G^{-1} H."""
    _check_gh(G, H)
    if q < 1:
        raise ValueError("q must be >= 1")
    W = np.linalg.solve(np.asarray(G, float), np.asarray(H, float))
    one = RingElement.constant(W, 1.0)
    Wr = RingElement.generator(W)
    W2 = Wr * Wr
    D_prev = one.scale(2.0)                 # D_1
    if q == 1:
        return D_prev
    D_cur = one.scale(3.0) - W2             # D_2
    Z = one + W2
    for _ in range(3, q + 1):
        D_prev, D_cur = D_cur, D_cur.scale(2.0) - Z * D_prev
    return D_cur


def det_closed_form(W: np.ndarray, q: int) -> RingElement:
    """Det(M_q) = sum_j binom(q+1, 2j+1) (-1)^j W^{2j}; total even for
    singular W."""
    if q < 1:
        raise ValueError("q must be >= 1")
    W = np.asarray(W, float)
    Wr = RingElement.generator(W)
    W2 = Wr * Wr
    acc = RingElement.constant(W, 0.0)
    power = RingElement.constant(W, 1.0)
    for j in range(q // 2 + 1):
        acc = acc + power.scale(math.comb(q + 1, 2 * j + 1) * (-1.0) ** j)
        power = power * W2
    return acc


def lambdas_of(G: np.ndarray, H: np.ndarray, tol: float = 1e-8
               ) -> tuple[np.ndarray, int]:
    """Positive lambda_ell with eig(W) = {+-i lambda_ell} union {0}; returns
    (ascending lambdas, half rank r)."""
    gl, gv = np.linalg.eigh(np.asarray(G, float)[None])
    lam, is_lambda = _lambda_pairs(gl, gv, np.asarray(H, float)[None], tol)
    return lam[is_lambda], int(is_lambda.sum())


@dataclass(frozen=True)
class SqrtDetReport:
    q: int
    det_dense: float
    det_factored: float
    rel_err_det: float
    sqrt_det: float
    delta: float
    rel_err_sqrt: float
    ok: bool


def verify_sqrt_det(G: np.ndarray, H: np.ndarray, q: int,
                    tol: float = 1e-8) -> SqrtDetReport:
    """Three-way check of the determinant factorization.

    (i) det of the dense Hessian equals det(G)^q det(Det(M_q));
    (ii) sqrt(det(Det(M_q))) equals Delta_{q+1} built from the lambdas of W.
    """
    _check_gh(G, H)
    G = np.asarray(G, float)
    H = np.asarray(H, float)
    d = G.shape[0]
    dense = build_hessian(G, H, q)
    det_dense = np.linalg.det(dense)
    if abs(det_dense.imag) > 1e-8 * max(abs(det_dense), 1.0):
        raise ValueError("dense Hessian determinant is not real")
    det_dense = float(det_dense.real)
    ring = det_recursion(G, H, q)
    detM = float(np.linalg.det(ring.realize()))
    det_factored = float(np.linalg.det(G)) ** q * detM
    rel_det = abs(det_dense - det_factored) / max(abs(det_dense), 1e-300)
    lambdas, r = lambdas_of(G, H)
    delta = float(_delta_values(lambdas[None], np.ones((1, r), bool), d,
                                q + 1)[0])
    sqrt_det = math.sqrt(max(detM, 0.0))
    rel_sqrt = abs(sqrt_det - delta) / max(abs(delta), 1e-300)
    return SqrtDetReport(q=q, det_dense=det_dense, det_factored=det_factored,
                         rel_err_det=rel_det, sqrt_det=sqrt_det, delta=delta,
                         rel_err_sqrt=rel_sqrt,
                         ok=rel_det <= tol and rel_sqrt <= tol)


def random_spd_skew(d: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Well-conditioned random pair: G = A^T A + 0.1 I, H = (B - B^T)/2."""
    A = rng.standard_normal((d, d))
    B = rng.standard_normal((d, d))
    return A.T @ A + 0.1 * np.eye(d), 0.5 * (B - B.T)
