"""Block tri-diagonal Hessian determinants.

The q-block Hessian S_q built from a metric G and a skew form H factors as
det(S_q) = det(G)^q det(Det(M_q)) where Det(M_q) is a matrix polynomial in
W = G^{-1}H, computed here as a plain d x d matrix.  Det(M_q) satisfies a
three-term recursion and has an explicit binomial closed form; its square
root equals the Hessian factor Delta_{q+1}.  All three routes are checked
against each other and against a brute-force dense determinant.

Each public entry point validates (G, H, q) once and calls private cores
that do not check again.  The report of `verify_sqrt_det` carries the
recursion's matrix and W, so a caller comparing it against the closed
form runs the recursion once per (G, H, q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .manifold import GeometryFrame, _lambda_pairs, delta_n

__all__ = [
    "build_hessian",
    "det_recursion",
    "det_closed_form",
    "verify_sqrt_det",
    "lambdas_of",
    "random_spd_skew",
    "SqrtDetReport",
]

SQRT_DET_TOL = 1e-8  # relative tolerance of both checks in verify_sqrt_det


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


def _checked(G: np.ndarray, H: np.ndarray, q: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """G and H as float arrays, after `_check_gh` and the check of q.

    Each public entry point validates once here and calls the private
    cores below, which do not check again.
    """
    _check_gh(G, H)
    if q < 1:
        raise ValueError("q must be >= 1")
    return np.asarray(G, float), np.asarray(H, float)


def build_hessian(G: np.ndarray, H: np.ndarray, q: int) -> np.ndarray:
    """Dense qd x qd block tri-diagonal matrix: diagonal 2G, superdiagonal
    -G - iH, subdiagonal -G + iH."""
    return _build_hessian(*_checked(G, H, q), q)


def _build_hessian(G: np.ndarray, H: np.ndarray, q: int) -> np.ndarray:
    d = G.shape[0]
    S = np.zeros((q * d, q * d), dtype=complex)
    for b in range(q):
        S[b * d:(b + 1) * d, b * d:(b + 1) * d] = 2.0 * G
        if b + 1 < q:
            S[b * d:(b + 1) * d, (b + 1) * d:(b + 2) * d] = -G - 1j * H
            S[(b + 1) * d:(b + 2) * d, b * d:(b + 1) * d] = -G + 1j * H
    return S


def det_recursion(G: np.ndarray, H: np.ndarray, q: int) -> np.ndarray:
    """Det(M_q) by the recursion D_1 = 2I, D_2 = 3I - W^2,
    D_{q+1} = 2 D_q - (I + W^2) D_{q-1}, with W = G^{-1} H."""
    G, H = _checked(G, H, q)
    return _det_recursion(np.linalg.solve(G, H), q)


def _det_recursion(W: np.ndarray, q: int) -> np.ndarray:
    one = np.eye(W.shape[0])
    W2 = W @ W
    D_prev = 2.0 * one                      # D_1
    if q == 1:
        return D_prev
    D_cur = 3.0 * one - W2                  # D_2
    Z = one + W2
    for _ in range(3, q + 1):
        D_prev, D_cur = D_cur, 2.0 * D_cur - Z @ D_prev
    return D_cur


def det_closed_form(W: np.ndarray, q: int) -> np.ndarray:
    """Det(M_q) = sum_j binom(q+1, 2j+1) (-1)^j W^{2j}; total even for
    singular W."""
    if q < 1:
        raise ValueError("q must be >= 1")
    W = np.asarray(W, float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("W must be a square matrix")
    W2 = W @ W
    acc = np.zeros_like(W2)
    power = np.eye(W.shape[0])
    for j in range(q // 2 + 1):
        acc += math.comb(q + 1, 2 * j + 1) * (-1.0) ** j * power
        power = power @ W2
    return acc


def lambdas_of(G: np.ndarray, H: np.ndarray) -> tuple[np.ndarray, int]:
    """Positive lambda_ell with eig(W) = {+-i lambda_ell} union {0}; returns
    (ascending lambdas, half rank r)."""
    gl, gv = np.linalg.eigh(np.asarray(G, float)[None])
    lam, is_lambda = _lambda_pairs(gl, gv, np.asarray(H, float)[None])
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
    det_m: np.ndarray = field(repr=False, compare=False)  # recursion's Det(M_q)
    W: np.ndarray = field(repr=False, compare=False)


def verify_sqrt_det(G: np.ndarray, H: np.ndarray, q: int) -> SqrtDetReport:
    """Three-way check of the determinant factorization.

    (i) det of the dense Hessian equals det(G)^q det(Det(M_q));
    (ii) sqrt(det(Det(M_q))) equals Delta_{q+1} built from the lambdas of W.
    """
    G, H = _checked(G, H, q)
    dense = _build_hessian(G, H, q)
    det_dense = np.linalg.det(dense)
    if abs(det_dense.imag) > 1e-8 * max(abs(det_dense), 1.0):
        raise ValueError("dense Hessian determinant is not real")
    det_dense = float(det_dense.real)
    W = np.linalg.solve(G, H)
    det_m = _det_recursion(W, q)
    detM = float(np.linalg.det(det_m))
    det_factored = float(np.linalg.det(G)) ** q * detM
    rel_det = abs(det_dense - det_factored) / max(abs(det_dense), 1e-300)
    gl, gv = np.linalg.eigh(G[None])
    delta = float(delta_n(GeometryFrame(*_lambda_pairs(gl, gv, H[None])),
                          q + 1)[0])
    sqrt_det = math.sqrt(max(detM, 0.0))
    rel_sqrt = abs(sqrt_det - delta) / max(abs(delta), 1e-300)
    return SqrtDetReport(q=q, det_dense=det_dense, det_factored=det_factored,
                         rel_err_det=rel_det, sqrt_det=sqrt_det, delta=delta,
                         rel_err_sqrt=rel_sqrt,
                         ok=rel_det <= SQRT_DET_TOL
                         and rel_sqrt <= SQRT_DET_TOL,
                         det_m=det_m, W=W)


def random_spd_skew(d: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Well-conditioned random pair: G = A^T A + 0.1 I, H = (B - B^T)/2."""
    A = rng.standard_normal((d, d))
    B = rng.standard_normal((d, d))
    return A.T @ A + 0.1 * np.eye(d), 0.5 * (B - B.T)
