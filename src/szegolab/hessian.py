"""Block tri-diagonal Hessian determinants, on stacks of (G, H).

The q-block Hessian S_q built from a metric G and a skew form H factors as
det(S_q) = det(G)^q det(Det(M_q)) where Det(M_q) is a matrix polynomial in
W = G^{-1}H, computed here as a plain d x d matrix.  Det(M_q) satisfies a
three-term recursion and has an explicit binomial closed form; its square
root equals the Hessian factor Delta_{q+1}.  All three routes are checked
against each other and against a brute-force dense determinant.

Every entry point takes a stack: G and H of shape (m, d, d) with one q,
and answers with a leading axis of m.  A single (d, d) pair is the stack
of one, and its answer has no leading axis.  Each numpy call (solve, det,
eigh, matmul) therefore covers a whole stack, and LAPACK still factors
every matrix on its own, so a member of a stack gets the same bits as the
same pair alone.

Each public entry point validates its stack once and calls private cores
on (m, d, d) stacks that do not check again.  Validation is per matrix,
each at its own scale: G symmetric and positive definite, H skew, q >= 1;
one bad member rejects the stack, and a large neighbour does not widen
another member's tolerance.  The report of `verify_sqrt_det` carries the
recursion's matrices and W, so a caller comparing them against the closed
form runs the recursion once per stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

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


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per matrix of the stacks a, b: np.allclose(a, b, atol=1e-12 s) with
    s = max(1, max |a_ij|) the matrix's own scale."""
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2), initial=0.0))
    atol = 1e-12 * scale[:, None, None]
    return np.all(np.abs(a - b) <= atol + 1e-5 * np.abs(b), axis=(1, 2))


def _checked(G: np.ndarray, H: np.ndarray, q: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """G and H as (m, d, d) float stacks, every member validated.

    Each public entry point validates once here and calls the private
    cores below, which do not check again.
    """
    G = np.asarray(G, float)
    H = np.asarray(H, float)
    if (G.shape != H.shape or G.ndim not in (2, 3)
            or G.shape[-1] != G.shape[-2]):
        raise ValueError("G and H must be square matrices of the same size, "
                         "or stacks of them")
    G = G.reshape((-1,) + G.shape[-2:])
    H = H.reshape(G.shape)
    if not np.all(_close(G, np.swapaxes(G, 1, 2))):
        raise ValueError("G must be symmetric")
    if np.any(np.linalg.eigvalsh(G).min(axis=1, initial=np.inf) <= 0):
        raise ValueError("G must be positive definite")
    if not np.all(_close(H, -np.swapaxes(H, 1, 2))):
        raise ValueError("H must be skew-symmetric")
    if q < 1:
        raise ValueError("q must be >= 1")
    return G, H


def _unstacked(G, out: np.ndarray) -> np.ndarray:
    """out without its stack axis when G was one (d, d) matrix."""
    return out[0] if np.ndim(G) == 2 else out


def build_hessian(G: np.ndarray, H: np.ndarray, q: int) -> np.ndarray:
    """Dense qd x qd block tri-diagonal matrix: diagonal 2G, superdiagonal
    -G - iH, subdiagonal -G + iH; (m, qd, qd) for a stack."""
    return _unstacked(G, _build_hessian(*_checked(G, H, q), q))


def _build_hessian(G: np.ndarray, H: np.ndarray, q: int) -> np.ndarray:
    m, d, _ = G.shape
    S = np.zeros((m, q, d, q, d), dtype=complex)  # S[:, row block, :, col block]
    b = np.arange(q)
    S[:, b, :, b, :] = 2.0 * G
    S[:, b[:-1], :, b[1:], :] = -G - 1j * H
    S[:, b[1:], :, b[:-1], :] = -G + 1j * H
    return S.reshape(m, q * d, q * d)


def det_recursion(G: np.ndarray, H: np.ndarray, q: int) -> np.ndarray:
    """Det(M_q) by the recursion D_1 = 2I, D_2 = 3I - W^2,
    D_{q+1} = 2 D_q - (I + W^2) D_{q-1}, with W = G^{-1} H."""
    Gs, Hs = _checked(G, H, q)
    return _unstacked(G, _det_recursion(np.linalg.solve(Gs, Hs), q))


def _det_recursion(W: np.ndarray, q: int) -> np.ndarray:
    one = np.eye(W.shape[-1])
    W2 = W @ W
    if q == 1:
        return np.broadcast_to(2.0 * one, W.shape).copy()  # D_1
    D_prev = 2.0 * one                      # D_1
    D_cur = 3.0 * one - W2                  # D_2
    Z = one + W2
    for _ in range(3, q + 1):
        D_prev, D_cur = D_cur, 2.0 * D_cur - Z @ D_prev
    return D_cur


def det_closed_form(W: np.ndarray, q: int) -> np.ndarray:
    """Det(M_q) = sum_j binom(q+1, 2j+1) (-1)^j W^{2j}; total even for
    singular W.  W is one d x d matrix or an (m, d, d) stack."""
    if q < 1:
        raise ValueError("q must be >= 1")
    W = np.asarray(W, float)
    if W.ndim not in (2, 3) or W.shape[-1] != W.shape[-2]:
        raise ValueError("W must be a square matrix or a stack of them")
    W2 = W @ W
    acc = np.zeros_like(W2)
    power = np.eye(W.shape[-1])
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
    """`verify_sqrt_det` on one pair, or on a stack of m pairs: then every
    field but q holds one entry per pair, (m,) arrays and (m, d, d) det_m
    and W, and `member(i)` is pair i's report."""

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

    def member(self, i: int) -> SqrtDetReport:
        """Report of pair i of a stack, as the 2-D call on that pair gives."""
        entries = {f.name: getattr(self, f.name)[i] for f in fields(self)
                   if f.name != "q"}
        return SqrtDetReport(q=self.q, **{
            name: v if v.ndim else v.item() for name, v in entries.items()})


def verify_sqrt_det(G: np.ndarray, H: np.ndarray, q: int) -> SqrtDetReport:
    """Three-way check of the determinant factorization, per pair.

    (i) det of the dense Hessian equals det(G)^q det(Det(M_q));
    (ii) sqrt(det(Det(M_q))) equals Delta_{q+1} built from the lambdas of W.
    """
    Gs, Hs = _checked(G, H, q)
    det_dense = np.linalg.det(_build_hessian(Gs, Hs, q))
    if np.any(np.abs(det_dense.imag)
              > 1e-8 * np.maximum(np.abs(det_dense), 1.0)):
        raise ValueError("dense Hessian determinant is not real")
    det_dense = det_dense.real
    W = np.linalg.solve(Gs, Hs)
    det_m = _det_recursion(W, q)
    detM = np.linalg.det(det_m)
    # det(G)^q by the C library's pow, as a single pair's Python float
    # gets it: numpy's vectorised power can differ from it in the last bit
    det_g_q = np.array([g ** q for g in np.linalg.det(Gs).tolist()])
    det_factored = det_g_q * detM
    rel_det = np.abs(det_dense - det_factored) / np.maximum(
        np.abs(det_dense), 1e-300)
    gl, gv = np.linalg.eigh(Gs)
    delta = delta_n(GeometryFrame(*_lambda_pairs(gl, gv, Hs)), q + 1)
    sqrt_det = np.sqrt(np.maximum(detM, 0.0))
    rel_sqrt = np.abs(sqrt_det - delta) / np.maximum(np.abs(delta), 1e-300)
    report = SqrtDetReport(q=q, det_dense=det_dense,
                           det_factored=det_factored, rel_err_det=rel_det,
                           sqrt_det=sqrt_det, delta=delta,
                           rel_err_sqrt=rel_sqrt,
                           ok=(rel_det <= SQRT_DET_TOL)
                           & (rel_sqrt <= SQRT_DET_TOL),
                           det_m=det_m, W=W)
    return report.member(0) if np.ndim(G) == 2 else report


def random_spd_skew(d: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Well-conditioned random pair: G = A^T A + 0.1 I, H = (B - B^T)/2."""
    A = rng.standard_normal((d, d))
    B = rng.standard_normal((d, d))
    return A.T @ A + 0.1 * np.eye(d), 0.5 * (B - B.T)
