"""End-to-end verification suite.

Each check assembles operators, computes the matching closed-form
prediction, and returns a verdict dict {check_id, observed, predicted,
tolerance, pass, detail}.  A Lab instance caches assembled operators and
spectra so overlapping checks share work; `cli` uses the same verdicts,
tolerances and memo.  The Szego-family checks (s log s, Weyl counts,
Schatten sums, entropy) and the matching `cli` commands run their sweep
through `szego_sweep`, one pass rule for both front ends, against a
Szego functional F(phi) as prediction.
"""

from __future__ import annotations

import math

import numpy as np

from . import asymptotics, hessian, spectral, states
from ._blas import single_threaded
from .assembly import (
    HermitianOperator,
    assemble_T,
    exact_trace,
    pair_trace_integral,
    trace_product,
)
from .asymptotics import s_factor, szego_scaling
from .fock import FockTruncation
from .manifold import (
    amplitude_from_dsl,
    circle,
    delta_n,
    frame_at,
    parabola_patch,
    quadrature,
    sphere3,
    torus_product,
)
from .spectral import eigensolve, entropy_function, schatten_sum, weyl_count

__all__ = ["Lab", "run_all", "CHECKS", "verdict", "szego_sweep"]

CIRCLE_SWEEP = (25.0, 50.0, 100.0, 200.0)
# eigenvalue counts are integers, so the count error carries quantization
# jitter of one scaled unit ~ sqrt(2 pi / k) on top of the O(1/k) law; this
# sweep is one where the decay is monotone through the jitter
WEYL_SWEEP = (60.0, 100.0, 160.0, 400.0)
SPHERE_SWEEP = (4.0, 6.0, 8.0, 10.0)

# tolerances of the checks both front ends run
SZEGO_TOL = 0.02  # relative to the Szego functional
WEYL_TOL = 0.05  # relative to the Weyl prediction
SCHATTEN_TOL = 0.02  # relative to the Schatten prediction
ENTROPY_TOL = 1e-2  # absolute gap of the shifted entropy
HESSIAN_TOL = 1e-8  # relative determinant errors


def verdict(check_id, observed, predicted, tolerance, passed=None,
            detail=None) -> dict:
    """Verdict dict; passed defaults to |observed - predicted| <= tolerance."""
    if passed is None:
        passed = abs(observed - predicted) <= tolerance
    out = {
        "check_id": check_id,
        "observed": float(observed),
        "predicted": float(predicted),
        "tolerance": float(tolerance),
        "pass": bool(passed),
    }
    if detail is not None:
        out["detail"] = detail
    return out


def szego_sweep(sweep, statistic, prediction, tolerance,
                continuous: bool = True) -> list[dict]:
    """Run a Szego-family statistic over a sweep and judge it by one rule.

    `sweep` is the k values, or an object with them as `k_sweep` that maps
    a function over them by `sweep(fn)`, as `cli.Experiment`.  statistic(k)
    is the scaled value, or one per entry of `prediction` and `tolerance`
    (an absolute bound).  An entry passes when its last error is within
    the tolerance and, for a continuous phi, its errors strictly decrease,
    where the O(1/k) rate of the Szego limit holds.  Returns one {values,
    errors, pass, rate_slope (None below 4 points)} per entry.
    """
    ks = getattr(sweep, "k_sweep", sweep)
    values = np.array(sweep.sweep(statistic) if ks is not sweep
                      else [statistic(k) for k in ks], float)
    values = values.reshape(len(ks), -1)
    errors = np.abs(values - prediction)
    passed = errors[-1] <= tolerance
    if continuous:
        passed &= np.all(errors[1:] < errors[:-1], axis=0)
    preds = np.broadcast_to(prediction, passed.shape)
    return [{"values": v.tolist(), "errors": e.tolist(), "pass": bool(ok),
             "rate_slope": spectral.rate_regression(ks, v, pred).slope
             if len(ks) >= 4 else None}
            for v, e, pred, ok in zip(values.T, errors.T, preds, passed)]


def _poisson_lambdas(trunc: FockTruncation) -> np.ndarray:
    """Circle spectrum 2k k^n e^{-k} / n! for n = 0..M (radius 1), on the
    log-factorials the basis is normalized with."""
    k = trunc.k
    n = np.arange(trunc.max_degree + 1)
    return 2.0 * k * np.exp(n * math.log(k) - k - trunc.log_factorials)


class Lab:
    """Memo shared by the checks: operators, spectra and quadratures."""

    def __init__(self):
        self._cache = {}
        self.circle = circle(1.0)
        self.sphere = sphere3(1.0)

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def circle_quad(self, k: float):
        M = int(round(4 * k))
        return self._get(("cq", k), lambda: quadrature(self.circle, 2 * M + 9))

    def circle_trunc(self, k: float) -> FockTruncation:
        return FockTruncation(ambient_dim=1, k=k, max_degree=int(round(4 * k)))

    def circle_op(self, k: float, amp_key: str = "one") -> HermitianOperator:
        def build():
            amp = None if amp_key == "one" else _CIRCLE_AMPS[amp_key]
            return assemble_T(self.circle_trunc(k), self.circle, amp,
                              self.circle_quad(k))
        return self._get(("cop", k, amp_key), build)

    def circle_eigs(self, k: float) -> np.ndarray:
        return self._get(("ceig", k),
                         lambda: eigensolve(self.circle_op(k)).eigenvalues)

    def sphere_op(self, k: float) -> HermitianOperator:
        def build():
            # 4k covers the Poisson tail to ~1e-8; the +4 pads the level
            # degeneracy of the sphere so the boundary trace share stays
            # below the truncation-warning threshold
            M = int(round(4 * k)) + 4
            quad = quadrature(self.sphere, [M // 2 + 1, M + 1, M + 1])
            trunc = FockTruncation(ambient_dim=2, k=k, max_degree=M)
            return assemble_T(trunc, self.sphere, None, quad)
        return self._get(("sop", k), build)


def _amp_cos(t):
    return 1.0 + np.cos(t[:, 0])


def _amp_complex(t):
    return np.exp(1j * t[:, 0]) * 0.5 * (1.0 + np.cos(t[:, 0]))


_CIRCLE_AMPS = {"one_plus_cos": _amp_cos, "complex": _amp_complex}


def check_circle_spectrum(lab: Lab):
    """1: assembled circle eigenvalues match the closed-form spectrum."""
    worst = 0.0
    for k in (10.0, 20.0, 40.0):
        observed = lab.circle_eigs(k)
        predicted = np.sort(_poisson_lambdas(lab.circle_trunc(k)))[::-1]
        mask = predicted >= 1e-10 * predicted[0]
        rel = np.abs(observed[mask] - predicted[mask]) / predicted[mask]
        worst = max(worst, float(rel.max()))
    return verdict("circle_spectrum_oracle", worst, 0.0, 1e-6)


def check_trace_identity(lab: Lab):
    """2: Tr T = (k/pi)^N integral a dsigma on circle, torus, sphere."""
    gaps = {}
    _, _, gaps["circle"] = exact_trace(lab.circle_op(20.0))
    torus = torus_product([1.0, 0.7])
    k = 8.0
    M = math.ceil(4 * k * (1.0 ** 2 + 0.7 ** 2))
    tq = quadrature(torus, 24)
    top = assemble_T(FockTruncation(2, k, M), torus, None, tq)
    _, _, gaps["torus"] = exact_trace(top)
    _, _, gaps["sphere3"] = exact_trace(lab.sphere_op(6.0))
    ok = gaps["circle"] <= 1e-8 and gaps["torus"] <= 1e-6 and gaps["sphere3"] <= 1e-6
    worst = max(gaps.values())
    return verdict("trace_identity", worst, 0.0, 1e-6, ok, detail=gaps)


def check_pair_trace(lab: Lab):
    """3: trace(T_a T_b) from matrices vs the Gaussian double integral."""
    k = 20.0
    op_a = lab.circle_op(k)
    op_b = lab.circle_op(k, "one_plus_cos")
    observed = float(trace_product(op_a, op_b).real)
    predicted = pair_trace_integral(lab.circle, None, _amp_cos,
                                    lab.circle_quad(k), k)
    rel = abs(observed - predicted) / abs(predicted)
    return verdict("pair_trace", observed, predicted, 1e-6, rel <= 1e-6,
                   detail={"relative_gap": rel})


def check_moment_asymptotics(lab: Lab):
    """4: scaled Tr(S^n) -> 2 pi / sqrt(n) with O(1/k) rate."""
    slopes = {}
    ok = True
    for n in (2, 3, 4):
        vals = []
        for k in CIRCLE_SWEEP:
            mu = s_factor(k, 1, 1, 1) * lab.circle_eigs(k)
            vals.append(szego_scaling(k, 1, 1) * float(np.sum(mu ** n)))
        target = 2.0 * math.pi / math.sqrt(n)
        fit = spectral.rate_regression(CIRCLE_SWEEP, vals, target)
        slopes[f"n={n}"] = fit.slope
        ok = ok and abs(fit.slope - (-1.0)) <= 0.25
    return verdict("moment_asymptotics", min(slopes.values()), -1.0, 0.25,
                   ok, detail=slopes)


def _circle_S(lab: Lab, k: float) -> spectral.SpectralSummary:
    """Spectrum of S = s T on the unit circle with amplitude 1."""
    return spectral.SpectralSummary(s_factor(k, 1, 1, 1) * lab.circle_eigs(k))


def check_szego_entropy_function(lab: Lab):
    """5: scaled Tr(phi(S)) for phi = s log s converges to F(phi)."""
    phi = entropy_function()
    pred = asymptotics.szego_functional(None, phi, lab.circle_quad(25.0))
    (run,) = szego_sweep(CIRCLE_SWEEP, lambda k: szego_scaling(k, 1, 1)
                         * spectral.trace_phi(_circle_S(lab, k), phi),
                         pred, SZEGO_TOL * abs(pred))
    return verdict("szego_slogs", run["errors"][-1] / abs(pred), 0.0,
                   SZEGO_TOL, run["pass"],
                   detail={"errors": run["errors"], "functional": pred})


def check_weyl_counts(lab: Lab):
    """6: scaled eigenvalue count in [0.2, 0.9] matches the Weyl law."""
    interval = (0.2, 0.9)
    pred = asymptotics.weyl_prediction(2.0 * math.pi, 1, interval)
    (run,) = szego_sweep(WEYL_SWEEP, lambda k: szego_scaling(k, 1, 1)
                         * weyl_count(_circle_S(lab, k), interval),
                         pred, WEYL_TOL * pred, continuous=False)
    errors = run["errors"]  # on this sweep they also never grow
    steady = all(b <= a for a, b in zip(errors, errors[1:]))
    return verdict("weyl_counts", errors[-1] / pred, 0.0, WEYL_TOL,
                   steady and run["pass"],
                   detail={"errors": errors, "prediction": pred})


def check_schatten(lab: Lab):
    """7: scaled Schatten sums for a complex amplitude."""
    ps = (1.0, 2.0)
    preds = [asymptotics.schatten_prediction(_amp_complex, p,
                                             lab.circle_quad(25.0))
             for p in ps]
    # one SVD of T per operator serves every p; S = s T scales each sum
    # by s^p
    runs = szego_sweep(
        CIRCLE_SWEEP,
        lambda k: [szego_scaling(k, 1, 1) * s_factor(k, 1, 1, 1) ** p * total
                   for p, total in zip(ps, schatten_sum(
                       lab.circle_op(k, "complex"), ps))],
        preds, [SCHATTEN_TOL * pred for pred in preds])
    detail = {f"p={p:g}": {"final_rel": run["errors"][-1] / pred,
                           "prediction": pred}
              for p, pred, run in zip(ps, preds, runs)}
    worst = max(v["final_rel"] for v in detail.values())
    return verdict("schatten", worst, 0.0, SCHATTEN_TOL,
                   all(run["pass"] for run in runs), detail=detail)


def check_entropy(lab: Lab):
    """8: density-matrix entropy limit with the Poisson cross-check."""
    pred = asymptotics.entropy_prediction(1.0 / (2.0 * math.pi),
                                          lab.circle_quad(25.0))
    cross = []

    def shifted_entropy(k):
        rho = lab.circle_eigs(k) / (2.0 * k)  # (pi/k) * (1/2pi) * T spectrum
        H = spectral.entropy(spectral.SpectralSummary(rho))
        poisson = _poisson_lambdas(lab.circle_trunc(k)) / (2.0 * k)
        cross.append(abs(H - spectral.entropy(
            spectral.SpectralSummary(poisson))) <= 1e-8)
        # shifted by the log of the Szego normalization 2^{d'/2} (pi/k)^{d/2}
        return H + math.log(szego_scaling(k, 1, 1))

    (run,) = szego_sweep(CIRCLE_SWEEP, shifted_entropy, pred,
                         ENTROPY_TOL)
    return verdict("entropy_limit", run["errors"][-1], 0.0, ENTROPY_TOL,
                   all(cross) and run["pass"],
                   detail={"gaps": run["errors"], "prediction": pred,
                           "poisson_cross_check": all(cross)})


def check_norm_scaling(lab: Lab):
    """9: log lambda_max vs log k has slope N - d/2 on circle and sphere."""
    detail = {}
    circ_max = [float(lab.circle_eigs(k)[0]) for k in CIRCLE_SWEEP]
    slope_c = float(np.polyfit(np.log(CIRCLE_SWEEP), np.log(circ_max), 1)[0])
    detail["circle"] = slope_c
    sph_max = [float(eigensolve(lab.sphere_op(k)).max) for k in SPHERE_SWEEP]
    slope_s = float(np.polyfit(np.log(SPHERE_SWEEP), np.log(sph_max), 1)[0])
    detail["sphere3"] = slope_s
    ok = abs(slope_c - 0.5) <= 0.05 and abs(slope_s - 0.5) <= 0.05
    worst = max(abs(slope_c - 0.5), abs(slope_s - 0.5))
    return verdict("norm_scaling", worst, 0.0, 0.05, ok, detail=detail)


def check_hessian_oracle(lab: Lab):
    """10: determinant algebra on 200 random (G, H) plus the parabola.

    The trials are drawn one by one and checked as one stack per (d, q).
    """
    rng = np.random.default_rng(20260823)
    groups: dict[tuple[int, int], list] = {}  # (d, q) -> [(G, H), ...]
    for trial in range(200):
        d = int(rng.integers(1, 5))
        q = int(rng.integers(1, 7))
        groups.setdefault((d, q), []).append(hessian.random_spd_skew(d, rng))
    worst = 0.0
    for (d, q), pairs in groups.items():
        G, H = (np.stack(m) for m in zip(*pairs))
        rep = hessian.verify_sqrt_det(G, H, q)
        rec = rep.det_m
        closed = hessian.det_closed_form(rep.W, q)
        scale = np.maximum(np.abs(rec).max(axis=(1, 2)), 1e-300)
        worst = max(worst, float(np.max(np.abs(rec - closed).max(axis=(1, 2))
                                        / scale)),
                    float(rep.rel_err_det.max()),
                    float(rep.rel_err_sqrt.max()))
    parabola_ok = True
    points = np.array([[0.0, 0.3], [1.0, 0.3]])
    frame = frame_at(parabola_patch(), points)
    lam2 = 1.0 / (1.0 + points[:, 0] ** 2)
    for n in range(2, 7):
        series = sum(math.comb(n, 2 * j + 1) * lam2 ** j
                     for j in range(n // 2 + 1))
        if np.any(np.abs(delta_n(frame, n) - series) > 1e-10 * series):
            parabola_ok = False
    return verdict("hessian_oracle", worst, 0.0, HESSIAN_TOL,
                   worst <= HESSIAN_TOL and parabola_ok,
                   detail={"parabola_delta_ok": parabola_ok})


def check_mellin_identity(lab: Lab):
    """11: O_{-alpha}(s^p)(t) = t^p / p^alpha across the test grid."""
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5, 2.0):
        for p in (0.5, 1.0, 2.0, 3.0):
            phi = spectral.power_function(p)
            for t in (0.5, 1.0, 2.0):
                value = asymptotics.mellin_log(phi, alpha, t)
                exact = phi.mellin(t, alpha)
                worst = max(worst, abs(value - exact) / exact)
    return verdict("mellin_identity", worst, 0.0, 1e-8)


def check_bohr_sommerfeld(lab: Lab):
    """12: Rayleigh quotients of Bohr-Sommerfeld states bound lambda_max."""
    bs = states.BohrSommerfeldData(theta=states.circle_theta(1.0),
                                   alpha=1.0 / math.sqrt(2.0 * math.pi))
    detail = {}
    ok = True
    for k in CIRCLE_SWEEP:
        psi = states.build_test_state(lab.circle_trunc(k), lab.circle, bs,
                                      lab.circle_quad(k))
        q = states.rayleigh_lower_bound(lab.circle_op(k), psi)
        lam_max = float(lab.circle_eigs(k)[0])
        ratio = q / math.sqrt(2.0 * k / math.pi)
        detail[f"k={k:g}"] = {"ratio": ratio, "rayleigh": q, "lambda_max": lam_max}
        ok = ok and (1.0 - 5.0 / k) <= ratio <= 1.0 + 1e-10
        ok = ok and q <= lam_max * (1.0 + 1e-10)
    final = detail[f"k={CIRCLE_SWEEP[-1]:g}"]["ratio"]
    return verdict("bohr_sommerfeld_bound", final, 1.0,
                   5.0 / CIRCLE_SWEEP[-1], ok, detail=detail)


_parabola_bump = amplitude_from_dsl("bump(t1, -1, 1) * bump(t2, -1, 1)", 2)


def check_parabola_moments(lab: Lab):
    """13: pair trace on the symplectic parabola vs the Delta_2 prediction."""
    sub = parabola_patch((-1.0, 1.0), (-1.0, 1.0))
    quad = quadrature(sub, 64)
    rels = []
    for k in (50.0, 100.0, 200.0):
        observed = pair_trace_integral(sub, _parabola_bump, _parabola_bump,
                                       quad, k)
        predicted = asymptotics.moment_prediction(
            sub, [_parabola_bump, _parabola_bump], 2, quad, k)
        rels.append(abs(observed - predicted) / abs(predicted))
    decreasing = all(b < a for a, b in zip(rels, rels[1:]))
    return verdict("parabola_moments", rels[-1], 0.0, 0.05,
                   decreasing and rels[-1] <= 0.05,
                   detail={"relative_errors": rels})


CHECKS = [
    check_circle_spectrum,
    check_trace_identity,
    check_pair_trace,
    check_moment_asymptotics,
    check_szego_entropy_function,
    check_weyl_counts,
    check_schatten,
    check_entropy,
    check_norm_scaling,
    check_hessian_oracle,
    check_mellin_identity,
    check_bohr_sommerfeld,
    check_parabola_moments,
]


@single_threaded()
def run_all(lab: Lab = None, checks=None) -> list[dict]:
    """Run the full verification suite; returns one verdict per check."""
    lab = lab or Lab()
    return [fn(lab) for fn in checks or CHECKS]
