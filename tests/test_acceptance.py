"""Acceptance gate: every verification check must pass at its stated tolerance.

The checks share a Lab cache via a session fixture so the full gate runs in
well under a minute.  Each test asserts the verdict of one check and prints
the observed/predicted pair on failure.
"""

import dataclasses

import pytest

from szegolab import acceptance, asymptotics


@pytest.fixture(scope="session")
def lab():
    return acceptance.Lab()


def run(check, lab):
    verdict = check(lab)
    assert verdict["pass"], verdict
    return verdict


def test_circle_spectrum_oracle(lab):
    v = run(acceptance.check_circle_spectrum, lab)
    assert v["observed"] <= 1e-6


def test_trace_identity(lab):
    v = run(acceptance.check_trace_identity, lab)
    assert set(v["detail"]) == {"circle", "torus", "sphere3"}


def test_pair_trace(lab):
    v = run(acceptance.check_pair_trace, lab)
    assert v["detail"]["relative_gap"] <= 1e-6


def test_moment_asymptotics(lab):
    v = run(acceptance.check_moment_asymptotics, lab)
    for slope in v["detail"].values():
        assert abs(slope + 1.0) <= 0.25


class _SurfaceLab(acceptance.Lab):
    """A Lab whose circle quadratures classify as a Lagrangian surface,
    d = d' = 2, with the nodes and weights of the unit circle."""

    def circle_quad(self, k):
        quad = super().circle_quad(k)
        quad.__dict__["classification"] = dataclasses.replace(
            quad.classification, tag="lagrangian", dim=2)
        return quad


@pytest.mark.parametrize("swap", ["classification", "d_prime"])
def test_moment_asymptotics_reads_the_classification(monkeypatch, swap):
    # the Szego factors come from the circle quadratures' classification,
    # so d' = 2 there (with d = 2, or alone) moves the scaled moments off
    # their limit and the fitted rates off -1
    if swap == "classification":
        lab = _SurfaceLab()
    else:
        lab = acceptance.Lab()
        monkeypatch.setattr(asymptotics, "d_prime", lambda cls: 2)
    v = acceptance.check_moment_asymptotics(lab)
    assert v["pass"] is False
    assert all(abs(slope + 1.0) > 0.25 for slope in v["detail"].values())


def test_szego_entropy_function(lab):
    run(acceptance.check_szego_entropy_function, lab)


def test_weyl_counts(lab):
    run(acceptance.check_weyl_counts, lab)


def test_schatten_norms(lab):
    run(acceptance.check_schatten, lab)


def test_entropy_limit(lab):
    run(acceptance.check_entropy, lab)


def test_norm_scaling(lab):
    run(acceptance.check_norm_scaling, lab)


def test_hessian_oracle(lab):
    v = run(acceptance.check_hessian_oracle, lab)
    assert v["observed"] <= 1e-8


def test_mellin_identity(lab):
    v = run(acceptance.check_mellin_identity, lab)
    assert v["observed"] <= 1e-8


def test_bohr_sommerfeld_states(lab):
    run(acceptance.check_bohr_sommerfeld, lab)


def test_parabola_moments(lab):
    run(acceptance.check_parabola_moments, lab)


def test_run_all_shape(lab):
    verdicts = acceptance.run_all(lab)
    assert len(verdicts) == len(acceptance.CHECKS) == 13
    for v in verdicts:
        assert set(v) >= {"check_id", "observed", "predicted",
                          "tolerance", "pass"}
        assert v["pass"] is True


def test_szego_sweep_pass_rule():
    ks = (1.0, 2.0, 4.0, 8.0)
    down = {k: 1.0 + 0.4 / k for k in ks}  # errors 0.4, 0.2, 0.1, 0.05
    (run,) = acceptance.szego_sweep(ks, down.get, 1.0, 0.06)
    assert run["pass"] is True
    assert run["values"] == [down[k] for k in ks]
    assert run["errors"] == pytest.approx([0.4, 0.2, 0.1, 0.05])
    assert run["rate_slope"] == pytest.approx(-1.0)
    # a continuous phi also needs strictly decreasing errors; a jump not
    bump = {**down, 4.0: 0.99}  # errors 0.4, 0.2, 0.01, 0.05
    assert acceptance.szego_sweep(ks, bump.get, 1.0, 0.06)[0]["pass"] is False
    assert acceptance.szego_sweep(ks, bump.get, 1.0, 0.06,
                                  continuous=False)[0]["pass"] is True
    # the last error must be within the tolerance either way
    for continuous in (True, False):
        assert acceptance.szego_sweep(ks, down.get, 1.0, 0.04,
                                      continuous)[0]["pass"] is False
    # one value per prediction, each judged alone; no slope below 4 points
    runs = acceptance.szego_sweep(ks[:3], lambda k: [down[k], 2.0],
                                  [1.0, 2.5], [0.25, 0.6])
    assert [r["pass"] for r in runs] == [True, False]  # 0.5 thrice
    assert [r["rate_slope"] for r in runs] == [None, None]


def test_szego_sweep_maps_through_the_sweep_object():
    class Sweep:
        k_sweep = (1.0, 2.0)
        mapped = []

        def sweep(self, fn):
            self.mapped.append(fn)
            return [fn(k) for k in self.k_sweep]

    sweep = Sweep()
    (run,) = acceptance.szego_sweep(sweep, lambda k: 1.0 / k, 0.0, 1.0)
    assert len(sweep.mapped) == 1 and run["values"] == [1.0, 0.5]
