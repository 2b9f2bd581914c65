import math

import numpy as np
import pytest

from szegolab import dsl


def ev(text, t=(), dim=None):
    if dim is None:
        dim = len(t)
    return dsl.evaluate(dsl.parse(text, max(dim, 1)), t)


def test_arithmetic_and_precedence():
    assert ev("2+3*4") == 14
    assert ev("2*3+4") == 10
    assert ev("2^3^2") == 512  # right-associative
    assert ev("-2^2") == -4    # ^ binds tighter than unary minus
    assert ev("(2+3)*4") == 20
    assert ev("7-4-2") == 1    # left-associative
    assert ev("8/4/2") == 1


def test_constants_and_functions():
    assert ev("sin(pi)") == pytest.approx(0.0, abs=1e-15)
    assert ev("log(e)") == pytest.approx(1.0)
    assert ev("sqrt(4)") == 2
    assert ev("exp(0)") == 1
    assert ev("cos(0)") == 1


def test_variables():
    assert ev("t1^2 + t2", (3.0, 1.0)) == 10
    with pytest.raises(dsl.UnknownVariableError):
        dsl.parse("t3", 2)
    with pytest.raises(dsl.UnknownVariableError):
        dsl.parse("frobnicate", 2)


def test_syntax_error_reports_offset():
    with pytest.raises(dsl.DslSyntaxError) as err:
        dsl.parse("1 + * 2", 1)
    assert err.value.offset == 4
    with pytest.raises(dsl.DslSyntaxError):
        dsl.parse("sin(1", 1)
    with pytest.raises(dsl.DslSyntaxError):
        dsl.parse("1 2", 1)


def test_domain_errors():
    with pytest.raises(dsl.DomainError):
        ev("log(0)")
    with pytest.raises(dsl.DomainError):
        ev("sqrt(0-1)")
    with pytest.raises(dsl.DomainError):
        ev("1/(t1-t1)", (2.0,))


def test_derive_simple_cases():
    e = dsl.parse("t1^2", 1)
    d = dsl.derive(e, 0)
    assert dsl.evaluate(d, (3.0,)) == pytest.approx(6.0)
    e = dsl.parse("exp(-t1^2)", 1)
    d = dsl.derive(e, 0)
    assert dsl.evaluate(d, (1.0,)) == pytest.approx(-2 * math.exp(-1))
    e = dsl.parse("t1", 2)
    assert dsl.evaluate(dsl.derive(e, 1), (1.0, 2.0)) == 0


SMOOTH_EXPRS = [
    "exp(-t1^2)*cos(t2)",
    "sin(t1*t2) + t2^3",
    "sqrt(t1^2 + 1)/(2 + cos(t2))",
    "log(2 + sin(t1)) * exp(t2/4)",
    "t1^t2",
    "bump(t1, -2, 2)",
]


@pytest.mark.parametrize("text", SMOOTH_EXPRS)
def test_derive_matches_finite_differences(text):
    e = dsl.parse(text, 2)
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(5):
        t = rng.uniform(0.3, 1.2, size=2)
        for j in range(2):
            tp, tm = t.copy(), t.copy()
            tp[j] += h
            tm[j] -= h
            fd = (dsl.evaluate(e, tp) - dsl.evaluate(e, tm)) / (2 * h)
            sym = dsl.evaluate(dsl.derive(e, j), t)
            assert sym == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_derive_linearity_and_product_rule():
    rng = np.random.default_rng(5)
    f = dsl.parse("sin(t1)*t1^2", 1)
    g = dsl.parse("exp(t1/3)", 1)
    fg = dsl.parse("(sin(t1)*t1^2) * (exp(t1/3))", 1)
    fplusg = dsl.parse("(sin(t1)*t1^2) + (exp(t1/3))", 1)
    for _ in range(5):
        t = (float(rng.uniform(0.1, 2.0)),)
        df = dsl.evaluate(dsl.derive(f, 0), t)
        dg = dsl.evaluate(dsl.derive(g, 0), t)
        assert dsl.evaluate(dsl.derive(fplusg, 0), t) == pytest.approx(df + dg,
                                                                       rel=1e-9)
        prod = df * dsl.evaluate(g, t) + dsl.evaluate(f, t) * dg
        assert dsl.evaluate(dsl.derive(fg, 0), t) == pytest.approx(prod, rel=1e-9)


def test_bump_properties():
    e = dsl.parse("bump(t1, -1, 1)", 1)
    assert dsl.evaluate(e, (0.0,)) == 1.0
    assert dsl.evaluate(e, (-0.4,)) == 1.0  # inner half
    assert dsl.evaluate(e, (1.0,)) == 0.0
    assert dsl.evaluate(e, (2.0,)) == 0.0
    mid = dsl.evaluate(e, (0.75,))
    assert 0.0 < mid < 1.0


# numpy closed forms of SMOOTH_EXPRS, applied to columns t1, t2
def _step(u):
    inside = (u > 0) & (u < 1)
    v = np.where(inside, u, 0.5)
    fu, fc = np.exp(-1 / v), np.exp(-1 / (1 - v))
    return np.where(inside, fu / (fu + fc), np.where(u >= 1, 1.0, 0.0))


SMOOTH_CLOSED_FORMS = [
    lambda t1, t2: np.exp(-t1 ** 2) * np.cos(t2),
    lambda t1, t2: np.sin(t1 * t2) + t2 ** 3,
    lambda t1, t2: np.sqrt(t1 ** 2 + 1) / (2 + np.cos(t2)),
    lambda t1, t2: np.log(2 + np.sin(t1)) * np.exp(t2 / 4),
    lambda t1, t2: t1 ** t2,
    lambda t1, t2: _step(2 - np.abs(t1)),
]


@pytest.mark.parametrize("text, closed_form",
                         zip(SMOOTH_EXPRS, SMOOTH_CLOSED_FORMS))
def test_array_values_match_closed_forms(text, closed_form):
    axis = np.linspace(0.3, 1.9, 33)
    t = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    got = dsl.evaluate(dsl.parse(text, 2), t)
    assert got.shape == (t.shape[0],)
    np.testing.assert_array_max_ulp(got, closed_form(t[:, 0], t[:, 1]),
                                    maxulp=4)
    # a single point takes the same walk and returns a float
    one = dsl.evaluate(dsl.parse(text, 2), t[7])
    assert type(one) is float and one == got[7]


def test_bump_and_derivative_at_the_breakpoints():
    bump = dsl.parse("bump(t1, -1, 3)", 1)  # midpoint 1, middle half [0, 2]
    d1 = dsl.derive(bump, 0)
    # a, b, the midpoint and the edges of the middle half
    x = np.array([[-1.0], [3.0], [1.0], [0.0], [2.0]])
    assert dsl.evaluate(bump, x).tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
    assert dsl.evaluate(d1, x).tolist() == [0.0, 0.0, 0.0, 0.0, 0.0]
    # inside the ramps: rising on the left, falling on the right
    ramps = np.array([[-0.5], [2.5]])
    assert np.all((dsl.evaluate(bump, ramps) > 0)
                  & (dsl.evaluate(bump, ramps) < 1))
    slopes = dsl.evaluate(d1, ramps)
    assert slopes[0] > 0 > slopes[1]
    with pytest.raises(dsl.DomainError):
        dsl.evaluate(dsl.parse("bump(t1, 1, 1)", 1), x)


def test_one_violating_row_raises_with_subexpr():
    t = np.linspace(0.1, 2.0, 1000).reshape(-1, 1)
    t[613, 0] = 1.0
    e = dsl.parse("2 + log(3 * (t1 - 1))", 1)
    with pytest.raises(dsl.DomainError) as err:
        dsl.evaluate(e, t)
    assert err.value.subexpr == e.right
    assert "log(3 * (t1 - 1))" in str(err.value)
    t[613, 0] = 1.5
    assert np.all(np.isfinite(dsl.evaluate(e, t[t[:, 0] > 1])))


@pytest.mark.parametrize("text", ["exp(1000)", "exp(t1)", "10^t1",
                                  "t1 * 1e300 * 1e300"])
def test_overflow_raises(text):
    with pytest.raises(dsl.DomainError):
        dsl.evaluate(dsl.parse(text, 1), np.array([[1.0], [1000.0]]))


def test_constant_expressions_fill_every_row():
    t = np.zeros((5, 2))
    for text in ("2", "pi", "-e", "sqrt(2) * exp(1)"):
        out = dsl.evaluate(dsl.parse(text, 2), t)
        assert out.shape == (5,) and np.all(out == out[0])
    assert dsl.evaluate(dsl.parse("t1", 2), np.zeros((0, 2))).shape == (0,)


def test_roundtrip_fixed_cases():
    for text in SMOOTH_EXPRS + ["-t1 - -t2", "2^(t1+1)", "1/(2*t2)",
                                "t1 - (t2 - 1)", "-(t1+t2)^2"]:
        e = dsl.parse(text, 2)
        assert dsl.parse(dsl.to_string(e), 2) == e


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.integers(0, 3)
        if choice == 0:
            return dsl.Num(float(np.round(rng.uniform(0, 5), 3)))
        if choice == 1:
            return dsl.Var(int(rng.integers(0, 2)))
        return dsl.Const("pi" if rng.random() < 0.5 else "e")
    kind = rng.integers(0, 3)
    if kind == 0:
        return dsl.Neg(_random_expr(rng, depth - 1))
    if kind == 1:
        op = "+-*/^"[rng.integers(0, 5)]
        return dsl.BinOp(op, _random_expr(rng, depth - 1),
                         _random_expr(rng, depth - 1))
    fn = ["exp", "log", "sin", "cos", "sqrt"][rng.integers(0, 5)]
    return dsl.Call(fn, (_random_expr(rng, depth - 1),))


def test_roundtrip_random_trees():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        e = _random_expr(rng, 4)
        assert dsl.parse(dsl.to_string(e), 2) == e


COLUMN_CASES = ["1 + t1*t2 - t3/2", "2.5", "exp(-t1) * sin(3*t2) + cos(t3)",
                "sqrt(t1 + 1) ^ 3 - log(t2 + 2)", "t2 ^ 2 / (1 + t1 ^ 2)",
                "bump(t1, -0.5, 1.5) * t3", "bump_d1(t2, 0, 2) + pi * e",
                "-t1 ^ 0.5", "t3"]


@pytest.mark.parametrize("text", COLUMN_CASES)
def test_axis_columns_match_stacked_rows(text):
    axes = [np.linspace(0.1, 1.9, 5), np.linspace(0.0, 2.0, 4),
            np.linspace(-1.0, 1.0, 3)]
    expr = dsl.parse(text, 3)
    cols = [x.reshape((1,) * j + (-1,) + (1,) * (2 - j))
            for j, x in enumerate(axes)]
    grid = dsl.evaluate_columns(expr, cols)
    shape = (5, 4, 3)
    assert grid.ndim in (0, 3)
    rows = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    stacked = dsl.evaluate(expr, rows)
    assert np.broadcast_to(grid, shape).reshape(-1).tobytes() == \
        stacked.tobytes()
    # a value reads only its own variables
    read = {j for j in range(3) if f"t{j + 1}" in text}
    assert all(n == (shape[j] if j in read else 1)
               for j, n in enumerate(np.shape(grid) or (1, 1, 1)))


def test_axis_columns_raise_the_stacked_domain_errors():
    expr = dsl.parse("log(t1 - 1) + t2", 2)
    axes = [np.linspace(0.0, 2.0, 5), np.linspace(0.0, 1.0, 3)]
    cols = [axes[0][:, None], axes[1][None, :]]
    rows = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    for values in (lambda: dsl.evaluate_columns(expr, cols),
                   lambda: dsl.evaluate(expr, rows)):
        with pytest.raises(dsl.DomainError, match="log"):
            values()
    # the upper half of the t1 axis is inside the domain in both forms
    cols[0], rows = cols[0][3:], rows[rows[:, 0] > 1.0]
    assert np.broadcast_to(dsl.evaluate_columns(expr, cols), (2, 3)).reshape(
        -1).tobytes() == dsl.evaluate(expr, rows).tobytes()
