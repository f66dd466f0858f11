"""The pure-Python Brent port against ``scipy.optimize.brentq``.

:func:`repro.circuits.roots.brentq` replaces scipy's root finder on every
1-D solve of the analytic layer, and the published numbers stay put only
if it returns scipy's root bit for bit.  scipy is the reference here and
nowhere else: the property below draws monotone and steep functions
(linear, exp, tanh, cubic), brackets in either order and the tolerances
the program uses, and demands the same ``float.hex`` root or the same
exception type.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from repro.circuits.roots import RTOL_MIN, brentq, clamped_root

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

# (xtol, rtol) as the program passes them; None means the default.
XTOLS = [1e-14, 1e-15, 1e-9, 1e-6, None]
RTOLS = [8.9e-16, None]


def _make(kind: str, root: float, k: float, scale: float):
    if kind == "linear":
        return lambda x: scale * (x - root)
    if kind == "exp":
        return lambda x: scale * math.expm1(k * (x - root))
    if kind == "tanh":
        return lambda x: scale * math.tanh(k * (x - root))
    return lambda x: scale * ((x - root) ** 3 + (x - root) / k)


@st.composite
def problems(draw):
    kind = draw(st.sampled_from(["linear", "exp", "tanh", "cubic"]))
    root = draw(st.floats(-2.0, 2.0))
    k = draw(st.floats(0.1, 60.0))
    # Currents of the DC solver sit near 1e-12 A; cover them and O(1).
    scale = draw(st.sampled_from([1e-15, 1e-9, 1.0, 1e3]))
    scale *= draw(st.sampled_from([1.0, -1.0]))
    lo = root - draw(st.floats(1e-6, 3.0))
    hi = root + draw(st.floats(1e-6, 3.0))
    a, b = (lo, hi) if draw(st.booleans()) else (hi, lo)
    kwargs = {}
    xtol = draw(st.sampled_from(XTOLS))
    rtol = draw(st.sampled_from(RTOLS))
    if xtol is not None:
        kwargs["xtol"] = xtol
    if rtol is not None:
        kwargs["rtol"] = rtol
    return _make(kind, root, k, scale), a, b, kwargs


def _outcome(call):
    try:
        return ("root", float.hex(call()))
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc))


@SETTINGS
@given(problems())
def test_root_matches_scipy_bit_for_bit(problem):
    f, a, b, kwargs = problem
    expected = float.hex(scipy_brentq(f, a, b, **kwargs))
    assert float.hex(brentq(f, a, b, **kwargs)) == expected
    # Known bracket values change the cost, never the root.
    assert float.hex(brentq(f, a, b, fa=f(a), fb=f(b), **kwargs)) == expected


@SETTINGS
@given(problems(), st.floats(1e-6, 2.0), st.floats(1e-6, 2.0))
def test_same_sign_bracket_raises_like_scipy(problem, d1, d2):
    f, a, b, kwargs = problem
    root = scipy_brentq(f, a, b, **kwargs)
    # Both ends on the same side of the (unique) root.
    a, b = root + d1, root + d1 + d2
    expected = _outcome(lambda: scipy_brentq(f, a, b, **kwargs))
    assert expected == ("raised", ValueError)
    assert _outcome(lambda: brentq(f, a, b, **kwargs)) == expected


@SETTINGS
@given(problems(), st.floats(0.0, 1.0))
def test_nan_evaluation_raises_like_scipy(problem, where):
    f, a, b, kwargs = problem
    cut = min(a, b) + where * abs(b - a)

    def g(x):
        return math.nan if x >= cut else f(x)

    expected = _outcome(lambda: scipy_brentq(g, a, b, **kwargs))
    assert _outcome(lambda: brentq(g, a, b, **kwargs)) == expected


@SETTINGS
@given(problems(), st.integers(0, 4))
def test_small_maxiter_behaves_like_scipy(problem, maxiter):
    f, a, b, kwargs = problem
    kwargs = {**kwargs, "xtol": 1e-15, "maxiter": maxiter}
    expected = _outcome(lambda: scipy_brentq(f, a, b, **kwargs))
    assert _outcome(lambda: brentq(f, a, b, **kwargs)) == expected


def test_non_convergence_is_a_runtime_error():
    with pytest.raises(RuntimeError, match="Failed to converge after 1 iterations"):
        brentq(lambda x: x - 0.3, 0.0, 1.0, xtol=1e-15, maxiter=1)


def test_nan_known_bracket_value_is_rejected():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: x - 0.3, 0.0, 1.0, fa=math.nan)


@pytest.mark.parametrize("kwargs", [{"xtol": 0.0}, {"rtol": RTOL_MIN / 2}])
def test_tolerance_floors_match_scipy(kwargs):
    with pytest.raises(ValueError):
        scipy_brentq(lambda x: x, -1.0, 1.0, **kwargs)
    with pytest.raises(ValueError):
        brentq(lambda x: x, -1.0, 1.0, **kwargs)


class TestClampedRoot:
    def test_clamps_at_the_low_end(self):
        assert clamped_root(lambda v: -1.0 - v, 0.0, 1.0, xtol=1e-14) == 0.0

    def test_clamps_at_the_high_end(self):
        assert clamped_root(lambda v: 2.0 - v, 0.0, 1.0, xtol=1e-14) == 1.0

    def test_interior_root_reuses_the_end_values(self):
        calls = []

        def f(v):
            calls.append(v)
            return 0.3 - v

        root = clamped_root(f, 0.0, 1.0, xtol=1e-14, rtol=8.9e-16)
        assert root == scipy_brentq(
            lambda v: 0.3 - v, 0.0, 1.0, xtol=1e-14, rtol=8.9e-16
        )
        assert calls[:2] == [0.0, 1.0]
        assert calls.count(0.0) == 1 and calls.count(1.0) == 1
