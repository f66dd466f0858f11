"""Brent's method for the one-dimensional roots of the analytic layer.

A line-for-line port of the C iteration behind ``scipy.optimize.brentq``
(Brent 1973, ch. 4): the same float operations in the same order, so it
returns the same root bit for bit, with the same checks (no NaN value,
opposite-sign bracket, ``maxiter``) and the same exception types.  It
differs from scipy in two ways that change only the cost:

* no per-evaluation ``np.isnan`` wrapper (``fx != fx`` does the check);
* a caller that already evaluated the bracket ends passes them in
  (``fa``/``fb``) instead of paying for them again.

Keeping the port here keeps scipy out of ``import repro``; the DC solver
(:mod:`repro.circuits.solver`), the residual fractions
(:mod:`repro.circuits.library`) and the thermal fixed point
(:mod:`repro.thermal.rc`) all find their roots through it.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Callable

RTOL_MIN = 4 * sys.float_info.epsilon
"""The smallest ``rtol`` accepted (scipy's floor, 8.88e-16)."""


def _checked(fx: float, x: float) -> float:
    if fx != fx:
        raise ValueError(
            f"The function value at x={x} is NaN; solver cannot continue."
        )
    return fx


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    xtol: float = 2e-12,
    rtol: float = RTOL_MIN,
    maxiter: int = 100,
    fa: float | None = None,
    fb: float | None = None,
) -> float:
    """A root of ``f`` in ``[a, b]`` to within ``xtol + rtol * |root|``.

    Args:
        f: A continuous function with ``f(a)`` and ``f(b)`` of opposite sign.
        a, b: The bracket, in either order.
        xtol, rtol: Absolute and relative tolerance, as in scipy.
        maxiter: Iteration cap.
        fa, fb: ``f(a)`` and ``f(b)`` if the caller already has them.

    Raises:
        ValueError: A tolerance is out of range, ``f`` returned NaN, or
            ``f(a)`` and ``f(b)`` have the same sign.
        RuntimeError: No convergence within ``maxiter`` iterations.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")
    xpre = float(a)
    xcur = float(b)
    fpre = _checked(f(xpre) if fa is None else fa, xpre)
    fcur = _checked(f(xcur) if fb is None else fb, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (
                        -fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre))
                    )
            except ZeroDivisionError:
                stry = math.inf  # C divides to inf or NaN: both bisect
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _checked(f(xcur), xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def clamped_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float,
    rtol: float = RTOL_MIN,
) -> float:
    """The root of a decreasing ``f`` on ``[lo, hi]``, clamped to the ends.

    Returns ``lo`` when ``f(lo) <= 0`` and ``hi`` when ``f(hi) >= 0``
    (the balance point lies at or beyond that end), else the
    :func:`brentq` root, reusing both end values.
    """
    f_lo = f(lo)
    if f_lo <= 0.0:
        return lo
    f_hi = f(hi)
    if f_hi >= 0.0:
        return hi
    return brentq(f, lo, hi, xtol=xtol, rtol=rtol, fa=f_lo, fb=f_hi)
