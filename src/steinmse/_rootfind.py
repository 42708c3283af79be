"""The package's one scalar root solver: the F quantile and every constant root."""

from __future__ import annotations

import sys

__all__ = ["bracketed_root"]


def bracketed_root(f, lo: float, hi: float) -> float | None:
    """A root of f on [lo, hi] to a few ulps, or None if f never changes sign.

    While f(hi) has the sign of f(lo), the bracket moves up to [hi, 2 hi],
    at most 60 times. An exact zero at an end is returned as it is. Then
    Chandrupatla's method (Chandrupatla 1997) takes inverse quadratic steps
    where f looks locally monotone and bisection steps elsewhere, each at
    least 2 eps |x| inside the bracket, and returns the end with the smaller
    |f| once f is 0 there or the bracket is narrower than 4 eps times it.
    """
    fa = f(lo)
    if fa == 0.0:
        return float(lo)
    fb = f(hi)
    for _ in range(60):
        if fb == 0.0 or (fb > 0.0) != (fa > 0.0):
            break
        lo, fa, hi = hi, fb, 2.0 * hi
        fb = f(hi)
    if fb == 0.0:
        return float(hi)
    if (fb > 0.0) == (fa > 0.0):
        return None
    a, fa, b, fb, t = hi, fb, lo, fa, 0.5  # a: the newest point; b: the end of the other sign
    while True:
        x = a + t * (b - a)
        fx = f(x)
        if (fx > 0.0) == (fa > 0.0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx
        xm, fm = (a, fa) if abs(fa) < abs(fb) else (b, fb)
        # 5e-324, the smallest subnormal, stands in for 2 eps |xm| at a root at 0.
        tlim = (2.0 * sys.float_info.epsilon * abs(xm) + 5e-324) / abs(b - a)
        if fm == 0.0 or tlim > 0.5:
            return float(xm)
        xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
        t = 0.5
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = (fa / (fb - fa) * fc / (fb - fc)
                 + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))
        t = min(1.0 - tlim, max(tlim, t))
