"""Bracketed bisection shared by the constant solvers."""

from __future__ import annotations

__all__ = ["bracketed_bisect"]


def bracketed_bisect(f, lo: float, hi: float, allow_no_root: bool = False):
    """Root of f on [lo, hi], expanding hi geometrically until f changes sign.

    Bisects to an absolute width of 1e-10. If no sign change appears after
    60 doublings, raises, or returns None when
    ``allow_no_root`` is set (callers use None as an "equation never
    crosses" marker).
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    for _ in range(60):
        if flo * fhi <= 0:
            break
        hi *= 2.0
        fhi = f(hi)
    if flo * fhi > 0:
        if allow_no_root:
            return None
        raise RuntimeError(f"no sign change on [{lo:g}, {hi:g}]; cannot bracket a root")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
