"""Per-obstacle scalar forms of the :class:`Obstacles` kernels.

The kernels measure every point against every obstacle in one array pass.
These measure one point against one :class:`Obstacle`, branch by branch,
and serve the tests as the oracle the kernels must equal with ``==``
(a zero direction component may differ in sign).
"""
import numpy as np

from litelfuzz.world import norm


def surface_distance(obs, point: np.ndarray) -> float:
    """Signed distance from ``point`` to the obstacle surface (< 0 inside)."""
    p = np.asarray(point, dtype=float)
    if obs.kind == "circle":
        return norm(p - obs.center) - obs.radius
    outward = np.maximum(np.maximum(obs.lo - p, p - obs.hi), 0.0)
    d = norm(outward)
    if d > 0.0:
        return d
    # inside: negative penetration depth to the nearest face
    return -float(np.min(np.minimum(p - obs.lo, obs.hi - p)))


def outward_direction(obs, point: np.ndarray) -> np.ndarray:
    """Unit vector pointing away from the obstacle at ``point``."""
    p = np.asarray(point, dtype=float)
    if obs.kind == "circle":
        v = p - obs.center
    else:
        closest = np.clip(p, obs.lo, obs.hi)
        v = p - closest
        if norm(v) == 0.0:
            # inside the box: push out through the nearest face
            gaps_lo = p - obs.lo
            gaps_hi = obs.hi - p
            v = np.zeros_like(p)
            axis = int(np.argmin(np.minimum(gaps_lo, gaps_hi)))
            v[axis] = -1.0 if gaps_lo[axis] < gaps_hi[axis] else 1.0
            return v
    n = norm(v)
    if n == 0.0:
        v = np.zeros_like(p)
        v[0] = 1.0
        return v
    return v / n
