"""Clearance-keeping polyline planning around circular/box obstacles.

Obstacles are reduced to inflated circles (boxes are tiled by a grid of
covering circles so elongated walls do not seal off passable gaps);
swarm agents are treated as point obstacles. Routing inserts lateral via
points around the first blocking circle until every segment is clear,
once preferring each side; the shorter feasible variant wins.
"""
from __future__ import annotations

import numpy as np

from .world import ROLE_ATTACKER, WorldState, norm

_VIA_SCALES = (1.05, 1.2, 1.5, 2.0, 3.0)
_MAX_VIAS = 200
_MAX_ESCALATIONS = 64
# the most tiles a box's cover may have, checked when a scenario loads: a
# cover's cost grows with its tiles, and with a box's aspect ratio
MAX_COVER_TILES = 10_000


class Infeasible(RuntimeError):
    """No clearance-keeping path exists for the requested endpoints."""


def cover_tiles(lo: np.ndarray, hi: np.ndarray,
                clearance: float) -> np.ndarray:
    """The tile count along each axis of the grid covering the box
    ``lo``..``hi`` for a path at ``clearance``, as floats: each tile spans
    about twice the clearance, or a quarter of the box's least extent."""
    extent = hi - lo
    cell_target = max(2.0 * clearance, float(np.min(extent)) / 4.0)
    return np.maximum(np.ceil(extent / cell_target), 1.0)


def _cover_box(lo: np.ndarray, hi: np.ndarray,
               clearance: float) -> list[tuple[np.ndarray, float]]:
    """Cover an axis-aligned box with a grid of circumscribed tile circles."""
    counts = cover_tiles(lo, hi, clearance)
    cell = (hi - lo) / counts
    radius = 0.5 * norm(cell)
    return [(lo + (np.asarray(idx, dtype=float) + 0.5) * cell, radius)
            for idx in np.ndindex(*counts.astype(int))]


def _inflated_circles(world: WorldState, clearance: float,
                      ignore_ids: tuple[int, ...]) -> list[tuple[np.ndarray, float]]:
    circles = []
    for obs in world.obstacles:
        if obs.kind == "box":
            for center, radius in _cover_box(obs.lo, obs.hi, clearance):
                circles.append((center, radius + clearance))
        else:
            circles.append((obs.center, obs.radius + clearance))
    for agent in world.agents:
        if agent.role == ROLE_ATTACKER or agent.id in ignore_ids:
            continue
        circles.append((agent.position.copy(), clearance))
    return circles


class _CircleField:
    """Vectorized point/segment queries against a set of circles."""

    def __init__(self, circles: list[tuple[np.ndarray, float]]):
        self.centers = np.array([c for c, _ in circles]) if circles else \
            np.zeros((0, 2))
        self.radii = np.array([r for _, r in circles])

    def covering(self, point: np.ndarray, slack: float = 1e-12) -> np.ndarray:
        if not len(self.radii):
            return np.zeros(0, dtype=bool)
        d = np.linalg.norm(self.centers - point, axis=1)
        return d < self.radii - slack

    def drop(self, mask: np.ndarray) -> "_CircleField":
        field = _CircleField([])
        field.centers = self.centers[~mask]
        field.radii = self.radii[~mask]
        return field

    def first_blocker(self, a: np.ndarray, b: np.ndarray):
        """Earliest circle the open segment a->b cuts into, or None."""
        if not len(self.radii):
            return None
        ab = b - a
        denom = max(float(np.dot(ab, ab)), 1e-18)
        t = np.clip((self.centers - a) @ ab / denom, 0.0, 1.0)
        feet = a + t[:, None] * ab
        dist = np.linalg.norm(feet - self.centers, axis=1)
        hit = dist < self.radii - 1e-12
        if not np.any(hit):
            return None
        k = int(np.flatnonzero(hit)[np.argmin(t[hit])])
        return self.centers[k], float(self.radii[k])


def _lateral_units(direction: np.ndarray) -> list[np.ndarray]:
    d = direction / max(norm(direction), 1e-12)
    if len(d) == 2:
        side = np.array([-d[1], d[0]])
        return [side, -side]
    # 3D: two orthogonal lateral axes, four candidate sides
    ref = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    u = np.cross(d, ref)
    u = u / max(norm(u), 1e-12)
    v = np.cross(d, u)
    return [u, -u, v, -v]


def _via_point(a: np.ndarray, b: np.ndarray, blocker, field: _CircleField,
               prefer: int) -> np.ndarray | None:
    """Uncovered lateral detour point around ``blocker``, or None.

    When every candidate around the blocker is covered (e.g. the blocker
    is one tile of a long wall), the search escalates to the covering
    circle that reaches farthest to the chosen side and continues from
    there, walking along the overlapping cluster until it finds open
    space.
    """
    center, radius = blocker
    ab = b - a
    denom = max(float(np.dot(ab, ab)), 1e-18)
    sides = _lateral_units(ab)
    sides = sides[prefer:] + sides[:prefer]
    for side in sides:
        cur_center, cur_radius = center, radius
        first = True
        for _ in range(_MAX_ESCALATIONS):
            t = float(np.clip(np.dot(cur_center - a, ab) / denom, 0.0, 1.0))
            foot = a + t * ab
            escalate = None
            for scale in _VIA_SCALES:
                if first:
                    # anchor near the segment so simple detours stay short
                    via_dir = foot + side * cur_radius * scale - cur_center
                    n = norm(via_dir)
                    if n < 1e-12:
                        via_dir, n = side, 1.0
                    via = cur_center + via_dir * (cur_radius * scale / n)
                else:
                    via = cur_center + side * (cur_radius * scale)
                cover = field.covering(via)
                if not np.any(cover):
                    return via
                escalate = cover
            first = False
            # move to the covering circle reaching farthest to this side
            idx = np.flatnonzero(escalate)
            reach = field.centers[idx] @ side + field.radii[idx]
            k = int(idx[np.argmax(reach)])
            nxt = (field.centers[k], float(field.radii[k]))
            if (np.allclose(nxt[0], cur_center)
                    and abs(nxt[1] - cur_radius) < 1e-12):
                break
            cur_center, cur_radius = nxt
    return None


def _route_greedy(a: np.ndarray, b: np.ndarray, field: _CircleField,
                  prefer: int) -> list[np.ndarray]:
    path = [a, b]
    k = 0
    vias = 0
    while k < len(path) - 1:
        blocker = field.first_blocker(path[k], path[k + 1])
        if blocker is None:
            k += 1
            continue
        vias += 1
        if vias > _MAX_VIAS:
            raise Infeasible("detour search exceeded via budget")
        via = _via_point(path[k], path[k + 1], blocker, field, prefer)
        if via is None:
            raise Infeasible("no clearance-keeping detour found")
        path.insert(k + 1, via)
    return path


def _path_length(path: list[np.ndarray]) -> float:
    return sum(norm(path[k + 1] - path[k])
               for k in range(len(path) - 1))


def plan_path(start: np.ndarray, goal: np.ndarray, world: WorldState,
              clearance: float,
              ignore_ids: tuple[int, ...] = ()) -> list[np.ndarray]:
    """Polyline from ``start`` to ``goal`` keeping at least ``clearance``.

    ``ignore_ids`` excludes agents from the obstacle set (e.g. the agent
    being approached). Raises :class:`Infeasible` when the goal sits inside
    an inflated region or no detour exists.
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    field = _CircleField(_inflated_circles(world, clearance, ignore_ids))
    if np.any(field.covering(goal, slack=1e-9)):
        raise Infeasible("goal lies inside an inflated obstacle region")
    # a start inside an inflated region is tolerated: drop regions that
    # cover it so the path can escape outward
    field = field.drop(field.covering(start, slack=1e-9))
    best = None
    best_len = np.inf
    for prefer in range(2 if len(start) == 2 else 4):
        try:
            path = _route_greedy(start, goal, field, prefer)
        except Infeasible:
            continue
        length = _path_length(path)
        if length < best_len:
            best, best_len = path, length
    if best is None:
        raise Infeasible("no clearance-keeping path found")
    return best
