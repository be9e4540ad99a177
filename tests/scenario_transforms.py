"""Transforms of scenario dicts (``ScenarioConfig.to_dict`` form) under
which a run should change by a known map: metamorphic relations.

``mirror`` reflects a scenario's geometry across the plane ``x[axis] = 0``,
and ``swap`` exchanges two of its coordinate axes.
"""
import copy


def _negated(vector: list[float], axis: int) -> list[float]:
    return [-x if k == axis else x for k, x in enumerate(vector)]


def mirror(data: dict, axis: int) -> dict:
    """``data`` reflected across ``x[axis] = 0``: the goal, every start,
    formation offset, leader waypoint and circle centre has ``axis``
    negated, and a box's ``lo_m`` and ``hi_m`` swap and negate on it.
    The obstacle list keeps its order. Nothing else moves, so a scenario
    with other geometry (the search area and targets of a
    ``dispersal_search`` scenario) is not mirrored by this alone."""
    data = copy.deepcopy(data)
    data["goal_m"] = _negated(data["goal_m"], axis)
    for agent in data["agents"]:
        agent["start_m"] = _negated(agent["start_m"], axis)
        if agent.get("formation_offset_m") is not None:
            agent["formation_offset_m"] = _negated(
                agent["formation_offset_m"], axis)
    data["leader_waypoints_m"] = [_negated(w, axis)
                                  for w in data.get("leader_waypoints_m", [])]
    for obstacle in data["obstacles"]:
        if obstacle["kind"] == "circle":
            obstacle["center_m"] = _negated(obstacle["center_m"], axis)
        else:
            lo, hi = obstacle["lo_m"], obstacle["hi_m"]
            obstacle["lo_m"] = [-hi[k] if k == axis else x
                                for k, x in enumerate(lo)]
            obstacle["hi_m"] = [-lo[k] if k == axis else x
                                for k, x in enumerate(hi)]
    return data


def swap(data: dict, i: int, j: int) -> dict:
    """``data`` with coordinates ``i`` and ``j`` exchanged in every vector:
    the goal, every start, formation offset, leader waypoint, circle
    centre and box corner, and the search area's bounds and targets. A box
    keeps its ``lo_m`` and ``hi_m``; the obstacle list keeps its order."""
    data = copy.deepcopy(data)

    def swapped(vector: list[float]) -> list[float]:
        out = list(vector)
        out[i], out[j] = vector[j], vector[i]
        return out

    search = data.get("search", {})
    vectors = [(data, "goal_m"), (search, "bounds_lo_m"),
               (search, "bounds_hi_m")]
    vectors += [(agent, key) for agent in data["agents"]
                for key in ("start_m", "formation_offset_m")]
    vectors += [(obstacle, key) for obstacle in data["obstacles"]
                for key in ("center_m", "lo_m", "hi_m")]
    for owner, key in vectors:
        if owner.get(key) is not None:
            owner[key] = swapped(owner[key])
    for owner, key in ((data, "leader_waypoints_m"), (search, "targets_m")):
        if key in owner:
            owner[key] = [swapped(v) for v in owner[key]]
    return data
