"""Scenario configuration: JSON schema, validation and built-in presets.

Scenario files are strict JSON with units suffixed on key names
(``_m``, ``_mps``, ``_s``). Unknown keys are rejected at load so typos fail
loudly, in the ``apf``, ``search``, ``spawn`` and ``fuzz`` sections too.
Each section key maps to one field of the dataclass it configures; a key
left out takes that field's default, so the defaults live only in
:class:`ApfNavigationController`, :class:`DispersalSearchController`,
:class:`SpawnGeometry` and :class:`FuzzParams`.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .controllers import ApfNavigationController, DispersalSearchController
from .fuzzing import FuzzParams, SpawnGeometry
from .mission import Simulation
from .robustness import ConstraintParams
from .world import (ROLE_FOLLOWER, ROLE_LEADER, ROLE_SEARCHER, AgentState,
                    MissionSpec, Obstacle, WorldState)

CONTROLLER_KINDS = ("apf_navigate", "dispersal_search")


class ScenarioError(ValueError):
    """Configuration is missing a key or breaks an invariant."""


class _Fields:
    """Dict wrapper that tracks consumption and names missing keys."""

    def __init__(self, data: dict, context: str):
        if not isinstance(data, dict):
            raise ScenarioError(f"{context}: expected an object")
        self.data = dict(data)
        self.context = context

    def take(self, key, default=...):
        if key in self.data:
            return self.data.pop(key)
        if default is ...:
            raise ScenarioError(f"{self.context}: missing required key '{key}'")
        return default

    def finish(self):
        if self.data:
            unknown = ", ".join(sorted(self.data))
            raise ScenarioError(f"{self.context}: unknown key(s): {unknown}")

    def _name(self, key: str) -> str:
        return key if self.context == "scenario" else f"{self.context}: {key}"

    def number(self, key, default=..., *, above=None, least=None) -> float:
        """A finite JSON number, > ``above`` or else >= ``least``."""
        value = self.take(key, default)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ScenarioError(f"{self._name(key)} must be a number, "
                                f"got {value!r}")
        if above is not None:
            ok, bound = value > above, f"> {above:g}"
        else:
            ok, bound = value >= least, f">= {least:g}"
        if not (ok and math.isfinite(value)):
            raise ScenarioError(f"{self._name(key)} must be finite and "
                                f"{bound}, got {value!r}")
        return float(value)

    def integer(self, key, default=..., *, least=None) -> int:
        """A JSON integer (not a bool), >= ``least`` if given."""
        value = self.take(key, default)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                or least is not None and value < least:
            bound = "" if least is None else f" >= {least}"
            raise ScenarioError(f"{self._name(key)} must be an integer"
                                f"{bound}, got {value!r}")
        return int(value)


# scenario key -> dataclass field, one table per section
_SECTION_FIELDS = {
    "apf": {"influence_radius_m": "influence_radius",
            "repulsion_gain": "repulsion_gain",
            "slow_radius_m": "slow_radius",
            "waypoint_switch_radius_m": "waypoint_switch_radius",
            "formation_tolerance_m": "formation_tolerance",
            "formation_frame": "formation_frame"},
    "search": {"bounds_lo_m": "bounds_lo", "bounds_hi_m": "bounds_hi",
               "targets_m": "targets", "neighbor_radius_m": "neighbor_radius",
               "sensor_range_m": "sensor_range",
               "target_radius_m": "target_radius", "cell_size_m": "cell_size",
               "explore_weight": "explore_weight",
               "obstacle_gain": "obstacle_gain"},
    "spawn": {"inner_radius_m": "inner_radius",
              "outer_radius_m": "outer_radius", "sectors": "sectors"},
    "fuzz": {"lookahead_steps": "lookahead", "settle_steps": "settle_steps",
             "attacker_v_max_mps": "attacker_v_max",
             "attacker_a_max_mps2": "attacker_a_max",
             "graph_radius_m": "graph_radius", "alpha_factor": "alpha_factor",
             "standoff_m": "standoff", "warmup_steps": "warmup_steps"},
}
_SEARCH_REQUIRED = ("bounds_lo_m", "bounds_hi_m", "targets_m")
# section keys that must hold an integer (not a bool), with their minimum;
# SpawnGeometry owns the minimum of sectors
_COUNT_KEYS = {"lookahead_steps": 1, "settle_steps": 0, "warmup_steps": 0,
               "sectors": None}
_array = partial(np.asarray, dtype=float)
# section keys whose value is converted before it reaches its field
_CONVERT = {"bounds_lo_m": _array, "bounds_hi_m": _array,
            "targets_m": lambda targets: [_array(t) for t in targets]}


def _vec(value, dim: int, context: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (dim,):
        raise ScenarioError(f"{context}: expected a {dim}-vector")
    return arr


@dataclass
class AgentConfig:
    id: int
    role: str
    start: np.ndarray
    sensing_radius: float
    formation_offset: np.ndarray | None = None


@dataclass
class ScenarioConfig:
    name: str
    dimension: int
    controller_kind: str
    goal: np.ndarray
    goal_tolerance: float
    safe_distance: float
    v_max: float
    a_max: float
    formation_min: float
    formation_max: float
    dt: float
    nominal_steps: int
    timeout_multiplier: float
    collision_radius: float
    formation_constraint_enabled: bool
    progress_window: int
    start_jitter: float
    agents: list[AgentConfig]
    leader_waypoints: list[np.ndarray]
    obstacles: list[Obstacle]
    apf: dict = field(default_factory=dict)
    search: dict = field(default_factory=dict)
    spawn: dict = field(default_factory=dict)
    fuzz: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Cross-key invariants; :func:`scenario_from_dict` checks each
        scalar's type and range as it reads it."""
        if self.controller_kind not in CONTROLLER_KINDS:
            raise ScenarioError(f"controller must be one of {CONTROLLER_KINDS}")
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ScenarioError("agent ids must be unique")
        if not self.agents:
            raise ScenarioError("at least one agent is required")
        for a in self.agents:
            if a.sensing_radius <= self.safe_distance:
                raise ScenarioError(
                    f"agent {a.id}: sensing_radius_m must exceed safe_distance_m")
        if not 0 < self.formation_min < self.formation_max:
            raise ScenarioError("need 0 < formation_min_m < formation_max_m")
        if self.collision_radius >= self.safe_distance:
            raise ScenarioError("collision_radius_m must be < safe_distance_m")
        if self.controller_kind == "apf_navigate" and not self.leader_waypoints:
            raise ScenarioError("apf_navigate requires leader_waypoints_m")
        required = _SEARCH_REQUIRED \
            if self.controller_kind == "dispersal_search" else ()
        for name, fields in _SECTION_FIELDS.items():
            f = _Fields(getattr(self, name), name)
            for key in fields:
                if key in _COUNT_KEYS and key in f.data:
                    f.integer(key, least=_COUNT_KEYS[key])
                else:
                    f.take(key, ... if key in required else None)
            f.finish()
        self.spawn_geometry()

    # -- derived objects ---------------------------------------------------

    def _field_kwargs(self, section: str) -> dict:
        """Dataclass keyword arguments for the keys present in ``section``."""
        fields = _SECTION_FIELDS[section]
        return {fields[key]: _CONVERT.get(key, lambda v: v)(value)
                for key, value in getattr(self, section).items()}

    def mission_spec(self) -> MissionSpec:
        return MissionSpec(goal=self.goal, goal_tolerance=self.goal_tolerance,
                           safe_distance=self.safe_distance, v_max=self.v_max,
                           a_max=self.a_max, formation_min=self.formation_min,
                           formation_max=self.formation_max, dt=self.dt,
                           nominal_steps=self.nominal_steps,
                           timeout_multiplier=self.timeout_multiplier,
                           collision_radius=self.collision_radius,
                           formation_enabled=self.formation_constraint_enabled)

    def constraint_params(self) -> ConstraintParams:
        sensing = min(a.sensing_radius for a in self.agents)
        return ConstraintParams(safe_distance=self.safe_distance,
                                sensing_radius=sensing, v_max=self.v_max,
                                a_max=self.a_max,
                                formation_min=self.formation_min,
                                formation_max=self.formation_max, dt=self.dt,
                                window=self.progress_window,
                                formation_enabled=self.formation_constraint_enabled)

    def build_world(self, rng: np.random.Generator | None = None) -> WorldState:
        agents = []
        for cfg in self.agents:
            start = cfg.start.copy()
            if rng is not None and self.start_jitter > 0:
                start = start + rng.uniform(-self.start_jitter,
                                            self.start_jitter, self.dimension)
            zero = np.zeros(self.dimension)
            agents.append(AgentState(cfg.id, start, zero.copy(), zero.copy(),
                                     cfg.sensing_radius, cfg.role))
        return WorldState(0, agents, list(self.obstacles),
                          [w.copy() for w in self.leader_waypoints])

    def build_controller(self):
        if self.controller_kind == "apf_navigate":
            offsets = {a.id: a.formation_offset for a in self.agents
                       if a.formation_offset is not None}
            return ApfNavigationController(formation_offsets=offsets,
                                           **self._field_kwargs("apf"))
        return DispersalSearchController(**self._field_kwargs("search"))

    def build_simulation(self, seed: int = 0, controller=None,
                         record_trace: bool = True) -> Simulation:
        rng = np.random.default_rng(seed)
        world = self.build_world(rng)
        if controller is None:
            controller = self.build_controller()
        params = self.fuzz_params()
        return Simulation(world, controller, self.mission_spec(),
                          self.constraint_params(),
                          attacker_v_max=params.attacker_v_max,
                          attacker_a_max=params.attacker_a_max,
                          record_trace=record_trace)

    # The five fallbacks below depend on the scenario, so they cannot be
    # field defaults; an absent, null or zero key falls back.

    def spawn_geometry(self) -> SpawnGeometry:
        kwargs = self._field_kwargs("spawn")
        kwargs["inner_radius"] = kwargs.get("inner_radius") \
            or min(a.sensing_radius for a in self.agents)
        kwargs["outer_radius"] = kwargs.get("outer_radius") \
            or 1.5 * kwargs["inner_radius"]
        try:
            return SpawnGeometry(**kwargs)
        except ValueError as exc:
            raise ScenarioError(
                f"spawn: {exc} (keys inner_radius_m, outer_radius_m, sectors)"
            ) from exc

    def fuzz_params(self) -> FuzzParams:
        kwargs = self._field_kwargs("fuzz")
        kwargs["attacker_v_max"] = kwargs.get("attacker_v_max") or self.v_max
        kwargs["graph_radius"] = kwargs.get("graph_radius") \
            or 2.0 * min(a.sensing_radius for a in self.agents)
        kwargs["standoff"] = kwargs.get("standoff") or self.safe_distance
        return FuzzParams(**kwargs)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "dimension": self.dimension,
            "controller": self.controller_kind,
            "goal_m": [float(x) for x in self.goal],
            "goal_tolerance_m": self.goal_tolerance,
            "safe_distance_m": self.safe_distance,
            "v_max_mps": self.v_max,
            "a_max_mps2": self.a_max,
            "formation_min_m": self.formation_min,
            "formation_max_m": self.formation_max,
            "dt_s": self.dt,
            "nominal_steps": self.nominal_steps,
            "timeout_multiplier": self.timeout_multiplier,
            "collision_radius_m": self.collision_radius,
            "formation_constraint_enabled": self.formation_constraint_enabled,
            "progress_window_steps": self.progress_window,
            "start_jitter_m": self.start_jitter,
            "agents": [
                {"id": a.id, "role": a.role,
                 "start_m": [float(x) for x in a.start],
                 "sensing_radius_m": a.sensing_radius,
                 "formation_offset_m": None if a.formation_offset is None
                 else [float(x) for x in a.formation_offset]}
                for a in self.agents
            ],
            "leader_waypoints_m": [[float(x) for x in w]
                                   for w in self.leader_waypoints],
            "obstacles": [
                {"kind": "circle", "center_m": [float(x) for x in o.center],
                 "radius_m": o.radius} if o.kind == "circle" else
                {"kind": "box", "lo_m": [float(x) for x in o.lo],
                 "hi_m": [float(x) for x in o.hi]}
                for o in self.obstacles
            ],
            "apf": dict(self.apf),
            "search": dict(self.search),
            "spawn": dict(self.spawn),
            "fuzz": dict(self.fuzz),
        }
        return out

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2,
                                         sort_keys=True) + "\n")


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Parse and validate a scenario; a bad one raises :class:`ScenarioError`.

    Physical quantities must be finite JSON numbers in their range and
    counts JSON integers, so NaN, 2.7 for a count or the string "false"
    for a flag are rejected here, naming the key, instead of misbehaving
    in a run.
    """
    top = _Fields(data, "scenario")
    dimension = top.integer("dimension")
    if dimension not in (2, 3):
        raise ScenarioError("dimension must be 2 or 3")
    agents = []
    for k, raw in enumerate(top.take("agents")):
        f = _Fields(raw, f"agents[{k}]")
        role = f.take("role")
        if role not in (ROLE_LEADER, ROLE_FOLLOWER, ROLE_SEARCHER):
            raise ScenarioError(f"agents[{k}]: bad role '{role}'")
        offset = f.take("formation_offset_m", None)
        agents.append(AgentConfig(
            id=f.integer("id"), role=role,
            start=_vec(f.take("start_m"), dimension, f"agents[{k}].start_m"),
            sensing_radius=f.number("sensing_radius_m", above=0.0),
            formation_offset=None if offset is None
            else _vec(offset, dimension, f"agents[{k}].formation_offset_m")))
        f.finish()
    obstacles = []
    for k, raw in enumerate(top.take("obstacles", [])):
        f = _Fields(raw, f"obstacles[{k}]")
        kind = f.take("kind")
        if kind == "circle":
            obstacles.append(Obstacle.circle(
                _vec(f.take("center_m"), dimension, f"obstacles[{k}].center_m"),
                f.number("radius_m", above=0.0)))
        elif kind == "box":
            obstacles.append(Obstacle.box(
                _vec(f.take("lo_m"), dimension, f"obstacles[{k}].lo_m"),
                _vec(f.take("hi_m"), dimension, f"obstacles[{k}].hi_m")))
        else:
            raise ScenarioError(f"obstacles[{k}]: bad kind '{kind}'")
        f.finish()
    formation_enabled = top.take("formation_constraint_enabled", True)
    if not isinstance(formation_enabled, bool):
        raise ScenarioError("formation_constraint_enabled must be true or "
                            f"false, got {formation_enabled!r}")
    config = ScenarioConfig(
        name=str(top.take("name", "unnamed")),
        dimension=dimension,
        controller_kind=top.take("controller"),
        goal=_vec(top.take("goal_m"), dimension, "goal_m"),
        goal_tolerance=top.number("goal_tolerance_m", above=0.0),
        safe_distance=top.number("safe_distance_m", above=0.0),
        # every speed and acceleration clamp divides by these limits
        v_max=top.number("v_max_mps", above=0.0),
        a_max=top.number("a_max_mps2", above=0.0),
        formation_min=top.number("formation_min_m", above=0.0),
        formation_max=top.number("formation_max_m", above=0.0),
        dt=top.number("dt_s", above=0.0),
        nominal_steps=top.integer("nominal_steps", least=1),
        timeout_multiplier=top.number("timeout_multiplier", 2.0, least=1.0),
        collision_radius=top.number("collision_radius_m", least=0.0),
        formation_constraint_enabled=formation_enabled,
        progress_window=top.integer("progress_window_steps", 20, least=1),
        start_jitter=top.number("start_jitter_m", 0.0, least=0.0),
        agents=agents,
        leader_waypoints=[_vec(w, dimension, "leader_waypoints_m")
                          for w in top.take("leader_waypoints_m", [])],
        obstacles=obstacles,
        **{name: _Fields(top.take(name, {}), name).data
           for name in _SECTION_FIELDS},
    )
    top.finish()
    config.validate()
    return config


def load_scenario(path) -> ScenarioConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(data)


# -- built-in presets ------------------------------------------------------

def _diamond_offsets(count: int, spacing: float, dimension: int) -> list[np.ndarray]:
    """Hexagonal-lattice follower offsets behind the leader, nearest
    neighbours exactly ``spacing`` apart."""
    dx = spacing * math.cos(math.pi / 6.0)
    dy = spacing * 0.5
    pattern = []
    col = 1
    while len(pattern) < count:
        phase = (col - 1) % 3
        if phase in (0, 1):
            pattern.append((-col * dx, dy if phase == 0 else -dy))
        else:
            pattern.append((-col * dx, 0.0))
        # two slots per off-axis column
        if phase == 0 and len(pattern) < count:
            pattern.append((-col * dx, -dy))
            col += 1
        elif phase != 0:
            col += 1
    out = []
    for x, y in pattern[:count]:
        v = np.zeros(dimension)
        v[0], v[1] = x, y
        out.append(v)
    return out


def _vee_offsets(count: int, spacing: float, dimension: int) -> list[np.ndarray]:
    """V-shaped follower offsets trailing the leader at 45 degrees,
    adjacent slots exactly ``spacing`` apart.  Wing slots are filled in
    symmetric pairs; an odd leftover follower trails on the centreline
    (still ``spacing`` away from each rearmost wing slot)."""
    leg = spacing * math.cos(math.pi / 4.0)
    out = []
    for k in range(1, count + 1):
        v = np.zeros(dimension)
        if k % 2 and k == count:
            # odd tail-end follower: centreline, one rank behind the wings
            v[0] = -(k // 2 + 1) * leg
        else:
            rank = (k + 1) // 2
            side = 1.0 if k % 2 else -1.0
            v[0] = -rank * leg
            v[1] = side * rank * leg
        out.append(v)
    return out


def a1_navigate(size: int = 4, influence_radius: float = 0.15,
                nominal_steps: int | None = None) -> ScenarioConfig:
    """Leader-follower corridor delivery, potential-field avoidance.

    Potential-field radius 0.15 m and goal tolerance 0.05 m; the corridor
    is sized so the swarm must fly close to the walls while in transit,
    which is what makes the potential-field radius matter.
    """
    inter_robot = 0.22
    offsets = _vee_offsets(size - 1, inter_robot, 2)
    agents = [{"id": 0, "role": "leader", "start_m": [0.0, 0.0],
               "sensing_radius_m": 0.5, "formation_offset_m": None}]
    for k, off in enumerate(offsets, start=1):
        agents.append({"id": k, "role": "follower",
                       "start_m": [float(off[0]), float(off[1])],
                       "sensing_radius_m": 0.5,
                       "formation_offset_m": [float(off[0]), float(off[1])]})
    data = {
        "name": f"a1_navigate_{size}",
        "dimension": 2,
        "controller": "apf_navigate",
        "goal_m": [4.0, 0.0],
        "goal_tolerance_m": 0.05,
        "safe_distance_m": 0.1,
        "v_max_mps": 1.5,
        "a_max_mps2": 6.0,
        "formation_min_m": 0.1,
        "formation_max_m": 0.95,
        "dt_s": 0.05,
        # mean completion steps over 50 attacker-free reference runs
        "nominal_steps": nominal_steps if nominal_steps is not None else 59,
        "timeout_multiplier": 3.0,
        "collision_radius_m": 0.05,
        "formation_constraint_enabled": True,
        "progress_window_steps": 20,
        "start_jitter_m": 0.05,
        "agents": agents,
        "leader_waypoints_m": [[2.0, 0.0], [4.0, 0.0]],
        "obstacles": [
            {"kind": "box", "lo_m": [1.6, 0.4], "hi_m": [2.4, 1.8]},
            {"kind": "box", "lo_m": [1.6, -1.8], "hi_m": [2.4, -0.4]},
        ],
        "apf": {"influence_radius_m": influence_radius,
                "repulsion_gain": 0.05,
                "slow_radius_m": 0.3,
                "waypoint_switch_radius_m": 0.2,
                "formation_tolerance_m": 0.15,
                "formation_frame": "leader"},
        "search": {},
        "spawn": {"inner_radius_m": 0.5, "outer_radius_m": 1.0, "sectors": 8},
        "fuzz": {"lookahead_steps": 20, "settle_steps": 12,
                 "attacker_v_max_mps": 3.0, "attacker_a_max_mps2": 30.0,
                 "graph_radius_m": 1.2,
                 "alpha_factor": 0.85, "standoff_m": 0.08, "warmup_steps": 10},
    }
    return scenario_from_dict(data)


def a2_search(size: int = 10, nominal_steps: int | None = None) -> ScenarioConfig:
    """Dispersal-based coordinated search, no mutual collision avoidance."""
    agents = []
    for k in range(size):
        agents.append({"id": k, "role": "searcher",
                       "start_m": [-6.0 + 0.1 * (k % 4), -6.0 + 0.1 * (k // 4)],
                       "sensing_radius_m": 2.0, "formation_offset_m": None})
    data = {
        "name": f"a2_search_{size}",
        "dimension": 2,
        "controller": "dispersal_search",
        "goal_m": [0.0, 0.0],
        "goal_tolerance_m": 1.0,
        "safe_distance_m": 0.5,
        "v_max_mps": 2.0,
        "a_max_mps2": 6.0,
        "formation_min_m": 0.5,
        "formation_max_m": 16.0,
        "dt_s": 0.5,
        # search times are heavy-tailed; sized to the slowest of 50
        # attacker-free reference runs rather than the mean
        "nominal_steps": nominal_steps if nominal_steps is not None else 280,
        "timeout_multiplier": 2.0,
        "collision_radius_m": 0.2,
        "formation_constraint_enabled": False,
        "progress_window_steps": 20,
        "start_jitter_m": 0.05,
        "agents": agents,
        "leader_waypoints_m": [],
        "obstacles": [
            {"kind": "box", "lo_m": [-2.0, -1.0], "hi_m": [0.0, 1.0]},
            {"kind": "circle", "center_m": [4.0, -4.0], "radius_m": 1.2},
            {"kind": "circle", "center_m": [-4.0, 4.0], "radius_m": 1.2},
        ],
        "apf": {},
        "search": {"bounds_lo_m": [-8.0, -8.0], "bounds_hi_m": [8.0, 8.0],
                   "targets_m": [[6.0, 6.0], [5.0, -5.0]],
                   "neighbor_radius_m": 2.0, "sensor_range_m": 2.0,
                   "target_radius_m": 1.0, "cell_size_m": 4.0,
                   "explore_weight": 1.0, "obstacle_gain": 2.5},
        "spawn": {"inner_radius_m": 2.0, "outer_radius_m": 3.0, "sectors": 8},
        "fuzz": {"lookahead_steps": 10, "settle_steps": 5,
                 "attacker_v_max_mps": 2.0, "graph_radius_m": 4.0,
                 "alpha_factor": 0.85, "standoff_m": 0.5, "warmup_steps": 6},
    }
    return scenario_from_dict(data)


def a3_navigate3d(size: int = 6, nominal_steps: int | None = None) -> ScenarioConfig:
    """3D gradient-style navigation toward a single destination."""
    inter_robot = 1.0
    offsets = _diamond_offsets(size - 1, inter_robot, 3)
    agents = [{"id": 0, "role": "leader", "start_m": [0.0, 0.0, 0.0],
               "sensing_radius_m": 2.0, "formation_offset_m": None}]
    for k, off in enumerate(offsets, start=1):
        agents.append({"id": k, "role": "follower",
                       "start_m": [float(off[0]), float(off[1]), 0.0],
                       "sensing_radius_m": 2.0,
                       "formation_offset_m": [float(x) for x in off]})
    data = {
        "name": f"a3_navigate3d_{size}",
        "dimension": 3,
        "controller": "apf_navigate",
        "goal_m": [10.0, 10.0, 10.0],
        "goal_tolerance_m": 0.5,
        "safe_distance_m": 0.5,
        "v_max_mps": 5.0,
        "a_max_mps2": 2.5,
        "formation_min_m": 0.3,
        "formation_max_m": 1.9,
        "dt_s": 0.05,
        # mean completion steps over attacker-free reference runs
        "nominal_steps": nominal_steps if nominal_steps is not None else 245,
        "timeout_multiplier": 2.0,
        "collision_radius_m": 0.25,
        "formation_constraint_enabled": True,
        "progress_window_steps": 20,
        "start_jitter_m": 0.05,
        "agents": agents,
        "leader_waypoints_m": [[5.0, 5.0, 5.0], [10.0, 10.0, 10.0]],
        "obstacles": [
            {"kind": "circle", "center_m": [6.0, 2.0, 3.0], "radius_m": 1.0},
            {"kind": "circle", "center_m": [2.0, 6.0, 4.0], "radius_m": 1.0},
            {"kind": "circle", "center_m": [8.5, 5.0, 8.5], "radius_m": 1.0},
        ],
        "apf": {"influence_radius_m": 2.0, "repulsion_gain": 2.0,
                "slow_radius_m": 2.0, "waypoint_switch_radius_m": 1.0,
                "formation_tolerance_m": 1.0},
        "search": {},
        "spawn": {"inner_radius_m": 2.0, "outer_radius_m": 3.0, "sectors": 8},
        "fuzz": {"lookahead_steps": 10, "settle_steps": 5,
                 "attacker_v_max_mps": 5.0, "graph_radius_m": 4.0,
                 "alpha_factor": 0.85, "standoff_m": 0.5, "warmup_steps": 10},
    }
    return scenario_from_dict(data)


BUILTIN_SCENARIOS = {
    "a1_navigate": a1_navigate,
    "a2_search": a2_search,
    "a3_navigate3d": a3_navigate3d,
}


def builtin_scenario(name: str, **kwargs) -> ScenarioConfig:
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioError(f"unknown built-in scenario '{name}'; "
                            f"choices: {sorted(BUILTIN_SCENARIOS)}")
    return BUILTIN_SCENARIOS[name](**kwargs)


def measure_nominal_steps(config: ScenarioConfig, runs: int = 50,
                          base_seed: int = 0) -> int:
    """Mean completion steps over attacker-free reference runs."""
    from .mission import OUTCOME_SUCCESS, run_mission
    steps = []
    for k in range(runs):
        trace = run_mission(config, seed=base_seed + k, record_trace=False)
        if trace.outcome != OUTCOME_SUCCESS:
            raise RuntimeError(
                f"reference run {k} did not complete (outcome {trace.outcome})")
        steps.append(trace.events[-1][0])
    return int(math.ceil(sum(steps) / len(steps)))
