"""Scenario configuration: JSON schema, validation and built-in presets.

Scenario files are strict JSON with units suffixed on key names
(``_m``, ``_mps``, ``_s``). Each key sets one dataclass field, whose
``metadata`` holds the key's check: a kind (``number``, ``integer``,
``choice``, ``text``, ``vector``, ``vectors`` or a nested object) and a
range (``above``, ``least``, ``below`` or ``choices``). One walker reads
the key tables with that metadata, at load and to dump a scenario.
A key left out takes its field's default, so each default lives in one
class; a field without one is required (a controller's only when the
scenario runs it) unless it is a ``fallback``, which an absent, null or 0
key leaves to the scenario. Otherwise null is accepted for a None default.
"""
from __future__ import annotations

import json
import math
import numbers
import operator
import re
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .controllers import ApfNavigationController, DispersalSearchController
from .fuzzing import FuzzParams, SpawnGeometry
from .mission import ATTACKER_ID, Simulation
from .robustness import ConstraintParams
from .world import (ROLE_LEADER, SWARM_ROLES, AgentState, MissionSpec,
                    Obstacle, WorldState, norm)


class ScenarioError(ValueError):
    """Configuration is missing a key or breaks an invariant."""


def _field(default=MISSING, factory=MISSING, **check):
    """A dataclass field holding its key's ``check`` in its metadata."""
    return field(default=default, default_factory=factory, metadata=check)


_RANGES = (("above", ">", operator.gt), ("least", ">=", operator.ge),
           ("below", "<", operator.lt))


def _key(name: str, required=True, null=False, **check) -> dict:
    # a key's check, with its range as (operator, limit, text) triples, the
    # field it sets, and whether it is required or nullable
    return dict(check, field=name, required=required, null=null,
                ranges=[(op, check[r], f"{sign} {check[r]:g}")
                        for r, sign, op in _RANGES if r in check])


def _keys(cls) -> dict[str, dict]:
    """Each checked field of ``cls`` by its scenario key (its ``key``, else
    its name), with its check resolved once; a field without a check is
    not a key."""
    out = {}
    for f in fields(cls):
        if f.metadata:
            fallback = f.metadata.get("fallback", False)
            bare = f.default is MISSING and f.default_factory is MISSING
            out[f.metadata.get("key", f.name)] = _key(
                f.name, bare and not fallback, fallback or f.default is None,
                **f.metadata)
    return out


def _fields(values: dict, keys: dict) -> dict:
    """Walked ``values`` keyed by the fields their keys set."""
    return {keys[key]["field"]: value for key, value in values.items()}


def _number(value, spec: dict, name: str):
    """A finite JSON number (JSON integer for kind ``integer``) in range."""
    integer = spec["kind"] == "integer"
    # concrete types first skip the abstract-class check; the largest float
    # bounds out NaN, infinities and integers too big to be a float
    typed = isinstance(value, (int, numbers.Integral) if integer else (
        float, int, numbers.Real)) and not isinstance(value, bool)
    ok = typed and (integer or abs(value) <= sys.float_info.max)
    for op, limit, _ in spec["ranges"]:
        ok = ok and op(value, limit)
    if ok:
        return int(value) if integer else float(value)
    bound = " and ".join(text for *_, text in spec["ranges"])
    if integer:
        raise ScenarioError(f"{name} must be an integer"
                            f"{' ' + bound if bound else ''}, got {value!r}")
    if not typed:
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    raise ScenarioError(f"{name} must be finite"
                        f"{' and ' + bound if bound else ''}, got {value!r}")


def _vec(value, dim: int, name: str) -> np.ndarray:
    """A list of ``dim`` finite JSON numbers, as a float array."""
    if not (isinstance(value, list) and len(value) == dim and all(
            isinstance(x, (float, int, numbers.Real))
            and not isinstance(x, bool) and abs(x) <= sys.float_info.max
            for x in value)):
        raise ScenarioError(f"{name} must be a list of {dim} finite numbers, "
                            f"got {value!r}")
    return np.array(value, dtype=float)


def _check(value, spec: dict, name: str, scenario: dict):
    """``value`` checked and converted; ``scenario`` holds the top level."""
    kind = spec["kind"]
    if value is None and spec["null"]:
        return None
    if kind in ("number", "integer"):
        return _number(value, spec, name)
    if kind == "choice":
        if not any(type(value) is type(c) and value == c
                   for c in spec["choices"]):
            raise ScenarioError(f"{name} must be " + " or ".join(
                map(json.dumps, spec["choices"])) + f", got {value!r}")
        return value
    if kind == "text":
        if not isinstance(value, str):
            raise ScenarioError(f"{name} must be a string, got {value!r}")
        return value
    if kind == "vector":
        return _vec(value, scenario["dimension"], name)
    if kind == "section":
        return _walk(value, spec["keys"], name, scenario, required=spec[
            "controller"] in (None, scenario["controller"]))
    if not isinstance(value, list):
        raise ScenarioError(f"{name} must be a list, got {value!r}")
    items = [(f"{name}[{k}]", item) for k, item in enumerate(value)]
    if kind == "vectors":
        return [_vec(item, scenario["dimension"], n) for n, item in items]
    if kind == "agents":
        return [AgentConfig(**_fields(_walk(item, _AGENT_FIELDS, n, scenario),
                                      _AGENT_FIELDS)) for n, item in items]
    obstacles = []
    for n, item in items:
        # any kind but "box" fails the circle table's check of "kind"
        keys = _OBSTACLE_FIELDS["box" if isinstance(item, dict)
                                and item.get("kind") == "box" else "circle"]
        kwargs = _fields(_walk(item, keys, n, scenario), keys)
        try:
            obstacles.append(getattr(Obstacle, kwargs.pop("kind"))(**kwargs))
        except ValueError as exc:
            raise _invariant(exc, n, keys) from exc
    return obstacles


def _walk(data, keys: dict, context: str, scenario: dict | None = None,
          required: bool = True) -> dict:
    """The keys of ``data`` checked and converted, in ``keys`` order."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{context}: expected an object")
    out = {}
    scenario = out if scenario is None else scenario    # the top level
    prefix = "" if context == "scenario" else context + ": "
    for key, spec in keys.items():
        if key in data:
            out[key] = _check(data[key], spec, prefix + key, scenario)
        elif required and spec["required"]:
            raise ScenarioError(f"{context}: missing required key '{key}'")
    if len(out) < len(data):
        unknown = ", ".join(sorted(set(data) - set(keys)))
        raise ScenarioError(f"{context}: unknown key(s): {unknown}")
    return out


def _dump(value, spec: dict):
    """The JSON form of a value that :func:`_check` read."""
    kind = spec["kind"]
    if value is None or kind in ("number", "integer", "choice", "text"):
        return value
    if kind == "vector":
        return [float(x) for x in value]
    if kind == "vectors":
        return [[float(x) for x in v] for v in value]
    if kind == "section":
        return {key: _dump(v, spec["keys"][key]) for key, v in value.items()}
    if kind == "agents":
        return [_dump_fields(a, _AGENT_FIELDS) for a in value]
    return [_dump_fields(o, _OBSTACLE_FIELDS[o.kind]) for o in value]


def _dump_fields(obj, keys: dict) -> dict:
    return {key: _dump(getattr(obj, spec["field"]), spec)
            for key, spec in keys.items()}


def _invariant(exc: ValueError, context: str, keys: dict) -> ScenarioError:
    """A broken invariant, naming the keys whose fields ``exc`` names."""
    words = set(re.findall(r"\w+", str(exc)))
    named = ", ".join(k for k, spec in keys.items() if spec["field"] in words)
    prefix = "" if context == "scenario" else context + ": "
    return ScenarioError(f"{prefix}{exc} (keys {named})")


_POSITIVE = dict(kind="number", above=0.0)
# obstacle kind -> its keys, each with the Obstacle.<kind> argument it sets
_KIND = {"kind": _key("kind", kind="choice", choices=("circle", "box"))}
_OBSTACLE_FIELDS = {
    "circle": {**_KIND, "center_m": _key("center", kind="vector"),
               "radius_m": _key("radius", **_POSITIVE)},
    "box": {**_KIND, "lo_m": _key("lo", kind="vector"),
            "hi_m": _key("hi", kind="vector")}}


@dataclass
class AgentConfig:
    id: int = _field(kind="integer")
    role: str = _field(kind="choice", choices=SWARM_ROLES)
    start: np.ndarray = _field(key="start_m", kind="vector")
    sensing_radius: float = _field(key="sensing_radius_m", **_POSITIVE)
    formation_offset: np.ndarray | None = _field(
        None, key="formation_offset_m", kind="vector")


_AGENT_FIELDS = _keys(AgentConfig)

# section -> its keys, each declared on the field it sets
_SECTION_FIELDS = {"apf": _keys(ApfNavigationController),
                   "search": _keys(DispersalSearchController),
                   "spawn": _keys(SpawnGeometry), "fuzz": _keys(FuzzParams)}


def _section(name: str, controller: str | None = None):
    # its required keys are required only when the scenario runs controller
    return _field(factory=dict, kind="section", keys=_SECTION_FIELDS[name],
                  controller=controller)


@dataclass
class ScenarioConfig:
    """A scenario. Each field holds the check of the top-level key that sets
    it (``key``, else the field's name); the walker reads them in order."""

    dimension: int = _field(kind="choice", choices=(2, 3))
    controller_kind: str = _field(key="controller", kind="choice", choices=(
        "apf_navigate", "dispersal_search"))
    goal: np.ndarray = _field(key="goal_m", kind="vector")
    goal_tolerance: float = _field(key="goal_tolerance_m", **_POSITIVE)
    safe_distance: float = _field(key="safe_distance_m", **_POSITIVE)
    # every speed and acceleration clamp divides by these limits
    v_max: float = _field(key="v_max_mps", **_POSITIVE)
    a_max: float = _field(key="a_max_mps2", **_POSITIVE)
    formation_min: float = _field(key="formation_min_m", **_POSITIVE)
    formation_max: float = _field(key="formation_max_m", **_POSITIVE)
    dt: float = _field(key="dt_s", **_POSITIVE)
    nominal_steps: int = _field(kind="integer", least=1)
    collision_radius: float = _field(key="collision_radius_m",
                                     kind="number", least=0.0)
    agents: list[AgentConfig] = _field(kind="agents")
    name: str = _field("unnamed", kind="text")
    timeout_multiplier: float = _field(MissionSpec.timeout_multiplier,
                                       kind="number", least=1.0)
    formation_constraint_enabled: bool = _field(
        MissionSpec.formation_enabled, kind="choice", choices=(True, False))
    progress_window: int = _field(ConstraintParams.window,
                                  key="progress_window_steps",
                                  kind="integer", least=1)
    start_jitter: float = _field(0.0, key="start_jitter_m", kind="number",
                                 least=0.0)
    leader_waypoints: list[np.ndarray] = _field(
        factory=list, key="leader_waypoints_m", kind="vectors")
    obstacles: list[Obstacle] = _field(factory=list, kind="obstacles")
    apf: dict = _section("apf", "apf_navigate")
    search: dict = _section("search", "dispersal_search")
    spawn: dict = _section("spawn")
    fuzz: dict = _section("fuzz")

    def validate(self) -> None:
        """Check the invariants between keys, building each object once."""
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ScenarioError("agent ids must be unique")
        if not self.agents:
            raise ScenarioError("at least one agent is required")
        apf = self.controller_kind == "apf_navigate"
        for k, a in enumerate(self.agents):
            if a.id == ATTACKER_ID:
                raise ScenarioError(f"agents[{k}]: id {ATTACKER_ID} is "
                                    f"reserved for the attacker")
            if a.sensing_radius <= self.safe_distance:
                raise ScenarioError(
                    f"agent {a.id}: sensing_radius_m must exceed safe_distance_m")
            if apf and a.role != ROLE_LEADER and a.formation_offset is None:
                raise ScenarioError(
                    f"agents[{k}]: apf_navigate requires formation_offset_m")
        if apf and not self.leader_waypoints:
            raise ScenarioError("apf_navigate requires leader_waypoints_m")
        # a mission that can never complete would only ever time out
        if apf and norm(self.goal - self.leader_waypoints[-1]) \
                > self.goal_tolerance:
            raise ScenarioError(
                "apf_navigate requires goal_m within goal_tolerance_m of the "
                "last leader_waypoints_m entry, where the leader parks")
        if not apf and not self.search.get("targets_m"):
            raise ScenarioError("search: dispersal_search requires at least "
                                "one entry in targets_m")
        for context, build in [("scenario", self.mission_spec),
                               ("apf" if apf else "search",
                                self.build_controller),
                               ("spawn", self.spawn_geometry),
                               ("fuzz", self.fuzz_params)]:
            try:
                build()
            except ValueError as exc:
                raise _invariant(exc, context, _SECTION_FIELDS.get(
                    context, _TOP_FIELDS)) from exc

    # -- derived objects ---------------------------------------------------

    def mission_spec(self) -> MissionSpec:
        return MissionSpec(goal=self.goal, goal_tolerance=self.goal_tolerance,
                           safe_distance=self.safe_distance, v_max=self.v_max,
                           a_max=self.a_max, formation_min=self.formation_min,
                           formation_max=self.formation_max, dt=self.dt,
                           nominal_steps=self.nominal_steps,
                           timeout_multiplier=self.timeout_multiplier,
                           collision_radius=self.collision_radius,
                           formation_enabled=self.formation_constraint_enabled)

    def sensing_radius(self) -> float:
        """The smallest sensing radius of the scenario's agents."""
        return min(a.sensing_radius for a in self.agents)

    def constraint_params(self) -> ConstraintParams:
        return ConstraintParams(safe_distance=self.safe_distance,
                                sensing_radius=self.sensing_radius(),
                                v_max=self.v_max,
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
        return WorldState(0, agents, self.obstacles,
                          [w.copy() for w in self.leader_waypoints])

    def build_controller(self):
        if self.controller_kind == "apf_navigate":
            offsets = {a.id: a.formation_offset for a in self.agents
                       if a.formation_offset is not None}
            return ApfNavigationController(
                formation_offsets=offsets,
                **_fields(self.apf, _SECTION_FIELDS["apf"]))
        return DispersalSearchController(
            **_fields(self.search, _SECTION_FIELDS["search"]))

    def build_simulation(self, seed: int = 0,
                         record_trace: bool = True) -> Simulation:
        rng = np.random.default_rng(seed)
        world = self.build_world(rng)
        params = self.fuzz_params()
        return Simulation(world, self.build_controller(), self.mission_spec(),
                          self.constraint_params(), params.attacker_v_max,
                          params.attacker_a_max, record_trace=record_trace)

    # The six fallbacks below depend on the scenario, so they cannot be
    # field defaults; an absent or null key falls back, and so does 0
    # where the key's range admits it.

    def spawn_geometry(self) -> SpawnGeometry:
        kwargs = _fields(self.spawn, _SECTION_FIELDS["spawn"])
        kwargs["inner_radius"] = kwargs.get("inner_radius") \
            or self.sensing_radius()
        kwargs["outer_radius"] = kwargs.get("outer_radius") \
            or 1.5 * kwargs["inner_radius"]
        return SpawnGeometry(**kwargs)

    def fuzz_params(self) -> FuzzParams:
        kwargs = _fields(self.fuzz, _SECTION_FIELDS["fuzz"])
        kwargs["attacker_v_max"] = kwargs.get("attacker_v_max") or self.v_max
        kwargs["attacker_a_max"] = kwargs.get("attacker_a_max") or self.a_max
        kwargs["graph_radius"] = kwargs.get("graph_radius") \
            or 2.0 * self.sensing_radius()
        kwargs["standoff"] = kwargs.get("standoff") or self.safe_distance
        return FuzzParams(**kwargs)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return _dump_fields(self, _TOP_FIELDS)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())


_TOP_FIELDS = _keys(ScenarioConfig)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Parse and validate a scenario; a bad one raises :class:`ScenarioError`.

    Every key is checked as it is read, so NaN, 2.7 for a count or "false"
    for a flag are rejected here, naming the key, not met in a run."""
    config = ScenarioConfig(**_fields(_walk(data, _TOP_FIELDS, "scenario"),
                                      _TOP_FIELDS))
    config.validate()
    return config


def load_scenario(path) -> ScenarioConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(data)


# -- built-in presets ------------------------------------------------------

def _diamond_offsets(count: int, spacing: float, dimension: int) -> list[np.ndarray]:
    """Hexagonal-lattice follower offsets behind the leader, nearest
    neighbours exactly ``spacing`` apart."""
    dx = spacing * math.cos(math.pi / 6.0)
    dy = spacing * 0.5
    # columns cycle through two off-axis slots, one, and one on the axis
    lateral = ((dy, -dy), (-dy,), (0.0,))
    pattern = [(-col * dx, y) for col in range(1, count + 1)
               for y in lateral[(col - 1) % 3]]
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


def a1_navigate(influence_radius: float = 0.15) -> ScenarioConfig:
    """Leader-follower corridor delivery, potential-field avoidance.

    Potential-field radius 0.15 m and goal tolerance 0.05 m; the corridor
    is sized so the swarm must fly close to the walls while in transit,
    which is what makes the potential-field radius matter.
    """
    inter_robot = 0.22
    offsets = _vee_offsets(3, inter_robot, 2)
    agents = [{"id": 0, "role": "leader", "start_m": [0.0, 0.0],
               "sensing_radius_m": 0.5, "formation_offset_m": None}]
    for k, off in enumerate(offsets, start=1):
        agents.append({"id": k, "role": "follower",
                       "start_m": [float(off[0]), float(off[1])],
                       "sensing_radius_m": 0.5,
                       "formation_offset_m": [float(off[0]), float(off[1])]})
    data = {
        "name": "a1_navigate_4",
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
        "nominal_steps": 59,
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
        "spawn": {"inner_radius_m": 0.5, "outer_radius_m": 1.0, "sectors": 8},
        "fuzz": {"lookahead_steps": 20, "settle_steps": 12,
                 "attacker_v_max_mps": 3.0, "attacker_a_max_mps2": 30.0,
                 "graph_radius_m": 1.2,
                 "alpha_factor": 0.85, "standoff_m": 0.08, "warmup_steps": 10},
    }
    return scenario_from_dict(data)


def a2_search() -> ScenarioConfig:
    """Dispersal-based coordinated search, no mutual collision avoidance."""
    agents = [{"id": k, "role": "searcher",
               "start_m": [-6.0 + 0.1 * (k % 4), -6.0 + 0.1 * (k // 4)],
               "sensing_radius_m": 2.0} for k in range(10)]
    data = {
        "name": "a2_search_10",
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
        "nominal_steps": 280,
        "timeout_multiplier": 2.0,
        "collision_radius_m": 0.2,
        "formation_constraint_enabled": False,
        "progress_window_steps": 20,
        "start_jitter_m": 0.05,
        "agents": agents,
        "obstacles": [
            {"kind": "box", "lo_m": [-2.0, -1.0], "hi_m": [0.0, 1.0]},
            {"kind": "circle", "center_m": [4.0, -4.0], "radius_m": 1.2},
            {"kind": "circle", "center_m": [-4.0, 4.0], "radius_m": 1.2},
        ],
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


def a3_navigate3d() -> ScenarioConfig:
    """3D gradient-style navigation toward a single destination."""
    inter_robot = 1.0
    offsets = _diamond_offsets(5, inter_robot, 3)
    agents = [{"id": 0, "role": "leader", "start_m": [0.0, 0.0, 0.0],
               "sensing_radius_m": 2.0, "formation_offset_m": None}]
    for k, off in enumerate(offsets, start=1):
        agents.append({"id": k, "role": "follower",
                       "start_m": [float(off[0]), float(off[1]), 0.0],
                       "sensing_radius_m": 2.0,
                       "formation_offset_m": [float(x) for x in off]})
    data = {
        "name": "a3_navigate3d_6",
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
        # measured as the mean completion steps over attacker-free
        # reference runs when the preset was made; measure_nominal_steps
        # now returns 244, and 245 is kept so the pinned a3 records hold
        "nominal_steps": 245,
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


def builtin_scenario(name: str) -> ScenarioConfig:
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioError(f"unknown built-in scenario '{name}'; "
                            f"choices: {sorted(BUILTIN_SCENARIOS)}")
    return BUILTIN_SCENARIOS[name]()


def measure_nominal_steps(config: ScenarioConfig) -> int:
    """Mean completion steps over 50 attacker-free reference runs, seeds 0-49."""
    from .mission import OUTCOME_SUCCESS
    steps = []
    for seed in range(50):
        sim = config.build_simulation(seed=seed, record_trace=False)
        while not sim.done:
            sim.step()
        if sim.outcome != OUTCOME_SUCCESS:
            raise RuntimeError(f"reference run {seed} did not complete "
                               f"(outcome {sim.outcome})")
        steps.append(sim.step_index)
    return int(math.ceil(sum(steps) / len(steps)))
