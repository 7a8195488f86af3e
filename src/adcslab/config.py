"""JSON scenario configuration.

A config file is a JSON object with up to seven sections -- ``orbit``,
``mass``, ``geometry``, ``gains``, ``limits``, ``mode``, ``sim`` -- each
optional, each overriding the mode preset's defaults field by field.  Unknown
sections or keys are rejected with the offending key path so typos fail loudly
instead of silently simulating the wrong thing.

Example::

    {
      "mode": {"mode": "detumble", "fidelity": "ideal"},
      "sim":  {"dt_s": 0.1, "duration_orbits": 9.0, "omega0_rpm": [35, 35, 35]},
      "gains": {"kp": 9e-5, "kd": 9e-3}
    }

Precedence is handled by the caller (command-line flags are applied on top of
the loaded scenario; the scenario itself is built on top of the per-mode
preset defaults).
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from .control import Fidelity
from .environment import OrbitConfig, SpacecraftGeometry
from .harness import STANDALONE_MODES, Scenario, default_scenario
from .massmodel import CatalogError, load_catalog
from .quatmath import RPM_TO_RADPS, Quat, Vec3, normalize_canonical, quat_from_euler

__all__ = ["ConfigError", "read_config", "scenario_from_dict", "load_scenario"]

_SECTIONS = ("orbit", "mass", "geometry", "gains", "limits", "mode", "sim")


class ConfigError(ValueError):
    """Config file rejected; the message carries the offending key path."""


def _require(obj, typ, where: str):
    if not isinstance(obj, typ):
        names = typ.__name__ if isinstance(typ, type) else "/".join(t.__name__ for t in typ)
        raise ConfigError(f"{where}: expected {names}, got {type(obj).__name__}")
    return obj


def _number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {obj!r}")
    return float(obj)


def _boolean(obj, where: str) -> bool:
    if not isinstance(obj, bool):
        raise ConfigError(f"{where}: expected true/false, got {obj!r}")
    return obj


def _numbers(obj, n: int, where: str) -> tuple[float, ...]:
    _require(obj, (list, tuple), where)
    if len(obj) != n:
        raise ConfigError(f"{where}: expected {n} numbers, got {len(obj)}")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(obj))


def _check_keys(section: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


def _orbit(section: dict, base: OrbitConfig) -> OrbitConfig:
    _check_keys(section, ("altitude_km", "inclination_deg", "raan_deg", "phase_deg"), "orbit")
    kwargs = {k: _number(v, f"orbit.{k}") for k, v in section.items()}
    try:
        return replace(base, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"orbit: {exc}") from exc


def _simple_section(section: dict, base, allowed: tuple[str, ...], where: str):
    _check_keys(section, allowed, where)
    kwargs = {k: _number(v, f"{where}.{k}") for k, v in section.items()}
    try:
        return replace(base, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def scenario_from_dict(data: dict, config_dir: Path | None = None) -> Scenario:
    """Build a Scenario from a parsed config object.

    Starts from the preset for the configured mode (``mode.mode``, default
    "detumble") and overrides it field by field.  ``mass.catalog`` paths are
    resolved relative to ``config_dir`` when given.
    """
    _require(data, dict, "config")
    _check_keys(data, _SECTIONS, "config")
    for name in _SECTIONS:
        if name in data:
            _require(data[name], dict, name)

    mode_section = data.get("mode", {})
    _check_keys(mode_section, ("mode", "fidelity", "schedule", "spin_target_rpm",
                               "thresholds", "multiplicative_error"), "mode")
    mode = mode_section.get("mode", "detumble")
    if mode not in STANDALONE_MODES + ("conops",):
        raise ConfigError(f"mode.mode: unknown mode {mode!r}")

    s = default_scenario(mode)
    updates: dict = {}

    if "orbit" in data:
        updates["orbit"] = _orbit(data["orbit"], s.orbit)

    if "mass" in data:
        section = data["mass"]
        _check_keys(section, ("catalog", "regolith_policy", "regolith_position_cm",
                              "min_principal_inertia_kgm2"), "mass")
        if "catalog" in section:
            path = Path(_require(section["catalog"], str, "mass.catalog"))
            if config_dir is not None and not path.is_absolute():
                path = config_dir / path
            try:
                updates["catalog"] = load_catalog(path)
            except CatalogError as exc:
                raise ConfigError(f"mass.catalog: {exc}") from exc
        if "regolith_policy" in section:
            policy = _require(section["regolith_policy"], str, "mass.regolith_policy")
            if policy not in ("stowed", "fixed", "sampled"):
                raise ConfigError(f"mass.regolith_policy: unknown policy {policy!r}")
            updates["regolith_policy"] = policy
        if "regolith_position_cm" in section:
            updates["regolith_fixed_cm"] = Vec3(
                *_numbers(section["regolith_position_cm"], 3, "mass.regolith_position_cm"))
        if "min_principal_inertia_kgm2" in section:
            updates["min_principal_inertia_kgm2"] = _number(
                section["min_principal_inertia_kgm2"], "mass.min_principal_inertia_kgm2")

    if "geometry" in data:
        section = data["geometry"]
        allowed = ("x_m", "y_m", "z_m", "drag_coefficient",
                   "specular_reflectance", "diffuse_reflectance")
        _check_keys(section, allowed, "geometry")
        kwargs = {k: _number(v, f"geometry.{k}") for k, v in section.items()}
        try:
            updates["geometry"] = SpacecraftGeometry.box(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"geometry: {exc}") from exc

    if "gains" in data:
        updates["gains"] = _simple_section(
            data["gains"], s.gains, ("kp", "kd", "k1", "k2"), "gains")

    if "limits" in data:
        updates["limits"] = _simple_section(
            data["limits"], s.limits,
            ("max_dipole_am2", "max_magnetic_torque_nm",
             "max_wheel_torque_nm", "max_wheel_momentum_nms"), "limits")

    if "fidelity" in mode_section:
        raw = _require(mode_section["fidelity"], str, "mode.fidelity")
        try:
            updates["fidelity"] = Fidelity(raw)
        except ValueError as exc:
            raise ConfigError(
                f"mode.fidelity: expected 'ideal' or 'physical', got {raw!r}") from exc
    if "schedule" in mode_section:
        entries = _require(mode_section["schedule"], list, "mode.schedule")
        schedule = []
        for i, entry in enumerate(entries):
            _require(entry, (list, tuple), f"mode.schedule[{i}]")
            if len(entry) != 2:
                raise ConfigError(f"mode.schedule[{i}]: expected [time_s, command]")
            t = _number(entry[0], f"mode.schedule[{i}][0]")
            cmd = _require(entry[1], str, f"mode.schedule[{i}][1]")
            schedule.append((t, cmd))
        updates["schedule"] = tuple(schedule)
    if "spin_target_rpm" in mode_section:
        updates["spin_target_rpm"] = _number(mode_section["spin_target_rpm"],
                                             "mode.spin_target_rpm")
    if "multiplicative_error" in mode_section:
        updates["multiplicative_error"] = _boolean(
            mode_section["multiplicative_error"], "mode.multiplicative_error")
    if "thresholds" in mode_section:
        updates["thresholds"] = _simple_section(
            _require(mode_section["thresholds"], dict, "mode.thresholds"),
            s.thresholds, ("detumble_exit_radps", "despin_exit_radps"), "mode.thresholds")

    if "sim" in data:
        section = data["sim"]
        allowed = ("name", "dt_s", "duration_s", "duration_orbits", "q0",
                   "q0_euler_deg", "omega0_radps", "omega0_rpm",
                   "wheel_momentum0_nms", "seed", "sun_inertial",
                   "dipole_tilt_deg", "enable_drag", "enable_srp",
                   "enable_gravity_gradient", "env_update_every_s",
                   "telemetry_cadence_s", "settle_band", "align_tolerance_deg",
                   "orbit_rate_coupling")
        _check_keys(section, allowed, "sim")
        if "q0" in section and "q0_euler_deg" in section:
            raise ConfigError("sim: give q0 or q0_euler_deg, not both")
        if "omega0_radps" in section and "omega0_rpm" in section:
            raise ConfigError("sim: give omega0_radps or omega0_rpm, not both")
        if "name" in section:
            updates["name"] = _require(section["name"], str, "sim.name")
        for key in ("dt_s", "duration_s", "duration_orbits", "wheel_momentum0_nms",
                    "dipole_tilt_deg", "env_update_every_s", "telemetry_cadence_s",
                    "settle_band", "align_tolerance_deg"):
            if key in section:
                updates[key] = _number(section[key], f"sim.{key}")
        if "duration_s" in section and "duration_orbits" not in section:
            # A plain seconds duration should not be shadowed by the preset's
            # orbit-based default.
            updates["duration_orbits"] = None
        if "q0" in section:
            q = _numbers(section["q0"], 4, "sim.q0")
            try:
                updates["q0"] = normalize_canonical(Quat(*q))
            except ValueError as exc:
                raise ConfigError(f"sim.q0: {exc}") from exc
        if "q0_euler_deg" in section:
            updates["q0"] = quat_from_euler(
                *_numbers(section["q0_euler_deg"], 3, "sim.q0_euler_deg"))
        if "omega0_radps" in section:
            updates["omega0_radps"] = Vec3(*_numbers(section["omega0_radps"], 3,
                                                     "sim.omega0_radps"))
        if "omega0_rpm" in section:
            w = _numbers(section["omega0_rpm"], 3, "sim.omega0_rpm")
            updates["omega0_radps"] = Vec3(w[0] * RPM_TO_RADPS, w[1] * RPM_TO_RADPS,
                                           w[2] * RPM_TO_RADPS)
        if "sun_inertial" in section:
            updates["sun_inertial"] = Vec3(*_numbers(section["sun_inertial"], 3,
                                                     "sim.sun_inertial"))
        if "seed" in section:
            seed = section["seed"]
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ConfigError(f"sim.seed: expected an integer, got {seed!r}")
            updates["seed"] = seed
        for key in ("enable_drag", "enable_srp", "enable_gravity_gradient",
                    "orbit_rate_coupling"):
            if key in section:
                updates[key] = _boolean(section[key], f"sim.{key}")

    if mode != "conops":
        updates.setdefault("schedule", ())
    try:
        return replace(s, **updates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def read_config(path) -> dict:
    """Parse a config file into its top-level JSON object."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return _require(data, dict, f"config file {path}")


def load_scenario(path) -> Scenario:
    """Load a scenario config file; catalog paths resolve relative to it."""
    return scenario_from_dict(read_config(path), config_dir=Path(path).parent)
