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

This is the one reader of outside input: the command line lays its scenario
flags over the config object and builds the scenario here too.  The scenario
itself is built on top of the per-mode preset defaults.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from pathlib import Path

from .control import Fidelity
from .environment import SpacecraftGeometry
from .harness import MODES, Scenario, default_scenario
from .massmodel import CatalogError, load_catalog, read_json_object, read_number, read_numbers
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


_number = partial(read_number, error=ConfigError)
_numbers = partial(read_numbers, error=ConfigError)


def _boolean(obj, where: str) -> bool:
    if not isinstance(obj, bool):
        raise ConfigError(f"{where}: expected true/false, got {obj!r}")
    return obj


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


def _simple_section(section: dict, build, allowed: tuple[str, ...], where: str):
    """``build(**section)`` for a section whose values are all numbers."""
    _check_keys(section, allowed, where)
    kwargs = {k: _number(v, f"{where}.{k}") for k, v in section.items()}
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _string(obj, where: str) -> str:
    return _require(obj, str, where)


def _vec3(obj, where: str) -> Vec3:
    return Vec3(*_numbers(obj, 3, where))


def _rpm(obj, where: str) -> Vec3:
    w = _numbers(obj, 3, where)
    return Vec3(w[0] * RPM_TO_RADPS, w[1] * RPM_TO_RADPS, w[2] * RPM_TO_RADPS)


def _quat(obj, where: str) -> Quat:
    try:
        return normalize_canonical(Quat(*_numbers(obj, 4, where)))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _euler(obj, where: str) -> Quat:
    return quat_from_euler(*_numbers(obj, 3, where))


def _seed(obj, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{where}: expected an integer, got {obj!r}")
    return obj


def _policy(obj, where: str) -> str:
    policy = _require(obj, str, where)
    if policy not in ("stowed", "fixed", "sampled"):
        raise ConfigError(f"{where}: unknown policy {policy!r}")
    return policy


def _fidelity(obj, where: str) -> Fidelity:
    raw = _require(obj, str, where)
    try:
        return Fidelity(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected 'ideal' or 'physical', got {raw!r}") from exc


def _schedule(obj, where: str) -> tuple[tuple[float, str], ...]:
    schedule = []
    for i, entry in enumerate(_require(obj, list, where)):
        _require(entry, (list, tuple), f"{where}[{i}]")
        if len(entry) != 2:
            raise ConfigError(f"{where}[{i}]: expected [time_s, command]")
        schedule.append((_number(entry[0], f"{where}[{i}][0]"),
                         _require(entry[1], str, f"{where}[{i}][1]")))
    return tuple(schedule)


# Sections whose keys are all numbers, with the keys each one accepts.
_NUMBER_SECTIONS = {
    "orbit": ("altitude_km", "inclination_deg", "raan_deg", "phase_deg"),
    "geometry": ("x_m", "y_m", "z_m", "drag_coefficient",
                 "specular_reflectance", "diffuse_reflectance"),
    "gains": ("kp", "kd", "k1", "k2"),
    "limits": ("max_dipole_am2", "max_magnetic_torque_nm",
               "max_wheel_torque_nm", "max_wheel_momentum_nms"),
}

# Section -> key -> (Scenario field, parser).  Two keys that set the same
# field are alternatives; a section may give only one of them.
_KEYS = {
    "mass": {
        "regolith_policy": ("regolith_policy", _policy),
        "regolith_position_cm": ("regolith_fixed_cm", _vec3),
        "min_principal_inertia_kgm2": ("min_principal_inertia_kgm2", _number),
    },
    "mode": {
        "fidelity": ("fidelity", _fidelity),
        "schedule": ("schedule", _schedule),
        "spin_target_rpm": ("spin_target_rpm", _number),
    },
    "sim": {
        "name": ("name", _string),
        "q0": ("q0", _quat),
        "q0_euler_deg": ("q0", _euler),
        "omega0_radps": ("omega0_radps", _vec3),
        "omega0_rpm": ("omega0_radps", _rpm),
        "sun_inertial": ("sun_inertial", _vec3),
        "seed": ("seed", _seed),
        **{key: (key, _number) for key in (
            "dt_s", "duration_s", "duration_orbits", "wheel_momentum0_nms",
            "dipole_tilt_deg", "env_update_every_s", "telemetry_cadence_s",
            "settle_band", "align_tolerance_deg")},
        **{key: (key, _boolean) for key in (
            "enable_drag", "enable_srp", "enable_gravity_gradient")},
    },
}


def _keyed_section(data: dict, name: str, special: tuple[str, ...] = ()) -> dict:
    """Scenario updates from section ``name``, read through ``_KEYS[name]``.

    The ``special`` keys are allowed too and left to the caller.
    """
    table = _KEYS[name]
    section = data.get(name, {})
    _check_keys(section, (*table, *special), name)
    given: dict = {}
    for key in section:
        if key in special:
            continue
        field = table[key][0]
        if field in given:
            first, second = sorted((given[field], key))
            raise ConfigError(f"{name}: give {first} or {second}, not both")
        given[field] = key
    return {field: table[key][1](section[key], f"{name}.{key}")
            for field, key in given.items()}


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
    mode = mode_section.get("mode", "detumble")
    if mode not in MODES:
        raise ConfigError(f"mode.mode: unknown mode {mode!r}")
    s = default_scenario(mode)

    updates: dict = {}
    for name, allowed in _NUMBER_SECTIONS.items():
        if name in data:
            build = (SpacecraftGeometry.box if name == "geometry"
                     else partial(replace, getattr(s, name)))
            updates[name] = _simple_section(data[name], build, allowed, name)

    updates.update(_keyed_section(data, "mass", special=("catalog",)))
    mass = data.get("mass", {})
    if "regolith_position_cm" in mass:  # a position alone means policy "fixed"
        if updates.setdefault("regolith_policy", "fixed") != "fixed":
            raise ConfigError("mass: regolith_position_cm needs regolith_policy 'fixed', "
                              f"got {updates['regolith_policy']!r}")
    if "catalog" in mass:
        path = Path(_require(mass["catalog"], str, "mass.catalog"))
        if config_dir is not None and not path.is_absolute():
            path = config_dir / path
        try:
            updates["catalog"] = load_catalog(path)
        except CatalogError as exc:
            raise ConfigError(f"mass.catalog: {exc}") from exc

    updates.update(_keyed_section(data, "mode", special=("mode", "thresholds")))
    if "thresholds" in mode_section:
        updates["thresholds"] = _simple_section(
            _require(mode_section["thresholds"], dict, "mode.thresholds"),
            partial(replace, s.thresholds),
            ("detumble_exit_radps", "despin_exit_radps"), "mode.thresholds")

    updates.update(_keyed_section(data, "sim"))
    sim = data.get("sim", {})
    if "duration_s" in sim:
        if "duration_orbits" in sim:
            raise ConfigError("sim: give duration_orbits or duration_s, not both")
        updates["duration_orbits"] = None  # else the preset's orbits would win

    try:
        return replace(s, **updates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def read_config(path) -> dict:
    """Parse a config file into its top-level JSON object."""
    return read_json_object(path, "config file", ConfigError)


def load_scenario(path) -> Scenario:
    """Load a scenario config file; catalog paths resolve relative to it."""
    return scenario_from_dict(read_config(path), config_dir=Path(path).parent)
