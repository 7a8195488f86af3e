import json
import math
import re
from pathlib import Path

import pytest

from adcslab.config import ConfigError, load_scenario, scenario_from_dict
from adcslab.control import Fidelity
from adcslab.quatmath import RPM_TO_RADPS, Vec3


def test_empty_config_is_the_detumble_preset():
    s = scenario_from_dict({})
    assert s.mode == "detumble"
    assert s.duration_orbits == 9.0


def test_sections_override_preset_fields():
    s = scenario_from_dict({
        "mode": {"mode": "spin", "fidelity": "physical", "spin_target_rpm": 2.0},
        "orbit": {"altitude_km": 500.0, "inclination_deg": 97.0},
        "gains": {"kp": 1e-4},
        "limits": {"max_wheel_torque_nm": 2e-3},
        "sim": {"name": "my-run", "dt_s": 0.05, "omega0_rpm": [1.0, 0.0, 0.0]},
    })
    assert s.mode == "spin" and s.name == "my-run"
    assert s.fidelity is Fidelity.PHYSICAL
    assert s.spin_target_rpm == 2.0
    assert s.orbit.altitude_km == 500.0 and s.orbit.inclination_deg == 97.0
    assert s.gains.kp == 1e-4 and s.gains.kd == 9e-3      # untouched field keeps default
    assert s.limits.max_wheel_torque_nm == 2e-3
    assert s.dt_s == 0.05
    assert s.omega0_radps == pytest.approx((RPM_TO_RADPS, 0.0, 0.0))


def test_unknown_section_is_rejected_with_its_name():
    with pytest.raises(ConfigError, match="config: unknown key.*thrusters"):
        scenario_from_dict({"thrusters": {}})


def test_unknown_key_is_rejected_with_its_path():
    with pytest.raises(ConfigError, match="gains: unknown key.*ki"):
        scenario_from_dict({"gains": {"ki": 1e-3}})
    with pytest.raises(ConfigError, match="sim.dt_s"):
        scenario_from_dict({"sim": {"dt_s": "fast"}})


def test_mode_must_be_known():
    with pytest.raises(ConfigError, match="unknown mode"):
        scenario_from_dict({"mode": {"mode": "cruise"}})


def test_fidelity_string_is_validated():
    with pytest.raises(ConfigError, match="ideal.*physical"):
        scenario_from_dict({"mode": {"fidelity": "quantum"}})


def test_duplicate_attitude_or_rate_keys_are_rejected():
    with pytest.raises(ConfigError, match="q0 or q0_euler_deg"):
        scenario_from_dict({"sim": {"q0": [1, 0, 0, 0], "q0_euler_deg": [0, 0, 0]}})
    with pytest.raises(ConfigError, match="omega0_radps or omega0_rpm"):
        scenario_from_dict({"sim": {"omega0_radps": [0, 0, 0], "omega0_rpm": [0, 0, 0]}})
    with pytest.raises(ConfigError, match="q0 or q0_euler_deg"):
        scenario_from_dict({"sim": {"q0_euler_deg": [0, 0, 0], "q0": [1, 0, 0, 0]}})


def test_q0_is_normalized():
    s = scenario_from_dict({"sim": {"q0": [2.0, 0.0, 0.0, 0.0]}})
    assert s.q0 == (1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ConfigError, match="sim.q0"):
        scenario_from_dict({"sim": {"q0": [0.0, 0.0, 0.0, 0.0]}})


def test_plain_seconds_duration_clears_the_preset_orbits():
    s = scenario_from_dict({"sim": {"duration_s": 100.0}})
    assert s.duration_orbits is None
    assert s.resolved_duration_s() == 100.0


def test_a_config_gives_one_duration():
    with pytest.raises(ConfigError, match="duration_orbits or duration_s"):
        scenario_from_dict({"sim": {"duration_s": 100.0, "duration_orbits": 2.0}})


def test_schedule_parses_and_is_conops_only():
    s = scenario_from_dict({"mode": {"mode": "conops",
                                     "schedule": [[10.0, "spin"], [20.0, "despin"]]}})
    assert s.schedule == ((10.0, "spin"), (20.0, "despin"))
    with pytest.raises(ConfigError, match="conops"):
        scenario_from_dict({"mode": {"mode": "spin", "schedule": [[10.0, "despin"]]}})
    with pytest.raises(ConfigError, match="mode.schedule\\[0\\]"):
        scenario_from_dict({"mode": {"mode": "conops", "schedule": [[10.0]]}})


def test_thresholds_and_booleans():
    s = scenario_from_dict({
        "mode": {"mode": "conops", "thresholds": {"detumble_exit_radps": 0.02}},
        "sim": {"enable_srp": False, "enable_drag": True},
    })
    assert s.thresholds.detumble_exit_radps == 0.02
    assert s.thresholds.despin_exit_radps == 1e-3
    assert s.enable_srp is False and s.enable_drag is True
    with pytest.raises(ConfigError, match="expected true/false"):
        scenario_from_dict({"sim": {"enable_drag": 1}})


def test_thresholds_must_be_positive_and_finite():
    for bad in ({"detumble_exit_radps": -1.0}, {"despin_exit_radps": 0}):
        with pytest.raises(ConfigError, match="mode.thresholds"):
            scenario_from_dict({"mode": {"mode": "conops", "thresholds": bad}})


def test_seed_must_be_an_integer():
    assert scenario_from_dict({"sim": {"seed": 7}}).seed == 7
    with pytest.raises(ConfigError, match="sim.seed"):
        scenario_from_dict({"sim": {"seed": True}})
    with pytest.raises(ConfigError, match="sim.seed"):
        scenario_from_dict({"sim": {"seed": 3.5}})


def test_geometry_section_builds_a_box():
    s = scenario_from_dict({"geometry": {"x_m": 0.2, "y_m": 0.2, "z_m": 0.2}})
    assert sorted(f.area_m2 for f in s.geometry.faces) == pytest.approx([0.04] * 6)
    with pytest.raises(ConfigError, match="geometry"):
        scenario_from_dict({"geometry": {"x_m": -1.0}})


@pytest.mark.parametrize("geometry", [{"drag_coefficient": math.nan}, {"x_m": math.inf}])
def test_geometry_section_rejects_non_finite_values(geometry):
    with pytest.raises(ConfigError, match="geometry"):
        scenario_from_dict({"geometry": geometry})


def test_invalid_combinations_surface_as_config_errors():
    with pytest.raises(ConfigError, match="regolith_fixed_cm"):
        scenario_from_dict({"mass": {"regolith_policy": "fixed"}})
    with pytest.raises(ConfigError, match="unknown policy"):
        scenario_from_dict({"mass": {"regolith_policy": "floating"}})


def test_a_regolith_position_alone_fixes_the_regolith_there():
    s = scenario_from_dict({"mass": {"regolith_position_cm": [1, 1, 1]}})
    assert (s.regolith_policy, s.regolith_fixed_cm) == ("fixed", Vec3(1.0, 1.0, 1.0))


@pytest.mark.parametrize("policy", ["stowed", "sampled"])
def test_a_regolith_position_needs_the_fixed_policy(policy):
    with pytest.raises(ConfigError, match="regolith_position_cm needs regolith_policy 'fixed'"):
        scenario_from_dict({"mass": {"regolith_policy": policy,
                                     "regolith_position_cm": [1, 1, 1]}, "sim": {"seed": 3}})


def test_the_position_rule_reads_only_the_keys_the_config_gives():
    """The spin preset's own fixed position does not stop a config policy."""
    s = scenario_from_dict({"mode": {"mode": "spin"}, "mass": {"regolith_policy": "sampled"},
                            "sim": {"seed": 3}})
    assert (s.regolith_policy, s.regolith_fixed_cm) == ("sampled", Vec3(0.0, 0.0, 0.0))


def test_catalog_path_resolves_relative_to_the_config(tmp_path):
    catalog = {
        "name": "test-stack",
        "chamber_cm": {"x": [-1, 1], "y": [-1, 1], "z": [0, 2]},
        "components": [
            {"name": "a", "mass_kg": 1.0, "position_cm": [0, 0, -3]},
            {"name": "b", "mass_kg": 1.0, "position_cm": [1, 0, 3]},
        ],
        "regolith": {"name": "r", "mass_kg": 0.1, "position_cm": [0, 0, 1]},
    }
    (tmp_path / "stack.json").write_text(json.dumps(catalog))
    config = {"mass": {"catalog": "stack.json"}, "sim": {"duration_s": 10.0}}
    (tmp_path / "run.json").write_text(json.dumps(config))
    s = load_scenario(tmp_path / "run.json")
    assert s.catalog is not None and s.catalog.name == "test-stack"


def test_load_scenario_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(bad)
    top = tmp_path / "top.json"
    top.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="expected dict"):
        load_scenario(top)


def test_the_readme_config_example_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Scenario configs.*?```json\n(.*?)```", readme, re.S).group(1)
    s = scenario_from_dict(json.loads(block))
    assert s.mode == "conops" and s.regolith_policy == "sampled" and s.seed == 11
