import argparse
import csv
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import adcslab
from adcslab.cli import build_parser, main
from adcslab.config import scenario_from_dict
from adcslab.harness import (
    MODES,
    TELEMETRY_COLUMNS,
    Scenario,
    default_scenario,
    monte_carlo,
    run_scenario,
)
from adcslab.massmodel import bundled_catalog, sample_regolith
from adcslab.svgplot import render_plot

SPIN = ["simulate", "--mode", "spin", "--quiet"]
# Gains this large drive the rates past the substep cap within a few steps.
RUNAWAY = {"mode": {"mode": "detumble"},
           "gains": {"kp": 1e20, "kd": 1e20},
           "limits": {"max_magnetic_torque_nm": 1e30},
           "sim": {"duration_s": 30.0, "omega0_rpm": [10.0, 0.0, 0.0]}}
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ADCSLAB_SEED", raising=False)
    return tmp_path


def _summary(tmp_path, argv):
    out = tmp_path / "summary.json"
    rc = main(argv + ["--summary", str(out)])
    return rc, json.loads(out.read_text())


# ------------------------------------------------------------- simulate

def test_simulate_writes_the_telemetry_csv(tmp_path):
    rc = main(SPIN + ["--out", "run.csv"])
    assert rc == 0
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0] == ",".join(TELEMETRY_COLUMNS)
    assert len(lines) == 602                       # header + one row per 0.1 s + final
    assert lines[1].startswith("0.0,1.0,0.0,0.0,0.0,")
    assert lines[1].endswith(",spin")


def test_repeated_runs_are_byte_identical(tmp_path):
    main(SPIN + ["--out", "a.csv"])
    main(SPIN + ["--out", "b.csv"])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_simulate_summary_json(tmp_path):
    rc, blob = _summary(tmp_path, SPIN + ["--out", "run.csv"])
    assert rc == 0
    assert blob["converged"] is True
    assert blob["scenario"] == "spin-default"
    assert blob["spin_settle_time_s"] < 10.0


def test_simulate_exit_2_when_not_converged():
    rc = main(["simulate", "--mode", "detumble", "--duration-s", "30",
               "--quiet", "--out", "run.csv"])
    assert rc == 2


def test_simulate_exit_2_on_divergence(tmp_path, capsys):
    (tmp_path / "runaway.json").write_text(json.dumps(RUNAWAY))
    rc = main(["simulate", "--config", "runaway.json", "--quiet", "--out", "run.csv"])
    assert rc == 2
    assert "diverged" in capsys.readouterr().err


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--mode", "warp"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["orbit"])
    assert exc.value.code == 1


def test_flag_parse_errors_return_1(capsys):
    assert main(["simulate", "--mode", "safe", "--omega0-rpm", "1,2"]) == 1
    assert "three comma-separated numbers" in capsys.readouterr().err
    assert main(["simulate", "--mode", "safe", "--omega0-rpm", "a,b,c"]) == 1


@pytest.mark.parametrize("flag, value", [
    ("--q0-euler-deg", "-42.9,10,5"),
    ("--omega0-rpm", "-1,2,0.5"),
    ("--regolith-cm", "-3,2,5"),
])
def test_vector_flags_take_a_negative_first_component(tmp_path, flag, value):
    """``--flag -1,2,3`` reads like ``--flag=-1,2,3``, not like an unknown option."""
    base = ["simulate", "--mode", "safe", "--duration-s", "1", "--quiet"]
    rc, split = _summary(tmp_path, base + [flag, value, "--out", "split.csv"])
    assert rc == 0
    _, joined = _summary(tmp_path, base + [f"{flag}={value}", "--out", "joined.csv"])
    _, plain = _summary(tmp_path, base + ["--out", "plain.csv"])
    assert split == joined != plain
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()


def test_config_error_paths_return_1(tmp_path, capsys):
    assert main(["simulate", "--config", "missing.json"]) == 1
    assert "cannot read" in capsys.readouterr().err
    (tmp_path / "bad.json").write_text("{oops")
    assert main(["simulate", "--config", "bad.json"]) == 1
    (tmp_path / "typo.json").write_text('{"gains": {"ki": 1}}')
    assert main(["simulate", "--config", "typo.json"]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_initial_state_flags(tmp_path):
    rc, blob = _summary(tmp_path, ["simulate", "--mode", "safe", "--duration-s", "10",
                                   "--omega0-rpm", "2,0,0", "--quiet",
                                   "--out", "run.csv"])
    assert rc == 0
    assert blob["final_speed_radps"] == pytest.approx(2 * 0.10471975511965977, rel=1e-3)


def test_flags_beat_config(tmp_path):
    cfg = {"mode": {"mode": "safe"}, "sim": {"duration_s": 20.0}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    rc, blob = _summary(tmp_path, ["simulate", "--config", "c.json", "--duration-s", "10",
                                   "--quiet", "--out", "run.csv"])
    assert rc == 0
    assert blob["duration_s"] == 10.0


def _safe_config(tmp_path, sim):
    (tmp_path / "c.json").write_text(json.dumps(
        {"mode": {"mode": "safe"}, "sim": {"duration_s": 1.0, **sim}}))
    return ["simulate", "--config", "c.json", "--quiet"]


@pytest.mark.parametrize("flag, value, sim", [
    ("--q0-euler-deg", "10,20,30", {"q0": [0, 1, 0, 0]}),
    ("--omega0-rpm", "2,0,0", {"omega0_radps": [0.0, 0.3, 0.0]}),
])
def test_vector_flags_replace_the_other_config_key(tmp_path, flag, value, sim):
    argv = [flag, value, "--out", "run.csv"]
    rc, both = _summary(tmp_path, _safe_config(tmp_path, sim) + argv)
    assert rc == 0
    _, flag_only = _summary(tmp_path, _safe_config(tmp_path, {}) + argv)
    _, config_only = _summary(tmp_path, _safe_config(tmp_path, sim) + ["--out", "run.csv"])
    assert both == flag_only != config_only


def test_seconds_flag_replaces_the_config_orbits(tmp_path):
    cfg = {"mode": {"mode": "safe"}, "sim": {"duration_orbits": 1.0}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    rc, blob = _summary(tmp_path, ["simulate", "--config", "c.json", "--duration-s", "3",
                                   "--quiet", "--out", "run.csv"])
    assert rc == 0
    assert blob["duration_s"] == 3.0


def test_orbits_flag_replaces_the_config_seconds(tmp_path):
    cfg = {"mode": {"mode": "safe"}, "sim": {"duration_s": 100.0}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    rc, blob = _summary(tmp_path, ["simulate", "--config", "c.json", "--duration-orbits",
                                   "0.001", "--quiet", "--out", "run.csv"])
    assert rc == 0
    assert blob["duration_s"] == 0.001 * blob["orbit_period_s"]


def test_the_two_placement_flags_exclude_each_other(capsys):
    with pytest.raises(SystemExit) as exited:
        main(SPIN + ["--regolith", "sampled", "--seed", "3", "--regolith-cm", "1,1,1",
                     "--out", "run.csv"])
    assert exited.value.code == 1
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("mass, flags, expected", [
    ({"regolith_policy": "sampled"}, ["--regolith-cm", "1,1,1"], [1.0, 1.0, 1.0]),
    ({"regolith_policy": "fixed", "regolith_position_cm": [1, 1, 1]},
     ["--regolith", "stowed"], [0.0, 0.0, 14.0]),
    ({"regolith_position_cm": [1, 1, 1]}, ["--regolith", "sampled"], None),
])
def test_a_placement_flag_replaces_the_config_placement(tmp_path, mass, flags, expected):
    (tmp_path / "c.json").write_text(json.dumps(
        {"mode": {"mode": "safe"}, "mass": mass, "sim": {"duration_s": 1.0, "seed": 3}}))
    rc, blob = _summary(tmp_path, ["simulate", "--config", "c.json", *flags, "--quiet",
                                   "--out", "run.csv"])
    assert rc == 0
    if expected is None:  # sampled: the seeded draw, not the config's position
        expected = list(sample_regolith(bundled_catalog().chamber, np.random.default_rng(3)))
    assert blob["regolith_position_cm"] == expected


def test_catalog_flag_resolves_against_the_working_directory(tmp_path):
    """A config's ``mass.catalog`` resolves against the config's folder, a
    ``--catalog`` flag against the current directory."""
    bundled = resources.files("adcslab.data").joinpath("aosat1_mass_catalog.json")
    (tmp_path / "cat.json").write_text(bundled.read_text("utf-8"))
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "cat.json").write_text("{not json")
    (tmp_path / "sub" / "c.json").write_text(json.dumps(
        {"mode": {"mode": "safe"}, "sim": {"duration_s": 1.0}}))
    rc = main(["simulate", "--config", "sub/c.json", "--catalog", "cat.json",
               "--quiet", "--out", "run.csv"])
    assert rc == 0


def test_flags_over_a_malformed_config_section_return_1(tmp_path, capsys):
    (tmp_path / "c.json").write_text(json.dumps({"sim": 5}))
    assert main(["simulate", "--config", "c.json", "--dt", "0.1", "--quiet",
                 "--out", "run.csv"]) == 1
    assert "sim: expected dict" in capsys.readouterr().err


def test_plot_writes_valid_svg(tmp_path):
    rc = main(SPIN + ["--out", "run.csv", "--plot", "run.svg"])
    assert rc == 0
    root = ET.parse(tmp_path / "run.svg").getroot()
    assert root.tag.endswith("svg")
    assert len(list(root.iter())) > 10


def test_plot_title_is_escaped():
    tel, _ = run_scenario(Scenario(mode="safe", duration_s=1.0))
    svg = render_plot(tel, title='R&D <spin> "a"')
    assert '>R&amp;D &lt;spin&gt; "a"</text>' in svg
    titles = [e.text for e in ET.fromstring(svg).iter() if e.tag.endswith("text")]
    assert 'R&D <spin> "a"' in titles


def test_disturbance_toggle_flags_parse():
    args = build_parser().parse_args(["simulate", "--no-drag", "--srp"])
    assert args.drag is False and args.srp is True and args.gravity_gradient is None


# ------------------------------------------------------------- seeding

def test_env_seed_fills_in_when_flags_and_config_are_silent(tmp_path, monkeypatch):
    argv = ["simulate", "--mode", "safe", "--duration-s", "5",
            "--regolith", "sampled", "--quiet", "--out", "run.csv"]
    monkeypatch.setenv("ADCSLAB_SEED", "123")
    _, first = _summary(tmp_path, argv)
    _, again = _summary(tmp_path, argv)
    monkeypatch.setenv("ADCSLAB_SEED", "456")
    _, other = _summary(tmp_path, argv)
    assert first["regolith_position_cm"] == again["regolith_position_cm"]
    assert first["regolith_position_cm"] != other["regolith_position_cm"]


def test_seed_flag_beats_the_environment(tmp_path, monkeypatch):
    argv = ["simulate", "--mode", "safe", "--duration-s", "5",
            "--regolith", "sampled", "--quiet", "--out", "run.csv"]
    monkeypatch.setenv("ADCSLAB_SEED", "456")
    _, with_env = _summary(tmp_path, argv + ["--seed", "123"])
    monkeypatch.delenv("ADCSLAB_SEED")
    _, without = _summary(tmp_path, argv + ["--seed", "123"])
    assert with_env["regolith_position_cm"] == without["regolith_position_cm"]


def test_sampled_regolith_without_any_seed_fails(capsys):
    rc = main(["simulate", "--mode", "safe", "--duration-s", "5",
               "--regolith", "sampled", "--quiet", "--out", "run.csv"])
    assert rc == 1
    assert "seed" in capsys.readouterr().err


def test_bad_env_seed_returns_1(monkeypatch, capsys):
    monkeypatch.setenv("ADCSLAB_SEED", "lucky")
    rc = main(["simulate", "--mode", "safe", "--duration-s", "5",
               "--regolith", "sampled", "--quiet", "--out", "run.csv"])
    assert rc == 1
    assert "ADCSLAB_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["-4", "1_000", " 7 ", "+7", "٣", ""])
def test_env_seed_must_be_plain_digits(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("ADCSLAB_SEED", raw)
    rc = main(["simulate", "--mode", "safe", "--duration-s", "2", "--out", "s.csv", "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ADCSLAB_SEED" in err and repr(raw) in err
    assert not (tmp_path / "s.csv").exists()


# ------------------------------------------------------------- conops

def test_conops_command_runs_a_scheduled_sequence(tmp_path):
    cfg = {"mode": {"mode": "conops", "schedule": [[30.0, "spin"], [45.0, "despin"]]},
           "sim": {"duration_s": 120.0, "omega0_rpm": [0.05, 0.05, 0.05]}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    rc, blob = _summary(tmp_path, ["conops", "--config", "c.json", "--quiet",
                                   "--out", "run.csv"])
    assert rc == 0
    assert [m for _, m in blob["transitions"]] == \
        ["detumble", "nominal", "spin", "despin", "nominal"]


def test_the_readme_conops_config_converges(tmp_path):
    """The README's minimal conops run walks the whole mode sequence and is
    back in nominal pointing before it ends."""
    after = README.read_text(encoding="utf-8").split("A minimal conops run", 1)[1]
    (tmp_path / "conops.json").write_text(after.split("```json", 1)[1].split("```", 1)[0])
    rc, blob = _summary(tmp_path, ["simulate", "--config", "conops.json", "--quiet",
                                   "--out", "run.csv"])
    assert rc == 0
    assert blob["final_mode"] == "nominal"
    assert [m for _, m in blob["transitions"]] == [
        "detumble", "nominal", "spin", "despin", "nominal"]


def test_conops_command_rejects_non_conops_configs(tmp_path, capsys):
    (tmp_path / "c.json").write_text(json.dumps({"mode": {"mode": "spin"}}))
    rc = main(["conops", "--config", "c.json", "--quiet", "--out", "run.csv"])
    assert rc == 1
    assert "conops config" in capsys.readouterr().err


# ------------------------------------------------------------- inertia

def test_inertia_report_for_the_bundled_stack(capsys):
    assert main(["inertia"]) == 0
    out = capsys.readouterr().out
    assert "2.97" in out
    assert "collinear" in out            # stowed stack is degenerate about z


def test_inertia_json_report(capsys):
    assert main(["inertia", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["total_mass_kg"] == pytest.approx(2.97, abs=1e-12)
    assert blob["cg_cm"][2] == pytest.approx(-0.7909090909090909, abs=1e-12)
    assert blob["degenerate"] is True
    assert blob["components"] == len(bundled_catalog().all_components)


def test_inertia_with_moved_regolith(capsys):
    assert main(["inertia", "--json", "--regolith-cm", "0,0,0"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["cg_cm"][2] == pytest.approx(-1.9693602693602683, rel=1e-9)
    assert blob["degenerate"] is True    # every component sits on the z axis regardless


def test_inertia_rejects_regolith_outside_the_chamber(capsys):
    assert main(["inertia", "--regolith-cm", "100,0,-50"]) == 1
    assert "outside the payload chamber" in capsys.readouterr().err


def test_inertia_corner_sweep(capsys):
    assert main(["inertia", "--json", "--sweep-corners"]) == 0
    blob = json.loads(capsys.readouterr().out)
    env = blob["corner_envelope"]
    assert len(env["corners"]) == 8
    assert all(lo <= hi for lo, hi in zip(env["cg_min_cm"], env["cg_max_cm"]))


def test_inertia_corner_sweep_text_prints_plain_numbers(capsys):
    assert main(["inertia", "--json", "--sweep-corners"]) == 0
    env = json.loads(capsys.readouterr().out)["corner_envelope"]
    assert main(["inertia", "--sweep-corners"]) == 0
    out = capsys.readouterr().out
    assert "np." not in out
    assert f"  cg min (cm): {env['cg_min_cm']}\n" in out
    assert f"  cg max (cm): {env['cg_max_cm']}\n" in out


def test_inertia_flags_degenerate_custom_catalogs(tmp_path, capsys):
    catalog = {"name": "point", "chamber_cm": {"x": [-1, 1], "y": [-1, 1], "z": [0, 1]},
               "components": [{"name": "only", "mass_kg": 1.0, "position_cm": [0, 0, 0]}]}
    (tmp_path / "point.json").write_text(json.dumps(catalog))
    assert main(["inertia", "--json", "--catalog", "point.json"]) == 0
    assert json.loads(capsys.readouterr().out)["degenerate"] is True


def test_inertia_missing_catalog_returns_1(capsys):
    assert main(["inertia", "--catalog", "nope.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


# ------------------------------------------------------------- montecarlo

MC = ["montecarlo", "--mode", "spin", "--runs", "3", "--seed", "1", "--quiet"]


def test_montecarlo_csv_and_summary(tmp_path):
    out = tmp_path / "mc.json"
    rc = main(MC + ["--out", "mc.csv", "--summary", str(out)])
    assert rc == 0
    lines = (tmp_path / "mc.csv").read_text().splitlines()
    assert lines[0].startswith("index,name,converged,")
    assert len(lines) == 4
    blob = json.loads(out.read_text())
    assert blob["runs"] == 3 and blob["converged"] == 3
    assert blob["metrics"]["spin_settle_time_s"]["count"] == 3


def _mc_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("config", [{"mode": {"mode": "spin"}}, RUNAWAY],
                         ids=["clean", "diverging"])
def test_montecarlo_csv_cells_match_each_members_result(tmp_path, config):
    """Every cell, read by its column name, is the field of the member's
    RunResult: floats as repr, None as an empty cell, booleans in lower case."""
    (tmp_path / "c.json").write_text(json.dumps(config))
    rc = main(["montecarlo", "--config", "c.json", "--runs", "3", "--seed", "2", "--quiet",
               "--out", "mc.csv"])
    base = scenario_from_dict({**config, "sim": {**config.get("sim", {}), "seed": 2}})
    results = monte_carlo(base, 3, 2, vary=("regolith",)).results
    assert rc == (0 if config is not RUNAWAY else 2)
    with open(tmp_path / "mc.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    metrics = ("detumble_time_orbits", "spin_settle_time_s", "despin_time_s",
               "align_time_s", "final_speed_radps", "max_wheel_momentum_nms")
    regolith = ("regolith_x_cm", "regolith_y_cm", "regolith_z_cm")
    assert reader.fieldnames == ["index", "name", "converged", *metrics, *regolith, "error"]
    assert len(rows) == len(results) == 3
    for i, (row, r) in enumerate(zip(rows, results)):
        assert row["index"] == str(i)
        assert row["name"] == r.scenario_name == f"{base.name}[{i}]"
        assert row["converged"] == _mc_cell(r.converged)
        for name in metrics:
            assert row[name] == _mc_cell(getattr(r, name)), name
        position = r.regolith_position_cm or (None, None, None)
        assert [row[name] for name in regolith] == [_mc_cell(v) for v in position]
        assert row["error"] == _mc_cell(r.error)
    if config is RUNAWAY:
        assert all(row["error"].startswith("state diverged") for row in rows)
        assert all(row["converged"] == "false" and row["detumble_time_orbits"] == ""
                   for row in rows)
    else:
        assert all(row["error"] == "" for row in rows)


def test_montecarlo_worker_count_does_not_change_results(tmp_path):
    main(MC + ["--out", "w1.csv", "--workers", "1"])
    main(MC + ["--out", "w2.csv", "--workers", "2"])
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


def test_montecarlo_varies_initial_rates(tmp_path):
    rc = main(["montecarlo", "--mode", "safe", "--duration-s", "5",
               "--runs", "2", "--seed", "3", "--vary", "omega",
               "--omega-range", "0.5,1.5", "--quiet", "--out", "mc.csv"])
    assert rc == 0
    rows = (tmp_path / "mc.csv").read_text().splitlines()[1:]
    speeds = {row.split(",")[7] for row in rows}
    assert len(speeds) == 2                        # each run drew its own rate


def test_montecarlo_flag_validation(capsys):
    assert main(MC[:-1] + ["--runs", "0", "--quiet", "--out", "mc.csv"]) == 1
    assert main(MC + ["--workers", "0", "--out", "mc.csv"]) == 1
    assert "workers" in capsys.readouterr().err
    assert main(MC + ["--vary", "omega", "--out", "mc.csv"]) == 1
    assert "omega_rpm_range" in capsys.readouterr().err
    assert main(MC + ["--omega-range", "1", "--vary", "omega", "--out", "mc.csv"]) == 1


def test_montecarlo_rejects_a_negative_seed(tmp_path, capsys):
    """The seed is checked when the scenario is built, and the error names it."""
    argv = ["montecarlo", "--mode", "spin", "--runs", "2", "--seed", "-1", "--quiet"]
    assert main(argv + ["--out", "mc.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert not (tmp_path / "mc.csv").exists()


@pytest.mark.parametrize("flags", [
    ["--omega-range", "1,2"],                                  # without --vary omega
    ["--vary", "omega", "--omega-range", "nan,1"],
    ["--vary", "omega", "--omega-range=-1e308,1e308"],
    ["--vary", "omega", "--omega-range", "5,1"],
])
def test_montecarlo_rejects_a_bad_omega_range(flags, capsys):
    assert main(MC + flags + ["--out", "mc.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "omega_rpm_range" in err


@pytest.mark.parametrize("flags", [
    ["--regolith-cm", "1,1,1"],
    ["--regolith", "stowed"],
    ["--regolith", "sampled", "--vary", "omega,regolith", "--omega-range=-1,1"],
])
def test_montecarlo_rejects_a_placement_under_vary_regolith(flags, tmp_path, capsys):
    """--vary regolith (the default) draws each member's placement, so a
    placement flag would be dropped; it is refused before any run."""
    assert main(MC + flags + ["--out", "mc.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--vary regolith" in err
    assert not (tmp_path / "mc.csv").exists()


def test_montecarlo_keeps_a_placement_when_it_varies_only_the_rates(tmp_path):
    rc = main(["montecarlo", "--mode", "spin", "--duration-s", "2", "--runs", "2",
               "--regolith-cm", "1,1,1", "--vary", "omega", "--omega-range", "0,0.5",
               "--quiet", "--out", "mc.csv"])
    assert rc in (0, 2)
    rows = (tmp_path / "mc.csv").read_text().splitlines()[1:]
    assert [row.split(",")[9:12] for row in rows] == [["1.0", "1.0", "1.0"]] * 2


# ------------------------------------------------------------- parser plumbing

def _mode_choices(command: str):
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in commands.choices[command]._actions if a.dest == "mode")


def test_every_mode_list_is_harness_modes():
    """The CLI choices, the config reader, Scenario and the presets all take
    exactly the modes of harness.MODES."""
    assert MODES == ("detumble", "nominal", "spin", "despin", "safe", "conops")
    assert tuple(_mode_choices("simulate")) == tuple(_mode_choices("montecarlo")) == MODES
    for mode in MODES:
        assert scenario_from_dict({"mode": {"mode": mode}}).mode == mode
        assert Scenario(mode=mode).mode == mode
        assert default_scenario(mode).mode == mode
    with pytest.raises(ValueError, match=re.escape(str(sorted(MODES)))):
        default_scenario("cruise")
    for unknown in ("cruise", "DETUMBLE", ""):
        with pytest.raises(ValueError, match="unknown mode"):
            scenario_from_dict({"mode": {"mode": unknown}})
        with pytest.raises(ValueError, match="unknown mode"):
            Scenario(mode=unknown)


def test_an_unknown_schedule_command_names_the_allowed_ones():
    for command in ("detumble", "cruise"):
        with pytest.raises(ValueError, match="unknown schedule command") as exc:
            Scenario(mode="conops", schedule=((10.0, command),))
        allowed = re.findall(r"'(\w+)'", str(exc.value).split("expected one of")[1])
        assert sorted(allowed) == ["despin", "nominal", "safe", "spin"]


def test_parser_defaults():
    args = build_parser().parse_args(["simulate"])
    assert args.out == "telemetry.csv" and args.mode is None
    args = build_parser().parse_args(["montecarlo"])
    assert args.vary == "regolith" and args.runs == 10


# ------------------------------------------------------------- import cost

def test_importing_the_cli_loads_no_network_or_process_modules():
    """Every command imports ``adcslab.cli``; a fresh interpreter shows
    what that alone loads.  Worker processes are imported only when a Monte
    Carlo asks for them."""
    src = str(Path(adcslab.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    heavy = ("urllib.request", "http.client", "ssl", "email", "multiprocessing",
             "concurrent.futures.process")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, adcslab.cli; "
         f"print(','.join(m for m in {heavy!r} if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# ------------------------------------------------------------- hash seed

@pytest.mark.parametrize("argv", [
    ["conops", "--duration-s", "600"],
    ["montecarlo", "--mode", "spin", "--duration-s", "5", "--runs", "3", "--seed", "4",
     "--vary", "regolith,omega", "--omega-range=-1,1", "--workers", "2"],
], ids=["conops", "montecarlo"])
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, argv):
    """String hashes are salted per interpreter, and in-process tests and
    forked workers share one salt, so each run gets a fresh interpreter."""
    src = str(Path(adcslab.__file__).resolve().parent.parent)
    outputs = []
    for hash_seed in ("1", "2"):
        run_dir = tmp_path / f"hash-seed-{hash_seed}"
        run_dir.mkdir()
        env = {k: v for k, v in os.environ.items() if k != "ADCSLAB_SEED"}
        env.update(PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from adcslab.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv,
             "--out", "out.csv", "--summary", "out.json", "--quiet"],
            cwd=run_dir, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode in (0, 2), proc.stderr
        outputs.append(((run_dir / "out.csv").read_bytes(), (run_dir / "out.json").read_bytes()))
    assert outputs[0] == outputs[1]
