"""Command-line front end.

Subcommands::

    adcslab simulate    one closed-loop run -> telemetry CSV (+ SVG, + summary)
    adcslab inertia     mass/CG/inertia report, optional chamber-corner sweep
    adcslab montecarlo  seeded batch over regolith placement / initial rates
    adcslab conops      full mode sequence with scheduled commands

Precedence everywhere: command-line flags > config file > per-mode preset
defaults.  The environment variable ``ADCSLAB_SEED`` supplies a seed only when
neither a flag nor the config does.  Exit codes: 0 converged/success, 1 usage
or config error, 2 ran but did not converge (or diverged).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from pathlib import Path
from typing import Sequence

from .config import ConfigError, read_config, scenario_from_dict
from .control import Fidelity
from .harness import MODES, DivergenceError, Scenario, monte_carlo, run_scenario
from .massmodel import bundled_catalog, corner_envelope, load_catalog, mass_properties
from .svgplot import write_plot

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract reserves 2 for
    ran-but-did-not-converge, so remap usage problems to exit 1.

    argparse reads an argument that starts with ``-`` as an option unless
    the whole argument is a plain number.  Its negative-number pattern is
    widened here so that a comma triplet such as ``-42.9,10,5`` is read as a
    value too; no option of this CLI starts with ``-`` and a digit.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message: str):  # noqa: D401 - argparse override
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _flag_numbers(args, name: str, count: int) -> tuple[float, ...] | None:
    """The comma list of ``count`` numbers given to flag ``name``, if any."""
    text = getattr(args, name)
    if text is None:
        return None
    flag = "--" + name.replace("_", "-")
    parts = text.split(",")
    if len(parts) != count:
        words = {2: "two", 3: "three"}[count]
        raise ConfigError(f"{flag}: expected {words} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(part) for part in parts)
    except ValueError as exc:
        raise ConfigError(f"{flag}: non-numeric value in {text!r}") from exc


def _add_scenario_flags(p: argparse.ArgumentParser, with_mode: bool) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON scenario config")
    if with_mode:
        p.add_argument("--mode", choices=MODES, help="operating mode")
    p.add_argument("--dt", type=float, metavar="S", help="integrator step (s)")
    dur = p.add_mutually_exclusive_group()
    dur.add_argument("--duration-s", type=float, metavar="S", help="run length (s)")
    dur.add_argument("--duration-orbits", type=float, metavar="N",
                     help="run length (orbits)")
    p.add_argument("--fidelity", choices=[f.value for f in Fidelity],
                   help="actuator fidelity")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--omega0-rpm", metavar="X,Y,Z", help="initial body rates (RPM)")
    p.add_argument("--q0-euler-deg", metavar="R,P,Y",
                   help="initial attitude as 3-2-1 Euler angles (deg)")
    p.add_argument("--catalog", metavar="PATH", help="mass catalog JSON")
    place = p.add_mutually_exclusive_group()
    place.add_argument("--regolith", choices=["stowed", "sampled"],
                       help="regolith placement policy")
    place.add_argument("--regolith-cm", metavar="X,Y,Z",
                       help="fix the regolith at this chamber position (cm)")
    p.add_argument("--spin-rpm", type=float, metavar="RPM", help="spin-mode target")
    for name in ("drag", "srp", "gravity-gradient"):
        p.add_argument(f"--{name}", action=argparse.BooleanOptionalAction,
                       default=None, help=f"{name.replace('-', ' ')} disturbance")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="CSV", default="telemetry.csv",
                   help="telemetry CSV path (default: %(default)s)")
    p.add_argument("--plot", metavar="SVG", help="write an SVG time-history plot")
    p.add_argument("--summary", metavar="JSON", help="write the run summary JSON")
    p.add_argument("--quiet", action="store_true", help="suppress the stdout summary")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adcslab",
                     description="Deterministic CubeSat attitude-control simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario")
    _add_scenario_flags(p_sim, with_mode=True)
    _add_output_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate, forced_mode=None)

    p_con = sub.add_parser("conops", help="run the full mode sequence")
    _add_scenario_flags(p_con, with_mode=False)
    _add_output_flags(p_con)
    p_con.set_defaults(func=_cmd_simulate, forced_mode="conops", mode=None)

    p_in = sub.add_parser("inertia", help="mass properties report")
    p_in.add_argument("--catalog", metavar="PATH", help="mass catalog JSON (default: bundled)")
    p_in.add_argument("--regolith-cm", metavar="X,Y,Z",
                      help="place the regolith before computing (cm)")
    p_in.add_argument("--sweep-corners", action="store_true",
                      help="report the 8-corner CG/inertia envelope")
    p_in.add_argument("--json", action="store_true", help="machine-readable output")
    p_in.set_defaults(func=_cmd_inertia)

    p_mc = sub.add_parser("montecarlo", help="seeded scenario batch")
    _add_scenario_flags(p_mc, with_mode=True)
    p_mc.add_argument("--runs", type=int, default=10, metavar="N",
                      help="number of runs (default: %(default)s)")
    p_mc.add_argument("--workers", type=int, default=1, metavar="K",
                      help="process-pool size (default: %(default)s)")
    p_mc.add_argument("--vary", default="regolith", metavar="WHAT",
                      help="comma list of regolith,omega (default: %(default)s); "
                           "regolith draws each run's placement, so it takes no "
                           "--regolith or --regolith-cm")
    p_mc.add_argument("--omega-range", metavar="LO,HI",
                      help="uniform initial-rate range in RPM (with --vary omega)")
    p_mc.add_argument("--out", metavar="CSV", default="montecarlo.csv",
                      help="per-run results CSV (default: %(default)s)")
    p_mc.add_argument("--summary", metavar="JSON", help="write the batch summary JSON")
    p_mc.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    p_mc.set_defaults(func=_cmd_montecarlo, forced_mode=None)

    return parser


# ---------------------------------------------------------------------------
# Scenario construction (flags > config > defaults)
# ---------------------------------------------------------------------------

# A flag that sets one of these config keys replaces the other way of giving
# the same value.
_REPLACES = {"duration_s": "duration_orbits", "duration_orbits": "duration_s",
             "omega0_rpm": "omega0_radps", "q0_euler_deg": "q0",
             "regolith_policy": "regolith_position_cm", "regolith_position_cm": "regolith_policy"}


def _scenario(args) -> Scenario:
    """Lay the scenario flags over the config object (or over ``{}``) and
    build the scenario with the config reader."""
    data = read_config(args.config) if args.config else {}
    mode_section = data.get("mode")
    if (args.forced_mode and isinstance(mode_section, dict)
            and mode_section.get("mode", "conops") != "conops"):
        raise ConfigError("the conops command needs a conops config (mode.mode is "
                          f"{mode_section.get('mode')!r})")
    flags = {
        ("mode", "mode"): args.forced_mode or args.mode,
        ("mode", "fidelity"): args.fidelity,
        ("mode", "spin_target_rpm"): args.spin_rpm,
        ("mass", "catalog"): args.catalog and os.path.abspath(args.catalog),
        ("mass", "regolith_policy"): args.regolith,
        ("mass", "regolith_position_cm"): _flag_numbers(args, "regolith_cm", 3),
        ("sim", "dt_s"): args.dt,
        ("sim", "duration_s"): args.duration_s,
        ("sim", "duration_orbits"): args.duration_orbits,
        ("sim", "q0_euler_deg"): _flag_numbers(args, "q0_euler_deg", 3),
        ("sim", "omega0_rpm"): _flag_numbers(args, "omega0_rpm", 3),
        ("sim", "seed"): args.seed,
        ("sim", "enable_drag"): args.drag,
        ("sim", "enable_srp"): args.srp,
        ("sim", "enable_gravity_gradient"): args.gravity_gradient,
    }
    for (name, key), value in flags.items():
        section = data.setdefault(name, {})
        if value is not None and isinstance(section, dict):  # else the reader rejects it
            section[key] = value
            section.pop(_REPLACES.get(key), None)
    sim = data["sim"]
    if isinstance(sim, dict) and "seed" not in sim and "ADCSLAB_SEED" in os.environ:
        raw = os.environ["ADCSLAB_SEED"]
        if not (raw.isascii() and raw.isdigit()):  # int() takes " 7 ", "1_000" and "-4"
            raise ConfigError(f"ADCSLAB_SEED must be a non-negative integer written in "
                              f"digits only, got {raw!r}")
        sim["seed"] = int(raw)
    return scenario_from_dict(data, config_dir=Path(args.config).parent if args.config else None)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    scenario = _scenario(args)
    try:
        telemetry, result = run_scenario(scenario)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    telemetry.write_csv(args.out)
    if args.plot:
        write_plot(telemetry, args.plot, title=scenario.name)
    payload = json.dumps(result.to_dict(), indent=2)
    if args.summary:
        Path(args.summary).write_text(payload + "\n", encoding="utf-8")
    if not args.quiet:
        print(payload)
    return 0 if result.converged else 2


def _cmd_inertia(args) -> int:
    catalog = load_catalog(args.catalog) if args.catalog else bundled_catalog()
    if args.regolith_cm:
        catalog = catalog.with_regolith_at(_flag_numbers(args, "regolith_cm", 3))
    props = mass_properties(catalog)
    report: dict = {
        "catalog": catalog.name,
        "components": len(catalog.all_components),
        "total_mass_kg": props.total_mass_kg,
        "cg_cm": list(props.cg_cm),
        "inertia_kgm2": props.inertia_kgm2.tolist(),
        "degenerate": props.degenerate,
    }
    if args.sweep_corners:
        env = corner_envelope(catalog)
        report["corner_envelope"] = {
            "cg_min_cm": list(env.cg_min_cm),
            "cg_max_cm": list(env.cg_max_cm),
            "j_min_kgm2": env.j_min_kgm2.tolist(),
            "j_max_kgm2": env.j_max_kgm2.tolist(),
            "corners": [
                {"position_cm": list(corner), "cg_cm": list(p.cg_cm),
                 "inertia_kgm2": p.inertia_kgm2.tolist()}
                for corner, p in env.corners
            ],
        }
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(f"catalog:     {report['catalog']} ({report['components']} components)")
    print(f"total mass:  {props.total_mass_kg:.6g} kg")
    print(f"cg (cm):     [{props.cg_cm[0]:.6g}, {props.cg_cm[1]:.6g}, {props.cg_cm[2]:.6g}]")
    print("inertia about CG (kg m^2):")
    for row in props.inertia_kgm2:
        print("    [" + ", ".join(f"{v: .6e}" for v in row) + "]")
    if props.degenerate:
        print("note: collinear catalog; the inertia tensor is singular "
              "(simulations apply the configured principal-moment floor)")
    if args.sweep_corners:
        env_r = report["corner_envelope"]
        print("corner sweep over the payload chamber:")
        print(f"  cg min (cm): {env_r['cg_min_cm']}")
        print(f"  cg max (cm): {env_r['cg_max_cm']}")
        print("  J elementwise min (kg m^2):")
        for row in env_r["j_min_kgm2"]:
            print("    [" + ", ".join(f"{v: .6e}" for v in row) + "]")
        print("  J elementwise max (kg m^2):")
        for row in env_r["j_max_kgm2"]:
            print("    [" + ", ".join(f"{v: .6e}" for v in row) + "]")
    return 0


# Keys of RunResult.to_dict(), besides the member's index, its name and the
# regolith position split per axis, which _cmd_montecarlo adds to each row.
_MC_COLUMNS = ("index", "name", "converged", "detumble_time_orbits",
               "spin_settle_time_s", "despin_time_s", "align_time_s",
               "final_speed_radps", "max_wheel_momentum_nms",
               "regolith_x_cm", "regolith_y_cm", "regolith_z_cm", "error")


def _mc_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _cmd_montecarlo(args) -> int:
    vary = tuple(v.strip() for v in args.vary.split(",") if v.strip())
    if "regolith" in vary and (args.regolith or args.regolith_cm):
        flag = "--regolith" if args.regolith else "--regolith-cm"
        raise ConfigError(f"{flag} cannot be combined with --vary regolith, which draws "
                          "each run's placement; drop one of them")
    omega_range = _flag_numbers(args, "omega_range", 2)
    scenario = _scenario(args)
    seed = scenario.seed if scenario.seed is not None else 0
    mc = monte_carlo(scenario, args.runs, seed, vary=vary,
                     omega_rpm_range=omega_range, workers=args.workers)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_MC_COLUMNS)
        for i, r in enumerate(mc.results):
            row = r.to_dict()
            row.update(index=i, name=row["scenario"])
            row.update(zip(("regolith_x_cm", "regolith_y_cm", "regolith_z_cm"),
                           row["regolith_position_cm"] or (None, None, None)))
            writer.writerow([_mc_cell(row[c]) for c in _MC_COLUMNS])

    payload = json.dumps(mc.summary, indent=2)
    if args.summary:
        Path(args.summary).write_text(payload + "\n", encoding="utf-8")
    if not args.quiet:
        print(payload)
    return 0 if mc.summary["converged"] == mc.summary["runs"] else 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError and CatalogError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
