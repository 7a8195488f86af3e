"""Print the golden-output table: SHA-256 of each reference run's outputs.

Each row names one run and gives the SHA-256 of its telemetry CSV and of
its summary JSON, ``json.dumps(result.to_dict(), indent=2)``.  Command-line
rows hash the ``--out`` and ``--summary`` files that ``adcslab`` writes;
Monte Carlo rows hash ``json.dumps(mc.to_dict(), indent=2)`` and have no
CSV.  A refactor that claims "no output byte changed" prints the same table
before and after.

The hashes are only stable on one machine: the runs call the C library's
``sin``, ``cos``, ``atan2``, ``asin``, ``acos`` and ``exp``, and its ``pow``
for the ``** 3`` and ``** 5`` in ``environment``, whose last-bit rounding
differs between libm builds.

Usage:
    PYTHONPATH=src python3 scripts/golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile

from adcslab.cli import main as cli_main
from adcslab.control import Fidelity
from adcslab.harness import default_scenario, monte_carlo, run_scenario

# The README's minimal conops config.
README_CONFIG = {
    "mode": {"mode": "conops", "schedule": [[8317.0, "spin"], [9427.0, "despin"]]},
    "mass": {"regolith_policy": "sampled"},
    "sim": {"duration_orbits": 2.0, "omega0_rpm": [5.0, 5.0, 5.0], "seed": 11},
}

LIBRARY_RUNS = (
    ("detumble", "detumble", {}),
    ("nominal", "nominal", {}),
    ("spin", "spin", {}),
    ("despin", "despin", {}),
    ("safe", "safe", {}),
    ("conops", "conops", {}),
    ("detumble, physical", "detumble", {"fidelity": Fidelity.PHYSICAL}),
    ("spin, physical", "spin", {"fidelity": Fidelity.PHYSICAL}),
    ("despin, physical", "despin", {"fidelity": Fidelity.PHYSICAL}),
    ("conops, physical", "conops", {"fidelity": Fidelity.PHYSICAL}),
    ('spin, `regolith_policy="sampled"`, seed 7', "spin",
     {"regolith_policy": "sampled", "seed": 7}),
    ("nominal, sampled, seed 123, 0.5 orbit", "nominal",
     {"regolith_policy": "sampled", "seed": 123, "duration_orbits": 0.5}),
)

# Arguments after the subcommand; "config.json" is README_CONFIG.
CLI_RUNS = (
    ("simulate", "--config", "config.json"),
    ("conops", "--config", "config.json", "--dt", "0.2"),
    ("simulate", "--mode", "nominal", "--q0-euler-deg=-42.9,10,5", "--omega0-rpm=-1,2,0.5",
     "--duration-orbits", "0.3", "--fidelity", "physical"),
    ("simulate", "--mode", "spin", "--regolith-cm=-3,2,5"),
    ("montecarlo", "--mode", "spin", "--runs", "4", "--vary", "regolith,omega",
     "--omega-range=-1,1", "--seed", "3"),
)


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def library_row(mode: str, overrides: dict) -> tuple[str, str]:
    telemetry, result = run_scenario(default_scenario(mode, **overrides))
    csv = io.StringIO()
    telemetry.to_csv(csv)
    return sha256(csv.getvalue()), sha256(json.dumps(result.to_dict(), indent=2))


def cli_row(args: tuple[str, ...], workdir: str) -> tuple[str, str]:
    out, summary = (os.path.join(workdir, name) for name in ("out.csv", "summary.json"))
    cli_main([*args, "--out", out, "--summary", summary, "--quiet"])
    with open(out, "rb") as fh_out, open(summary, "rb") as fh_summary:
        return sha256(fh_out.read()), sha256(fh_summary.read())


def monte_carlo_hash(base, n_runs: int, seed: int, **kwargs) -> str:
    return sha256(json.dumps(monte_carlo(base, n_runs, seed, **kwargs).to_dict(), indent=2))


def main() -> None:
    print("| run | CSV | JSON |")
    print("|---|---|---|")
    for label, mode, overrides in LIBRARY_RUNS:
        print("| {} | {} | {} |".format(label, *library_row(mode, overrides)))

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        with open(os.path.join(workdir, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(README_CONFIG, fh)
        os.chdir(workdir)  # so "config.json" in the rows names the file above
        try:
            for args in CLI_RUNS:
                print("| `{}` | {} | {} |".format(" ".join(args), *cli_row(args, workdir)))
        finally:
            os.chdir(cwd)

    spin_mc = dict(vary=("regolith", "omega"), omega_rpm_range=(-2, 2))
    serial = monte_carlo_hash(default_scenario("spin"), 8, 42, workers=1, **spin_mc)
    pooled = monte_carlo_hash(default_scenario("spin"), 8, 42, workers=2, **spin_mc)
    json_hash = serial if serial == pooled else f"{serial} (workers=2: {pooled})"
    print('| `monte_carlo(spin, 8, 42, vary=("regolith", "omega"), omega_rpm_range=(-2, 2))`, '
          f"`workers=1` and `workers=2` | — | {json_hash} |")
    nominal = default_scenario("nominal", duration_orbits=0.2)
    print('| `monte_carlo(nominal 0.2 orbit, 4, 9, vary=("regolith",))` | — | '
          f'{monte_carlo_hash(nominal, 4, 9, vary=("regolith",))} |')


if __name__ == "__main__":
    main()
