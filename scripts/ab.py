"""Size a change: time two source trees in one process, in alternating pairs.

Each tree's ``adcslab`` is imported into this process under its own
``sys.modules`` snapshot, which is put back in place while that tree runs.
The script first checks that the two trees give the same outputs: the
SHA-256 of every run's ``RunResult.to_dict()`` (and, for ``pointing``, of
the files the CLI writes) must be equal, and prints each tree's
``tracemalloc`` peak over one more untimed run: the memory the run itself
allocates, apart from the interpreter and the benchmark's read-back of the
outputs.  It then runs a shortened workload
on each tree in ``--pairs`` alternating pairs, the base first in even pairs
and the head first in odd ones, and prints each pair, the median head/base
time ratio and the number of pairs the head won.

Both trees share one process, one interpreter and the same moment, so the
ratio is steadier than two separate benchmark runs on a box whose speed
drifts.  It sizes a change before and while it is made; it does not replace
``bench/run.py``, whose end-to-end metrics judge it.

Usage:
    python3 scripts/ab.py --base OLD/src --head src --workload spin_mc --pairs 20

``--base`` and ``--head`` name a tree's ``src`` directory or its root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import pkgutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType

# The shortened workloads, each a cut of the benchmark workload of that name.
TUMBLE_RUNGS_RPM = (30, 45)
TUMBLE_ORBITS = 1.0
POINTING_ORBITS = 0.5
SPIN_MC_RUNS = 100


def _is_package_module(name: str) -> bool:
    return name == "adcslab" or name.startswith("adcslab.")


def src_dir(path: str) -> Path:
    """The directory that holds ``adcslab``: ``path`` itself or its ``src``."""
    root = Path(path).resolve()
    for candidate in (root, root / "src"):
        if (candidate / "adcslab" / "__init__.py").is_file():
            return candidate
    raise SystemExit(f"ab: no adcslab package in {root} or {root / 'src'}")


class Tree:
    """One source tree's ``adcslab``, every submodule imported up front."""

    def __init__(self, label: str, src: Path) -> None:
        self.label = label
        self.modules: dict[str, ModuleType] = {}
        for name in [n for n in sys.modules if _is_package_module(n)]:
            del sys.modules[name]
        sys.path.insert(0, str(src))
        try:
            package = importlib.import_module("adcslab")
            for info in pkgutil.walk_packages(package.__path__, "adcslab."):
                importlib.import_module(info.name)
        finally:
            sys.path.remove(str(src))
        if not Path(package.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"ab: {label} imported adcslab from {package.__file__}, not {src}")
        for name in [n for n in sys.modules if _is_package_module(n)]:
            self.modules[name] = sys.modules.pop(name)

    def __getitem__(self, submodule: str) -> ModuleType:
        return self.modules[f"adcslab.{submodule}"]

    @contextmanager
    def active(self):
        """Make this tree's modules the ones an import inside a call finds."""
        sys.modules.update(self.modules)
        try:
            yield
        finally:
            for name in self.modules:
                sys.modules.pop(name, None)


def digest(outputs: list) -> str:
    """SHA-256 over a run's outputs: file contents, or each ``RunResult``'s
    ``to_dict()`` as the CLI's ``--summary`` writes it."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(out if isinstance(out, bytes)
                 else json.dumps(out.to_dict(), indent=2).encode("utf-8"))
    return h.hexdigest()


def tumble(tree: Tree, seed: int) -> list:
    """The ladder rungs of the ``tumble`` benchmark, cut to ``TUMBLE_ORBITS``."""
    import numpy as np

    harness, quatmath = tree["harness"], tree["quatmath"]
    rng = np.random.default_rng(seed)
    results = []
    for rpm in TUMBLE_RUNGS_RPM:
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        w = rpm * quatmath.RPM_TO_RADPS
        s = harness.default_scenario(
            "detumble", name=f"detumble-{rpm}rpm", q0=quatmath.Quat(*map(float, q)),
            omega0_radps=quatmath.Vec3(w, w, w), duration_orbits=TUMBLE_ORBITS)
        results.append(harness.run_scenario_metrics(s))
    return results


def pointing(tree: Tree, seed: int) -> list:
    """``simulate --mode nominal`` and ``conops`` through the CLI with CSV,
    JSON and SVG outputs, cut to ``POINTING_ORBITS``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    euler = ",".join(repr(float(v)) for v in rng.uniform(-90.0, 90.0, 3))
    rates = ",".join(repr(float(v)) for v in rng.uniform(4.0, 5.0, 3))
    commands = (["simulate", "--mode", "nominal", f"--q0-euler-deg={euler}"],
                ["conops", f"--omega0-rpm={rates}"])
    parts = []
    with tempfile.TemporaryDirectory(prefix="adcslab-ab-") as tmp:
        for i, argv in enumerate(commands):
            paths = [Path(tmp) / f"{i}.{ext}" for ext in ("csv", "json", "svg")]
            code = tree["cli"].main([*argv, "--duration-orbits", str(POINTING_ORBITS),
                                     "--out", str(paths[0]), "--summary", str(paths[1]),
                                     "--plot", str(paths[2]), "--quiet"])
            if code not in (0, 2):  # 2: ran, but did not converge in the cut run
                raise SystemExit(f"ab: {tree.label}: {' '.join(argv)} exited with {code}")
            parts += [bytes([code]), *(p.read_bytes() for p in paths)]
    return parts


def spin_mc(tree: Tree, seed: int) -> list:
    """``SPIN_MC_RUNS`` members of the ``spin_mc`` benchmark's Monte Carlo."""
    harness = tree["harness"]
    base = harness.default_scenario("spin", fidelity=tree["control"].Fidelity.PHYSICAL)
    mc = harness.monte_carlo(base, SPIN_MC_RUNS, seed, vary=("regolith",), workers=1)
    return mc.results


WORKLOADS = {"tumble": tumble, "pointing": pointing, "spin_mc": spin_mc}


def timed(tree: Tree, run, seed: int) -> tuple[float, list]:
    with tree.active():
        gc.collect()
        t0 = time.perf_counter()
        outputs = run(tree, seed)
        return time.perf_counter() - t0, outputs


def traced_peak(tree: Tree, run, seed: int) -> int:
    """The ``tracemalloc`` peak, in bytes, of one untimed run on ``tree``."""
    with tree.active():
        gc.collect()
        tracemalloc.start()
        try:
            run(tree, seed)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, metavar="SRC", help="the tree to compare against")
    p.add_argument("--head", required=True, metavar="SRC", help="the changed tree")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--pairs", type=int, default=10, metavar="N", help="timed pairs (default 10)")
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    trees = (Tree("base", src_dir(args.base)), Tree("head", src_dir(args.head)))
    run = WORKLOADS[args.workload]
    # The check doubles as the warm-up: every module, cache and file is touched once.
    digests = [digest(timed(tree, run, args.seed)[1]) for tree in trees]
    if digests[0] != digests[1]:
        print(f"ab: outputs differ: base {digests[0]}, head {digests[1]}", file=sys.stderr)
        return 1
    print(f"{args.workload}: outputs equal (sha256 {digests[0][:16]}...)")
    peaks = {tree.label: traced_peak(tree, run, args.seed) for tree in trees}
    print(f"traced peak: base {peaks['base'] / 1e6:.3f} MB  head {peaks['head'] / 1e6:.3f} MB  "
          f"ratio {peaks['head'] / peaks['base']:.4f}")

    ratios = []
    for i in range(args.pairs):
        order = trees if i % 2 == 0 else trees[::-1]
        times = {tree.label: timed(tree, run, args.seed)[0] for tree in order}
        ratios.append(times["head"] / times["base"])
        print(f"pair {i + 1:3d}: base {times['base']:.4f} s  head {times['head']:.4f} s  "
              f"ratio {ratios[-1]:.4f}")
    wins = sum(r < 1.0 for r in ratios)
    print(f"median head/base ratio {statistics.median(ratios):.4f}; "
          f"head faster in {wins} of {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
