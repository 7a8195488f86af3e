"""Correctness checks on what the benchmark's workloads produce.

Each check takes plain data read back from the program's outputs -- a
``RunResult.to_dict()`` dict, the telemetry table read with the ``csv``
module, SVG text -- and returns a list of failure messages; an empty list
means the output passed.  The checks are written apart from the program:
Euler angles are compared through a rotation matrix built here, the align
time, the row count and the cadence are recomputed from the rows, and the
chamber bounds come from the catalog file.  ``check_the_checks.py`` shows
that every check rejects a corrupted copy of a real output.
"""

from __future__ import annotations

import csv
import xml.etree.ElementTree as ET
from array import array

import numpy as np

TELEMETRY_HEADER = (
    "t_s", "q0", "q1", "q2", "q3",
    "wx_radps", "wy_radps", "wz_radps",
    "roll_deg", "pitch_deg", "yaw_deg",
    "tau_mx_Nm", "tau_my_Nm", "tau_mz_Nm",
    "tau_rw_Nm", "hw_Nms", "mode",
)

# The acceptance de-tumble ladder: equal-axis rate (RPM) -> de-tumble time
# in orbits, and the band a rung must land in.
REFERENCE_DETUMBLE_ORBITS = {30: 5.32, 35: 5.77, 40: 6.05, 45: 6.43,
                             50: 6.93, 55: 7.10, 60: 7.60}
DETUMBLE_BAND = 0.40

# Relative drift of 1/2 w.Jw and |Jw| allowed over a torque-free run of
# 1000 rotation periods.  RK4 at the harness's 0.1 rad substep, on the
# floored flight inertia, drifts by 2.6e-6 (energy) and 1.4e-6 (momentum)
# over 1000 periods at 60 RPM, and about linearly with the length of the run
# (2.6e-5 and 1.4e-5 over 1e4 periods).
CONSERVATION_BOUND = 1e-5

QUAT_NORM_TOL = 1e-12
# Rotation matrices from the quaternion and from the Euler columns agree to
# this, except within 1e-12 of the pitch singularity, where the program
# rounds pitch to +/-90 deg and folds roll into yaw (an error of ~1.4e-6).
EULER_DCM_TOL = 1e-9
EULER_DCM_TOL_SINGULAR = 1e-5
CADENCE_TOL_S = 1e-6  # the loop clock accumulates t += dt

SPIN_BUDGET_S = 30.0
TAU_B_ALIGNMENT_BOUND = 1e-12
CONOPS_MODES = ("detumble", "nominal", "spin", "despin", "nominal")


# ---------------------------------------------------------------------------
# tumble
# ---------------------------------------------------------------------------

def check_rung(rpm: int, result: dict) -> list[str]:
    """A rung de-tumbles within the band around its reference time."""
    ref = REFERENCE_DETUMBLE_ORBITS[rpm]
    t = result["detumble_time_orbits"]
    if not result["converged"] or t is None:
        return [f"{rpm} RPM rung never de-tumbled"]
    if abs(t - ref) > DETUMBLE_BAND * ref:
        return [f"{rpm} RPM rung de-tumbled in {t:.3f} orbits, "
                f"outside {ref} +/-{DETUMBLE_BAND:.0%}"]
    return []


def check_ladder(times: dict) -> list[str]:
    """De-tumble times strictly increase with the tumble rate."""
    ladder = [times[rpm] for rpm in sorted(times)]
    if None in ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
        return [f"de-tumble times do not strictly increase with rate: {ladder}"]
    return []


def conservation_drift(J: np.ndarray, omegas) -> tuple[float, float]:
    """Largest relative change of 1/2 w.Jw and |Jw| along a torque-free run."""
    w = np.asarray(omegas, dtype=float)
    h = w @ J.T
    energy = 0.5 * np.einsum("ij,ij->i", w, h)
    momentum = np.linalg.norm(h, axis=1)
    return (float(np.max(np.abs(energy / energy[0] - 1.0))),
            float(np.max(np.abs(momentum / momentum[0] - 1.0))))


def check_conservation(J: np.ndarray, omegas, label: str) -> list[str]:
    d_energy, d_momentum = conservation_drift(J, omegas)
    errors = []
    if not d_energy <= CONSERVATION_BOUND:
        errors.append(f"{label}: kinetic energy drifted by {d_energy:.3g} "
                      f"(bound {CONSERVATION_BOUND:g})")
    if not d_momentum <= CONSERVATION_BOUND:
        errors.append(f"{label}: |H| drifted by {d_momentum:.3g} "
                      f"(bound {CONSERVATION_BOUND:g})")
    return errors


# ---------------------------------------------------------------------------
# pointing: telemetry CSV, summary JSON, SVG
# ---------------------------------------------------------------------------

class Table:
    """Telemetry read back from CSV: a float matrix plus the mode column."""

    def __init__(self, header: list[str], values: np.ndarray, modes: list[str]) -> None:
        self.header = header
        self.values = values      # (rows, 16): every column but "mode"
        self.modes = modes

    def __len__(self) -> int:
        return len(self.modes)

    def col(self, name: str) -> np.ndarray:
        return self.values[:, TELEMETRY_HEADER.index(name)]


def read_table(path) -> Table:
    """Read a telemetry CSV row by row into a compact float array."""
    flat = array("d")
    modes: list[str] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            flat.extend(float(v) for v in row[:-1])
            modes.append(row[-1])
    values = np.frombuffer(flat, dtype=float).reshape(len(modes), len(header) - 1)
    return Table(header, values, modes)


def check_header(table: Table) -> list[str]:
    if tuple(table.header) != TELEMETRY_HEADER:
        return [f"unexpected CSV header {table.header}"]
    return []


def check_quaternions(table: Table) -> list[str]:
    """Unit norm to 1e-12 and the canonical sign (q0 >= 0, then the first
    non-zero vector component positive)."""
    q = table.values[:, 1:5]
    errors = []
    off = np.abs(np.sqrt(np.einsum("ij,ij->i", q, q)) - 1.0)
    if not off.max() <= QUAT_NORM_TOL:
        i = int(off.argmax())
        errors.append(f"row {i}: |q| is off unit norm by {off[i]:.3g}")
    for i in np.flatnonzero(q[:, 0] <= 0.0):
        nonzero = [c for c in q[i] if c != 0.0]
        if not nonzero or nonzero[0] < 0.0:
            errors.append(f"row {i}: quaternion {tuple(q[i])} is not canonically signed")
            break
    return errors


def dcm_from_quaternion(q: np.ndarray) -> np.ndarray:
    """Orbit-to-body rotation matrices, (q0^2 - v.v) I + 2 v v^T - 2 q0 [v x]."""
    q0 = q[:, 0]
    v = q[:, 1:4]
    n = len(q)
    c = np.einsum("i,jk->ijk", q0 * q0 - np.einsum("ij,ij->i", v, v), np.eye(3))
    c += 2.0 * np.einsum("ij,ik->ijk", v, v)
    skew = np.zeros((n, 3, 3))
    skew[:, 0, 1], skew[:, 0, 2] = -v[:, 2], v[:, 1]
    skew[:, 1, 0], skew[:, 1, 2] = v[:, 2], -v[:, 0]
    skew[:, 2, 0], skew[:, 2, 1] = -v[:, 1], v[:, 0]
    c -= 2.0 * q0[:, None, None] * skew
    return c


def dcm_from_euler_321(roll_deg, pitch_deg, yaw_deg) -> np.ndarray:
    """R1(roll) R2(pitch) R3(yaw): orbit-to-body for the 3-2-1 sequence."""
    r, p, y = (np.radians(a) for a in (roll_deg, pitch_deg, yaw_deg))
    cr, sr, cp, sp, cy, sy = np.cos(r), np.sin(r), np.cos(p), np.sin(p), np.cos(y), np.sin(y)
    return np.stack([
        np.stack([cp * cy, cp * sy, -sp], axis=-1),
        np.stack([sr * sp * cy - cr * sy, sr * sp * sy + cr * cy, sr * cp], axis=-1),
        np.stack([cr * sp * cy + sr * sy, cr * sp * sy - sr * cy, cr * cp], axis=-1),
    ], axis=-2)


def check_euler(table: Table) -> list[str]:
    """The roll/pitch/yaw columns describe the same rotation as q, in range."""
    roll, pitch, yaw = table.col("roll_deg"), table.col("pitch_deg"), table.col("yaw_deg")
    errors = []
    if not (np.all(roll > -180.0) and np.all(roll <= 180.0) and np.all(yaw > -180.0)
            and np.all(yaw <= 180.0) and np.all(np.abs(pitch) <= 90.0)):
        errors.append("Euler angles outside (-180, 180] x [-90, 90] x (-180, 180]")
    c_q = dcm_from_quaternion(table.values[:, 1:5])
    c_e = dcm_from_euler_321(roll, pitch, yaw)
    diff = np.abs(c_q - c_e).max(axis=(1, 2))
    tol = np.where(np.abs(c_q[:, 0, 2]) >= 1.0 - 1e-12, EULER_DCM_TOL_SINGULAR, EULER_DCM_TOL)
    bad = np.flatnonzero(~(diff <= tol))
    if len(bad):
        i = int(bad[0])
        errors.append(f"row {i}: Euler columns differ from the quaternion's rotation "
                      f"by {diff[i]:.3g} ({len(bad)} rows)")
    return errors


def check_cadence(table: Table, steps: int, dt_s: float, cadence_s: float) -> list[str]:
    """Rows every ``cadence_s`` from t = 0, plus the final state."""
    every = round(cadence_s / dt_s)
    expected_rows = -(-steps // every) + 1
    if len(table) != expected_rows:
        return [f"{len(table)} rows, expected ceil({steps}/{every}) + 1 = {expected_rows}"]
    t = table.col("t_s")
    errors = []
    if t[0] != 0.0:
        errors.append(f"first row at t = {t[0]}")
    gaps = np.diff(t)
    if len(gaps) > 1 and not np.all(np.abs(gaps[:-1] - cadence_s) <= CADENCE_TOL_S):
        i = int(np.argmax(np.abs(gaps[:-1] - cadence_s)))
        errors.append(f"rows {i}-{i + 1} are {gaps[i]} s apart, cadence {cadence_s} s")
    last_gap = (steps - every * ((steps - 1) // every)) * dt_s
    if len(gaps) and not abs(gaps[-1] - last_gap) <= CADENCE_TOL_S:
        errors.append(f"final row {gaps[-1]} s after the last, expected {last_gap} s")
    return errors


def align_time_from_rows(table: Table, tolerance_deg: float):
    """First recorded time after which |roll|, |pitch|, |yaw| all stay
    within the tolerance; 0.0 if always within, None if never settled."""
    euler = np.abs(table.values[:, 8:11]).max(axis=1)
    outside = np.flatnonzero(euler > tolerance_deg)
    if len(outside) == 0:
        return 0.0
    last = int(outside[-1])
    if last == len(table) - 1:
        return None
    return float(table.col("t_s")[last + 1])


def check_align(table: Table, summary: dict, tolerance_deg: float,
                max_orbits: float | None) -> list[str]:
    """The summary's align time is the one the rows give, within ``max_orbits``."""
    recomputed = align_time_from_rows(table, tolerance_deg)
    errors = []
    if recomputed != summary["align_time_s"]:
        errors.append(f"align time {summary['align_time_s']} in the summary, "
                      f"{recomputed} from the rows")
    if max_orbits is not None and (
            recomputed is None or recomputed > max_orbits * summary["orbit_period_s"]):
        errors.append(f"align time {recomputed} s is not within {max_orbits} orbits")
    return errors


def check_final_row(table: Table, summary: dict) -> list[str]:
    last = table.values[-1]
    if list(last[1:5]) != summary["final_q"] or list(last[5:8]) != summary["final_omega_radps"]:
        return [f"last row q={list(last[1:5])} w={list(last[5:8])} differs from the "
                f"summary's final_q={summary['final_q']} "
                f"final_omega_radps={summary['final_omega_radps']}"]
    return []


def check_transitions(summary: dict, modes: tuple[str, ...]) -> list[str]:
    """The mode sequence is exactly ``modes``, at increasing times."""
    seen = tuple(m for _, m in summary["transitions"])
    times = [t for t, _ in summary["transitions"]]
    if seen != modes or any(b <= a for a, b in zip(times, times[1:])):
        return [f"transitions {summary['transitions']}, expected the modes {modes} in order"]
    return []


def check_svg(text: str) -> list[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG does not parse as XML: {exc}"]
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        return [f"SVG root element is {root.tag}"]
    return []


def check_exit(code) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


# ---------------------------------------------------------------------------
# spin_mc
# ---------------------------------------------------------------------------

def check_member(result: dict, chamber: dict, wheel_limit_nms: float) -> list[str]:
    """A Monte Carlo spin-up converged on budget within its actuator limits."""
    name = result["scenario"]
    errors = []
    if result["error"] is not None or not result["converged"]:
        errors.append(f"{name}: did not converge ({result['error']})")
    settle = result["spin_settle_time_s"]
    if settle is None or not settle <= SPIN_BUDGET_S:
        errors.append(f"{name}: settle time {settle} s over the {SPIN_BUDGET_S} s budget")
    align = result["max_tau_b_alignment"]
    if align is None or not align <= TAU_B_ALIGNMENT_BOUND:
        errors.append(f"{name}: magnetic torque not perpendicular to B ({align})")
    for key in ("max_wheel_momentum_nms", "final_wheel_momentum_nms"):
        if not abs(result[key]) <= wheel_limit_nms:
            errors.append(f"{name}: {key} {result[key]} over the {wheel_limit_nms} limit")
    pos = result["regolith_position_cm"]
    if pos is None or not all(lo <= p <= hi for p, (lo, hi)
                              in zip(pos, (chamber["x"], chamber["y"], chamber["z"]))):
        errors.append(f"{name}: regolith at {pos} cm is outside the chamber {chamber}")
    return errors


# ---------------------------------------------------------------------------
# shared
# ---------------------------------------------------------------------------

def check_identical(first: list, second: list, what: str) -> list[str]:
    """Two runs of the same inputs gave the same outputs, item by item."""
    if len(first) != len(second):
        return [f"{what}: {len(first)} outputs against {len(second)}"]
    for i, (a, b) in enumerate(zip(first, second)):
        if a != b:
            return [f"{what}: output {i} differs"]
    return []


def check_trace_counts(observed: dict, expected: dict) -> list[str]:
    """Counts from the traced run equal totals reached by separate paths."""
    return [f"trace: {name} is {observed[name]}, expected {value}"
            for name, value in expected.items() if observed[name] != value]
