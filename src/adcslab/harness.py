"""Scenario assembly, the closed-loop simulation, metrics, and Monte Carlo.

A :class:`Scenario` is a frozen, picklable description of one run: mass model
and regolith placement policy (applied by :meth:`Scenario.placed_catalog`),
orbit, geometry, gains and limits, operating mode, initial state, and
integration settings.  :func:`run_scenario` steps the closed loop

    sample environment -> disturbance torques -> mode controller ->
    actuator models -> rigidbody.propagate

and returns decimated telemetry plus a :class:`RunResult` of metrics.
:func:`run_scenario_metrics`, and so every Monte Carlo member, runs with
``telemetry=False``: each sample still feeds the metrics, but no row is built,
so a run's memory does not grow with its length.  The loop computes no
dynamics itself: it hands the held external torque (magnetics plus
disturbances) and the wheel's torque to :func:`~adcslab.rigidbody.propagate`,
whose kick-drift-kick splitting carries the attitude, the body rate and the
wheel's momentum together.  The hold times and post-settle maxima see the run
at the telemetry cadence.  Standalone modes
(``detumble``/``nominal``/``spin``/``despin``/``safe``) hold their controller
for the whole run; ``conops`` starts in de-tumble and runs the mode state
machine with automatic exits and the scheduled commands, each issued at the
step its time rounds to.

Determinism: nothing in the loop draws random numbers, regolith sampling is
seeded, and Monte Carlo derives per-run seeds from (master seed, run index),
so results are bitwise reproducible and independent of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from statistics import fmean
from typing import Iterable, Sequence, TextIO

import numpy as np

from .control import (
    ActuatorLimits,
    Fidelity,
    Gains,
    Mode,
    ModeThresholds,
    allocate_magnetorquer,
    mode_transition,
    pd_torque,
    spin_torques,
    wheel_step,
)
from .environment import (
    OrbitConfig,
    SpacecraftGeometry,
    constants,
    orbit_frame_sample,
    orbit_period,
    total_disturbance,
)
from .massmodel import (
    CM_TO_M,
    MassCatalog,
    apply_inertia_floor,
    bundled_catalog,
    compute_cg,
    inertia_tensor,
    sample_regolith,
)
from .quatmath import (
    IDENTITY,
    RPM_TO_RADPS,
    ZERO3,
    Quat,
    Vec3,
    normalize_canonical,
    quat_from_euler,
    quat_norm,
    quat_to_euler,
    rotate_orbit_to_body,
    vdot,
    visfinite,
    vnorm,
)
from .rigidbody import InertiaTensor, NonFiniteStateError, propagate

__all__ = [
    "Scenario",
    "AssembledScenario",
    "Telemetry",
    "RunResult",
    "MonteCarloResult",
    "DivergenceError",
    "TELEMETRY_COLUMNS",
    "MODES",
    "assemble",
    "run_scenario",
    "run_scenario_metrics",
    "monte_carlo",
    "default_scenario",
    "default_limits",
    "ROD_EFFECTIVE_TORQUE_NM",
    "REFERENCE_DETUMBLE_ORBITS",
]

# Effective per-axis torque authority of the flight torque rods (0.2 A*m^2)
# once the ~30 uT orbit-average field, field/dipole geometry, and duty cycling
# are folded into a single constant clamp.  The raw instantaneous ceiling
# |m||B| is a few times larger; this effective value reproduces the expected
# multi-orbit de-tumble timeline and is what the bundled scenarios use.
ROD_EFFECTIVE_TORQUE_NM = 2.2e-6

# Reference de-tumble times (orbits) for equal-axis initial rates of 30 to
# 60 RPM: the ladder ROD_EFFECTIVE_TORQUE_NM is calibrated against.
REFERENCE_DETUMBLE_ORBITS = {30: 5.32, 35: 5.77, 40: 6.05, 45: 6.43, 50: 6.93, 55: 7.10, 60: 7.60}

# Largest rotation (rad) allowed per integrator substep.  The control torque
# holds for the full control period dt; the splitting step inside it is exact
# for the torque-free tumble of an axisymmetric body, so the substeps resolve
# the asymmetric part of the nutation and the held torque's coupling to it,
# both second order in the substep.  A rate that needs more than
# MAX_SUBSTEPS substeps is reported as a divergence.
SUBSTEP_MAX_PHASE_RAD = 0.5
MAX_SUBSTEPS = 128

TELEMETRY_COLUMNS = (
    "t_s", "q0", "q1", "q2", "q3",
    "wx_radps", "wy_radps", "wz_radps",
    "roll_deg", "pitch_deg", "yaw_deg",
    "tau_mx_Nm", "tau_my_Nm", "tau_mz_Nm",
    "tau_rw_Nm", "hw_Nms", "mode",
)

# Every mode a scenario may run: each controller mode held alone, or conops,
# which starts in de-tumble and takes any other mode as a scheduled command.
MODES = (*(m.value for m in Mode), "conops")
_SCHEDULE_COMMANDS = tuple(m.value for m in Mode if m is not Mode.DETUMBLE)

# The hold-time metrics, in the order _Metrics keeps them, and the index of
# the one each mode is judged by (conops: back in nominal pointing).  Safe
# mode has none; it always counts as converged.
_HOLD_METRICS = ("detumble_time_s", "spin_settle_time_s", "despin_time_s", "align_time_s")
_PRIMARY_METRIC = {"detumble": 0, "spin": 1, "despin": 2, "nominal": 3, "conops": 3}


class DivergenceError(RuntimeError):
    """The propagated state left the finite domain mid-run, in ``mode``."""

    def __init__(self, step: int, t: float, mode: str, detail: str) -> None:
        super().__init__(f"state diverged at step {step} (t={t:.6g} s): {detail}")
        self.step = step
        self.t = t
        self.mode = mode


@dataclass(frozen=True)
class Scenario:
    """Complete, picklable description of one closed-loop run.

    ``duration_orbits`` (when given) wins over ``duration_s``.  Disturbance
    torques and the orbit-frame field are refreshed every
    ``env_update_every_s`` and held in between; the body-frame field used by
    physical dipole allocation is re-rotated every control step, so it never
    goes stale even while tumbling.  Telemetry cadence defaults to every step
    for runs up to 120 s.  Both periods must be whole numbers of ``dt_s``
    steps when given; otherwise (and for telemetry of longer runs) they are
    1 s rounded to the nearest whole number of steps.
    """

    name: str = "scenario"
    mode: str = "detumble"
    # mass model
    catalog: MassCatalog = field(default_factory=bundled_catalog)  # flight, regolith stowed
    regolith_policy: str = "stowed"         # stowed | fixed | sampled
    regolith_fixed_cm: Vec3 | None = None
    min_principal_inertia_kgm2: float = 5e-3
    # orbit and environment
    orbit: OrbitConfig = OrbitConfig()
    sun_inertial: Vec3 = Vec3(1.0, 0.0, 0.0)
    dipole_tilt_deg: float = constants().default_dipole_tilt_deg
    geometry: SpacecraftGeometry = SpacecraftGeometry.box()  # 1U x 3.4U box
    enable_drag: bool = True
    enable_srp: bool = True
    enable_gravity_gradient: bool = True
    # control
    gains: Gains = Gains()
    limits: ActuatorLimits = ActuatorLimits()
    fidelity: Fidelity = Fidelity.IDEAL
    thresholds: ModeThresholds = ModeThresholds()
    spin_target_rpm: float = 1.0
    schedule: tuple[tuple[float, str], ...] = ()
    # initial state
    q0: Quat = IDENTITY
    omega0_radps: Vec3 = ZERO3
    wheel_momentum0_nms: float = 0.0
    # integration and bookkeeping
    dt_s: float = 0.1
    duration_s: float = 600.0
    duration_orbits: float | None = None
    env_update_every_s: float | None = None
    telemetry_cadence_s: float | None = None
    settle_band: float = 0.01
    align_tolerance_deg: float = 5.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.regolith_policy == "fixed" and self.regolith_fixed_cm is None:
            raise ValueError("regolith policy 'fixed' needs regolith_fixed_cm")
        if self.seed is not None and not _is_seed(self.seed):
            raise ValueError(f"seed must be None or a non-negative integer, got {self.seed!r}")
        if self.regolith_policy == "sampled" and self.seed is None:
            raise ValueError("regolith policy 'sampled' needs a seed")
        self.placed_catalog()  # raises where the regolith cannot go
        if not (self.dt_s > 0.0 and math.isfinite(self.dt_s)):
            raise ValueError(f"dt must be positive and finite, got {self.dt_s}")
        if self.duration_orbits is None:
            if not (0.0 < self.duration_s < math.inf):
                raise ValueError(f"duration must be > 0 and finite, got {self.duration_s} s")
        elif not (0.0 < self.duration_orbits < math.inf):
            raise ValueError(
                f"duration must be > 0 and finite, got {self.duration_orbits} orbits")
        for name in ("env_update_every_s", "telemetry_cadence_s"):
            if getattr(self, name) is not None:
                _whole_steps(self, name)
        if not (0.0 < self.settle_band < 1.0):
            raise ValueError(f"settle_band must be in (0, 1), got {self.settle_band}")
        if not (0.0 < self.align_tolerance_deg < math.inf):
            raise ValueError("align_tolerance_deg must be > 0 and finite")
        if not (0.0 < self.spin_target_rpm < math.inf):
            raise ValueError("spin_target_rpm must be > 0 and finite")
        if not (0.0 < self.min_principal_inertia_kgm2 < math.inf):
            raise ValueError("min_principal_inertia_kgm2 must be > 0 and finite")
        if self.schedule and self.mode != "conops":
            raise ValueError("a command schedule only makes sense in conops mode")
        for t, cmd in self.schedule:
            if not (t >= 0.0 and math.isfinite(t)):
                raise ValueError(f"schedule time must be >= 0, got {t}")
            if cmd not in _SCHEDULE_COMMANDS:
                raise ValueError(
                    f"unknown schedule command {cmd!r}; expected one of {_SCHEDULE_COMMANDS}")
        if not visfinite(self.omega0_radps):
            raise ValueError(f"omega0 must be finite, got {self.omega0_radps}")
        for name, norm in (("q0", quat_norm(self.q0)), ("sun_inertial", vnorm(self.sun_inertial))):
            if not (0.0 < norm < math.inf):
                raise ValueError(f"{name} must be finite and nonzero, got {getattr(self, name)}")
        if not math.isfinite(self.dipole_tilt_deg):
            raise ValueError(f"dipole_tilt_deg must be finite, got {self.dipole_tilt_deg}")
        if not (abs(self.wheel_momentum0_nms) <= self.limits.max_wheel_momentum_nms):
            raise ValueError(
                f"wheel_momentum0_nms must be within the wheel's momentum limit "
                f"{self.limits.max_wheel_momentum_nms}, got {self.wheel_momentum0_nms}")
        self.resolved_duration_s()

    def placed_catalog(self) -> MassCatalog:
        """The catalog with the regolith where the policy puts it; building,
        assembling and reporting a failed run all place it here."""
        if self.regolith_policy == "stowed":
            return self.catalog
        if self.regolith_policy == "fixed":
            return self.catalog.with_regolith_at(self.regolith_fixed_cm)
        if self.regolith_policy == "sampled":
            return self.catalog.with_regolith_at(
                sample_regolith(self.catalog.chamber, np.random.default_rng(self.seed)))
        raise ValueError(f"unknown regolith policy {self.regolith_policy!r}")

    def resolved_duration_s(self) -> float:
        """Run length in seconds (orbit-based durations use the scenario orbit)."""
        if self.duration_orbits is not None:
            duration = self.duration_orbits * orbit_period(self.orbit)
        else:
            duration = self.duration_s
        if self.dt_s > duration:
            raise ValueError(f"dt={self.dt_s} s exceeds the run duration {duration} s")
        return duration


def _is_seed(v) -> bool:
    """A non-negative integer other than a bool: what numpy's generators take."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 0


def _telemetry_steps(s: Scenario, duration_s: float) -> int:
    """Steps between telemetry rows: every step for runs up to 120 s, about
    1 Hz for orbit-scale ones, unless ``telemetry_cadence_s`` is given."""
    if s.telemetry_cadence_s is None and duration_s <= 120.0:
        return 1
    return _whole_steps(s, "telemetry_cadence_s")


def _whole_steps(s: Scenario, name: str) -> int:
    """Steps of ``s.dt_s`` in the period field ``name``, which must be a whole
    number (>= 1) of them; None means 1 s rounded to whole steps, at least one."""
    period_s, dt_s = getattr(s, name), s.dt_s
    if period_s is None:
        return max(1, round(1.0 / dt_s))
    if not (0.0 < period_s < math.inf):
        raise ValueError(f"{name} must be > 0 and finite, got {period_s}")
    steps = period_s / dt_s
    n = round(steps) if steps < math.inf else 0
    if n < 1 or abs(steps - n) > 1e-9 * steps:
        raise ValueError(f"{name}={period_s} must be a whole multiple of dt={dt_s} s")
    return n


@dataclass(frozen=True)
class AssembledScenario:
    """Scenario with the mass model resolved into propagation-ready products."""

    catalog: MassCatalog            # regolith placed per policy
    inertia: InertiaTensor          # floored, invertible
    cg_m: Vec3                      # CG in meters, structure frame
    regolith_position_cm: Vec3 | None


def assemble(s: Scenario) -> AssembledScenario:
    """Mass properties for propagation, with the regolith placed by
    :meth:`Scenario.placed_catalog`.

    The exact point-mass inertia of the stowed flight catalog is singular
    about z (every component sits on the geometric axis), so the scenario's
    minimum principal inertia is enforced as an eigenvalue floor before the
    tensor is handed to the dynamics.
    """
    catalog = s.placed_catalog()
    cg_cm = compute_cg(catalog)
    return AssembledScenario(
        catalog=catalog,
        inertia=InertiaTensor(apply_inertia_floor(inertia_tensor(catalog),
                                                  s.min_principal_inertia_kgm2)),
        cg_m=Vec3(cg_cm[0] * CM_TO_M, cg_cm[1] * CM_TO_M, cg_cm[2] * CM_TO_M),
        regolith_position_cm=catalog.regolith_position_cm,
    )


class Telemetry:
    """Decimated run history: one 17-column row per recorded sample."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[tuple]) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list:
        i = TELEMETRY_COLUMNS.index(name)
        return [row[i] for row in self.rows]

    def to_csv(self, fh: TextIO) -> None:
        """Write the telemetry as CSV with shortest round-trip float formatting."""
        fh.write(",".join(TELEMETRY_COLUMNS) + "\n")
        for row in self.rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.to_csv(fh)


@dataclass(kw_only=True)
class RunResult:
    """Metrics extracted from one run; times are None when not reached.

    The defaults are what a diverged run reports for the fields it never
    reaches; a converged run sets every field, except that spin and despin
    runs report ``max_qe_post_settle`` and ``max_cone_angle_post_settle_deg``
    as None: both measure the attitude against the orbit frame, which a spin
    about x sweeps through.  The wheel momenta are the momentum the wheel has
    given the body, so the conserved total is ``J omega - hw x``.
    """

    scenario_name: str
    mode: str
    final_mode: str
    converged: bool = False
    orbit_period_s: float
    duration_s: float
    dt_s: float
    steps: int
    detumble_time_s: float | None = None
    detumble_time_orbits: float | None = None
    spin_settle_time_s: float | None = None
    despin_time_s: float | None = None
    align_time_s: float | None = None
    final_q: Quat = IDENTITY
    final_omega_radps: Vec3 = ZERO3
    final_speed_radps: float = 0.0
    final_wheel_momentum_nms: float = 0.0
    max_qe_post_settle: float | None = None
    max_speed_post_settle_radps: float | None = None
    max_cone_angle_post_settle_deg: float | None = None
    magnetic_saturation_steps: int = 0
    wheel_saturation_steps: int = 0
    max_wheel_momentum_nms: float = 0.0
    max_tau_b_alignment: float | None = None  # max |tau_m . B| / (|tau_m||B|), physical fidelity
    regolith_position_cm: Vec3 | None = None
    transitions: tuple[tuple[float, str], ...] = ()
    error: str | None = None

    def to_dict(self) -> dict:
        """Every field in declaration order, ``scenario_name`` as "scenario"."""
        return {"scenario" if f.name == "scenario_name" else f.name: _listed(getattr(self, f.name))
                for f in fields(self)}


def _listed(value):
    """``value`` with every tuple, nested ones too, turned into a list."""
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


class _Metrics:
    """Hold times and post-settle maxima, updated one recorded sample at a time.

    Each hold time is when its condition started to hold for the rest of the
    record: 0.0 while the condition has never failed, None after a failing
    row, and the time of the first passing row after the last failure.  The
    conditions are |omega| below the de-tumble and de-spin exit thresholds,
    omega_x within ``settle_band`` of the spin target (the transverse rates
    are left out), and all three Euler angles within the align tolerance.

    The post-settle maxima (|q_e|, |omega|, body-z half-cone angle) restart
    whenever the mode's primary condition fails, so they cover exactly the
    samples at or after its hold time: recorded times only increase.  Spin and
    de-spin keep only |omega|: |q_e| and the cone angle measure the attitude
    against the orbit frame, which a spin about x sweeps through.
    """

    __slots__ = ("detumble_radps", "despin_radps", "spin_radps", "spin_tol", "align_deg",
                 "primary", "pointing", "times", "max_qe", "max_speed", "max_cone")

    def __init__(self, s: Scenario) -> None:
        self.detumble_radps = s.thresholds.detumble_exit_radps
        self.despin_radps = s.thresholds.despin_exit_radps
        self.spin_radps = s.spin_target_rpm * RPM_TO_RADPS
        self.spin_tol = s.settle_band * self.spin_radps
        self.align_deg = s.align_tolerance_deg
        self.primary = _PRIMARY_METRIC.get(s.mode)
        self.pointing = s.mode not in ("spin", "despin")
        self.times: list[float | None] = [0.0, 0.0, 0.0, 0.0]
        self.max_qe = self.max_speed = self.max_cone = 0.0

    def add(self, t: float, q: Quat, omega: Vec3, speed: float,
            euler: tuple[float, float, float]) -> None:
        """One sample; ``speed`` is ``vnorm(omega)``, which the loop has already."""
        times = self.times
        if speed >= self.detumble_radps:
            times[0] = None
        elif times[0] is None:
            times[0] = t
        if abs(omega[0] - self.spin_radps) > self.spin_tol:
            times[1] = None
        elif times[1] is None:
            times[1] = t
        if speed >= self.despin_radps:
            times[2] = None
        elif times[2] is None:
            times[2] = t
        if max(abs(euler[0]), abs(euler[1]), abs(euler[2])) > self.align_deg:
            times[3] = None
        elif times[3] is None:
            times[3] = t

        if self.primary is not None and times[self.primary] is None:
            self.max_qe = self.max_speed = self.max_cone = 0.0
            return
        if speed > self.max_speed:
            self.max_speed = speed
        if not self.pointing:
            return
        qe = vnorm(q[1:])
        if qe > self.max_qe:
            self.max_qe = qe
        # Angle between body z and orbit z: acos(R33), R33 = 1 - 2(q1^2 + q2^2).
        q1, q2 = q[1], q[2]
        r33 = 1.0 - 2.0 * (q1 * q1 + q2 * q2)
        cone = math.degrees(math.acos(min(1.0, max(-1.0, r33))))
        if cone > self.max_cone:
            self.max_cone = cone

    def hold_times(self) -> dict:
        return dict(zip(_HOLD_METRICS, self.times))

    def primary_time(self) -> float | None:
        return 0.0 if self.primary is None else self.times[self.primary]

    def post_settle(self) -> tuple:
        """(max |q_e|, max |omega|, max cone deg); Nones while the primary
        fails, and for the two attitude maxima of spin and de-spin."""
        if self.primary_time() is None:
            return None, None, None
        if not self.pointing:
            return None, self.max_speed, None
        return self.max_qe, self.max_speed, self.max_cone


def run_scenario(s: Scenario, *, telemetry: bool = True) -> tuple[Telemetry, RunResult]:
    """Propagate one scenario and extract its metrics.

    Each sample at the telemetry cadence feeds the metrics; with
    ``telemetry=False`` no row is built from it: the returned
    :class:`Telemetry` is empty and the :class:`RunResult` is the same.
    :func:`run_scenario_metrics` and Monte Carlo members run this way.  A
    conops run converges only if every scheduled command falls inside the run.

    Raises:
        DivergenceError: the state went non-finite (step and time attached).
    """
    asm = assemble(s)
    J = asm.inertia
    cg_m = asm.cg_m
    cfg = s.orbit
    period = orbit_period(cfg)
    duration = s.resolved_duration_s()
    dt = s.dt_s
    n_steps = round(duration / dt)  # >= 1: resolved_duration_s refuses dt > duration
    tel_every = _telemetry_steps(s, duration)
    env_every = _whole_steps(s, "env_update_every_s")

    gains, limits, thresholds = s.gains, s.limits, s.thresholds
    fidelity = s.fidelity
    physical = fidelity is Fidelity.PHYSICAL
    include = (s.enable_drag, s.enable_srp, s.enable_gravity_gradient)
    spin_radps = s.spin_target_rpm * RPM_TO_RADPS

    conops = s.mode == "conops"
    mode = Mode.DETUMBLE if conops else Mode(s.mode)
    # Step -> command; of two commands for one step, the later one given wins.
    schedule = {max(0, int(round(t / dt))): Mode(cmd) for t, cmd in s.schedule}

    # The state is the locals q, omega and hw, with the clock t = k * dt
    # taken from the step count: a running sum of dt drifts.
    q = normalize_canonical(s.q0)
    omega = Vec3(*s.omega0_radps)
    hw = s.wheel_momentum0_nms
    transitions: list[tuple[float, str]] = [(0.0, mode.value)]
    rows: list[tuple] = []
    mag_sat = 0
    wheel_sat = 0
    max_hw = abs(hw)
    max_tau_b = 0.0
    metrics = _Metrics(s)
    SAFE, SPIN, DESPIN = Mode.SAFE, Mode.SPIN, Mode.DESPIN  # read once, not per step

    def record(t: float, q: Quat, omega: Vec3, speed: float, hw: float,
               tau_m: tuple[float, float, float], tau_rw: float, m: Mode) -> None:
        euler = quat_to_euler(q)
        metrics.add(t, q, omega, speed, euler)
        if telemetry:  # the one place that knows the TELEMETRY_COLUMNS order
            rows.append((t, *q, *omega, *euler, *tau_m, tau_rw, hw, m.value))

    for k in range(n_steps):
        t = k * dt
        if k % env_every == 0:
            orbit_env = orbit_frame_sample(cfg, t, s.sun_inertial, s.dipole_tilt_deg)
            tau_d = total_disturbance(s.geometry, orbit_env.to_body(q), J, cg_m, include)

        if conops:
            new_mode = mode_transition(mode, omega, thresholds, schedule.get(k))
            if new_mode is not mode:
                mode = new_mode
                transitions.append((t, mode.value))

        hw_next = hw
        # IDEAL allocation clamps the torque per axis and never reads the field.
        b_ctrl = rotate_orbit_to_body(q, orbit_env.b_orbit_tesla) if physical else ZERO3
        tau_rw = 0.0
        if mode is SAFE:
            tau_m = ZERO3
        else:
            wheel = mode is SPIN or mode is DESPIN
            if wheel:
                tau_rw_cmd, tau_m_des = spin_torques(
                    omega, spin_radps if mode is SPIN else 0.0, gains)
            else:  # DETUMBLE and NOMINAL share the PD law toward the orbit frame
                tau_m_des = pd_torque(q, omega, gains)
            tau_m, _, saturated = allocate_magnetorquer(tau_m_des, b_ctrl, limits, fidelity)
            if saturated:
                mag_sat += 1
            if wheel:
                tau_rw, hw_next, saturated = wheel_step(tau_rw_cmd, hw, limits, dt)
                if saturated:
                    wheel_sat += 1

        if abs(hw_next) > max_hw:
            max_hw = abs(hw_next)
        if physical:
            tm_norm = vnorm(tau_m)
            b_norm = vnorm(b_ctrl)
            if tm_norm > 0.0 and b_norm > 0.0:
                rel = abs(vdot(tau_m, b_ctrl)) / (tm_norm * b_norm)
                if rel > max_tau_b:
                    max_tau_b = rel

        speed = vnorm(omega)
        if k % tel_every == 0:
            record(t, q, omega, speed, hw, tau_m, tau_rw, mode)

        # The substep count depends only on the current rate, so runs stay
        # deterministic.
        phases = speed * dt / SUBSTEP_MAX_PHASE_RAD
        if not phases <= MAX_SUBSTEPS:
            raise DivergenceError(k, t, mode.value,
                                  f"|omega| = {speed:.6g} rad/s needs more "
                                  f"than {MAX_SUBSTEPS} substeps")
        n_sub = math.ceil(phases) if phases > 1.0 else 1
        # propagate only unpacks its state and the held torque, so plain
        # tuples carry them.
        tau_ext = (tau_m[0] + tau_d[0], tau_m[1] + tau_d[1], tau_m[2] + tau_d[2])
        try:
            q, omega, _, _ = propagate((q, omega, hw, t), J, tau_ext, dt, n_sub,
                                       wheel_torque=tau_rw)
        except NonFiniteStateError as exc:
            raise DivergenceError(k, t, mode.value, str(exc)) from exc
        # The wheel keeps wheel_step's momentum, which lands on the stop
        # exactly where the kernel's sum of half-kicks may miss it by an ulp.
        hw = hw_next

    speed = vnorm(omega)
    record(n_steps * dt, q, omega, speed, hw, tau_m, tau_rw, mode)

    hold_times = metrics.hold_times()
    detumble_s = hold_times["detumble_time_s"]
    if conops:  # back in nominal with tame rates, schedule fully issued
        converged = (mode is Mode.NOMINAL and all(step < n_steps for step in schedule)
                     and speed < thresholds.detumble_exit_radps)
    else:
        converged = metrics.primary_time() is not None
    max_qe, max_speed, max_cone = metrics.post_settle()

    result = RunResult(
        scenario_name=s.name,
        mode=s.mode,
        final_mode=mode.value,
        converged=converged,
        orbit_period_s=period,
        duration_s=duration,
        dt_s=dt,
        steps=n_steps,
        detumble_time_orbits=None if detumble_s is None else detumble_s / period,
        **hold_times,
        final_q=q,
        final_omega_radps=omega,
        final_speed_radps=speed,
        final_wheel_momentum_nms=hw,
        max_qe_post_settle=max_qe,
        max_speed_post_settle_radps=max_speed,
        max_cone_angle_post_settle_deg=max_cone,
        magnetic_saturation_steps=mag_sat,
        wheel_saturation_steps=wheel_sat,
        max_wheel_momentum_nms=max_hw,
        max_tau_b_alignment=max_tau_b if physical else None,
        regolith_position_cm=asm.regolith_position_cm,
        transitions=tuple(transitions),
    )
    return Telemetry(rows), result


def run_scenario_metrics(s: Scenario) -> RunResult:
    """run_scenario keeping no telemetry rows; cheap to ship across processes."""
    return run_scenario(s, telemetry=False)[1]


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@dataclass
class MonteCarloResult:
    results: list[RunResult]
    summary: dict

    def to_dict(self) -> dict:
        return {"summary": self.summary,
                "results": [r.to_dict() for r in self.results]}


def _mc_scenario(base: Scenario, master_seed: int, index: int,
                 vary: tuple[str, ...], omega_rpm_range) -> Scenario:
    """Derive run ``index``'s scenario; depends only on (master_seed, index)."""
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, index)))
    updates: dict = {"name": f"{base.name}[{index}]"}
    if "regolith" in vary:
        updates["regolith_policy"] = "fixed"
        updates["regolith_fixed_cm"] = sample_regolith(base.catalog.chamber, rng)
    if "omega" in vary:
        lo, hi = omega_rpm_range
        w = rng.uniform(lo, hi, 3) * RPM_TO_RADPS
        updates["omega0_radps"] = Vec3(float(w[0]), float(w[1]), float(w[2]))
    return replace(base, **updates)


def _failed_result(s: Scenario, final_mode: str, steps: int, error: str) -> RunResult:
    """A failed run: the mode it was in, the step it reached and the regolith
    placement its clean run reports, under any policy; no metrics."""
    return RunResult(
        scenario_name=s.name, mode=s.mode, final_mode=final_mode,
        orbit_period_s=orbit_period(s.orbit), duration_s=s.resolved_duration_s(),
        dt_s=s.dt_s, steps=steps, error=error,
        regolith_position_cm=s.placed_catalog().regolith_position_cm,
    )


def _mc_run(args) -> RunResult:
    """One member; a divergence or any other error is reported in its result.

    Any other exception carries no step, so it reports step 0 in the
    scenario's mode, with the error as ``"<TypeName>: <message>"``.
    """
    base, master_seed, index, vary, omega_rpm_range = args
    s = _mc_scenario(base, master_seed, index, vary, omega_rpm_range)
    try:
        return run_scenario_metrics(s)
    except DivergenceError as exc:
        return _failed_result(s, exc.mode, exc.step, str(exc))
    except Exception as exc:
        return _failed_result(s, s.mode, 0, f"{type(exc).__name__}: {exc}")


_SUMMARY_METRICS = ("detumble_time_orbits", "spin_settle_time_s",
                    "despin_time_s", "align_time_s")


def summarize(results: Sequence[RunResult]) -> dict:
    """min/mean/max of each metric over the runs where it was reached."""
    summary: dict = {
        "runs": len(results),
        "converged": sum(1 for r in results if r.converged),
        "diverged": sum(1 for r in results if r.error is not None),
        "metrics": {},
    }
    for name in _SUMMARY_METRICS:
        values = [getattr(r, name) for r in results if getattr(r, name) is not None]
        summary["metrics"][name] = {
            "count": len(values),
            "min": min(values) if values else None,
            "mean": fmean(values) if values else None,
            "max": max(values) if values else None,
        }
    return summary


def monte_carlo(
    base: Scenario,
    n_runs: int,
    seed: int,
    vary: Iterable[str] = ("regolith",),
    omega_rpm_range: tuple[float, float] | None = None,
    workers: int = 1,
) -> MonteCarloResult:
    """Run ``n_runs`` derived scenarios; bitwise deterministic in (seed, n_runs).

    ``vary`` may contain "regolith" (uniform placement over the payload
    chamber) and/or "omega" (per-axis uniform initial rate over
    ``omega_rpm_range``, in RPM, which is rejected unless "omega" is varied
    and lo <= hi with a finite hi - lo).  Per-run seeds derive from (seed,
    index), so the result is independent of ``workers`` and execution order;
    divergent runs, and runs that raise any other error, are reported in their
    RunResult rather than aborting the batch.  Members keep no telemetry rows
    (see :func:`run_scenario_metrics`).
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not _is_seed(seed):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    vary = tuple(vary)
    for v in vary:
        if v not in ("regolith", "omega"):
            raise ValueError(f"unknown variation {v!r}; expected 'regolith' or 'omega'")
    if "omega" in vary and omega_rpm_range is None:
        raise ValueError("varying omega needs omega_rpm_range=(lo, hi) in RPM")
    if omega_rpm_range is not None:
        if "omega" not in vary:
            raise ValueError("omega_rpm_range is only used when vary includes 'omega'")
        lo, hi = omega_rpm_range
        if not (lo <= hi and math.isfinite(hi - lo)):
            raise ValueError(f"omega_rpm_range must be (lo, hi) with lo <= hi and a finite "
                             f"hi - lo, got {tuple(omega_rpm_range)}")
    tasks = [(base, seed, i, vary, omega_rpm_range) for i in range(n_runs)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_mc_run, tasks))
    else:
        results = [_mc_run(t) for t in tasks]
    return MonteCarloResult(results=results, summary=summarize(results))


# ---------------------------------------------------------------------------
# Bundled scenario presets
# ---------------------------------------------------------------------------

def default_limits() -> ActuatorLimits:
    """Actuator limits with the rods' effective (orbit-average) authority."""
    return ActuatorLimits(max_magnetic_torque_nm=ROD_EFFECTIVE_TORQUE_NM)


def default_scenario(mode: str = "detumble", **overrides) -> Scenario:
    """Flight-representative preset for each operating mode.

    de-tumble: 35 RPM on all three axes, nine orbits.
    nominal:   90 deg off on all three axes at rest, three orbits.
    spin:      from rest to the 1 RPM centrifuge spin, 60 s.
    despin:    from the 1 RPM spin back to rest, 60 s.
    safe:      coasting with actuators off, 600 s.
    conops:    5 RPM tumble through the full mode sequence, two orbits.

    The spin and despin presets pin the regolith against the chamber wall
    nearest the stack's centre of mass (the minimum-inertia stowage, and
    where loose payload ends up once the wheel starts dragging the hull
    around it); the other presets keep the launch-stowed catalog.

    Presets that play out over orbits carry :func:`default_limits` -- the
    rods' orbit-average authority, which is what multi-orbit de-tumble
    timing actually sees once pointing geometry washes out.  The spin and
    despin maneuvers finish in seconds, so they carry the instantaneous
    hardware limits instead: over that arc the field is effectively
    frozen and m x B delivers the full rated torque.  At ideal fidelity
    that is also what keeps the spin-up stable when an off-axis payload
    couples the wheel's momentum into the transverse axes.  Both are torque
    limits, which physical fidelity does not read: it clamps the dipole to
    ``max_dipole_am2``, so it runs the same under either.  Keyword
    overrides are applied on top of the preset.
    """
    w35 = 35.0 * RPM_TO_RADPS
    w5 = 5.0 * RPM_TO_RADPS
    period = orbit_period(OrbitConfig())
    presets: dict[str, dict] = {
        "detumble": dict(
            omega0_radps=Vec3(w35, w35, w35),
            duration_orbits=9.0,
        ),
        "nominal": dict(
            q0=quat_from_euler(90.0, 90.0, 90.0),
            duration_orbits=3.0,
        ),
        "spin": dict(
            duration_s=60.0,
            regolith_policy="fixed",
            regolith_fixed_cm=Vec3(0.0, 0.0, 0.0),
            limits=ActuatorLimits(),
        ),
        "despin": dict(
            omega0_radps=Vec3(RPM_TO_RADPS, 0.0, 0.0),
            duration_s=60.0,
            regolith_policy="fixed",
            regolith_fixed_cm=Vec3(0.0, 0.0, 0.0),
            limits=ActuatorLimits(),
        ),
        "safe": dict(
            omega0_radps=Vec3(RPM_TO_RADPS, 0.0, 0.0),
            duration_s=600.0,
        ),
        "conops": dict(
            omega0_radps=Vec3(w5, w5, w5),
            duration_orbits=2.0,
            schedule=((1.5 * period, "spin"), (1.7 * period, "despin")),
        ),
    }
    if mode not in presets:
        raise ValueError(f"unknown mode {mode!r}; expected one of {sorted(presets)}")
    params: dict = {"name": f"{mode}-default", "mode": mode,
                    "limits": default_limits(), **presets[mode]}
    params.update(overrides)
    return Scenario(**params)
