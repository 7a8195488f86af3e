"""Point-mass spacecraft mass-property model.

The spacecraft is described as a catalog of point masses at positions given
in centimeters in the structure frame, plus one movable "regolith" component
confined to a payload chamber box.  Mass properties derive from first
principles:

* center of gravity ``r_g = sum(m_i r_i) / sum(m_i)``,
* inertia about the CG assembled by extracting the coefficients of the
  angular-momentum map ``H(omega) = sum_i r'_i x m_i (omega x r'_i)`` over the
  recentred positions ``r'_i = r_i - r_g`` (columns of J are ``H`` evaluated
  at the three basis rates, which is exact because ``H`` is linear).

Positions stay in centimeters at the catalog boundary and convert to SI
meters inside the inertia assembly, so the returned tensors are kg*m^2.

A catalog whose masses are collinear (the bundled stack with the regolith
stowed on the z axis is one) has a singular inertia tensor about that line.
:func:`mass_properties` reports it in its ``degenerate`` flag, which the
``adcslab inertia`` report prints; closed-loop scenarios condition the tensor
with :func:`apply_inertia_floor` before propagating.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cache
from importlib import resources
from numbers import Real
from pathlib import Path

import numpy as np

from .quatmath import Vec3, visfinite

__all__ = [
    "MassComponent",
    "ChamberBounds",
    "MassCatalog",
    "MassProperties",
    "CornerEnvelope",
    "CatalogError",
    "compute_cg",
    "inertia_tensor",
    "mass_properties",
    "corner_envelope",
    "sample_regolith",
    "apply_inertia_floor",
    "read_number",
    "read_numbers",
    "read_json_object",
    "load_catalog",
    "bundled_catalog",
    "CM_TO_M",
]

CM_TO_M = 0.01

# Eigenvalues below this fraction of the largest are treated as zero when
# deciding whether a catalog is degenerate (collinear point masses).
_DEGENERATE_REL_TOL = 1e-9


class CatalogError(ValueError):
    """A mass catalog file or structure is invalid."""


@dataclass(frozen=True, slots=True)
class MassComponent:
    name: str
    mass_kg: float
    position_cm: Vec3

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name):
            raise CatalogError(f"component name must be a non-empty string, got {self.name!r}")
        if not (0.0 < self.mass_kg < math.inf):
            raise CatalogError(f"{self.name}: mass must be > 0 and finite, got {self.mass_kg}")
        if not visfinite(self.position_cm):
            raise CatalogError(f"{self.name}: position must be finite, got {self.position_cm}")


@dataclass(frozen=True, slots=True)
class ChamberBounds:
    """Axis-aligned payload chamber box, centimeters in the structure frame."""

    x: tuple[float, float]
    y: tuple[float, float]
    z: tuple[float, float]

    def __post_init__(self) -> None:
        for axis in ("x", "y", "z"):
            lo, hi = getattr(self, axis)
            if not (-math.inf < lo < hi < math.inf):
                raise CatalogError(
                    f"chamber {axis} bounds must be finite with min < max, got {(lo, hi)}")

    def contains(self, p: Vec3) -> bool:
        return (self.x[0] <= p[0] <= self.x[1]
                and self.y[0] <= p[1] <= self.y[1]
                and self.z[0] <= p[2] <= self.z[1])

    def corners(self) -> tuple[Vec3, ...]:
        return tuple(
            Vec3(cx, cy, cz)
            for cx in self.x for cy in self.y for cz in self.z
        )


DEFAULT_CHAMBER = ChamberBounds(x=(-4.0, 4.0), y=(-4.0, 4.0), z=(0.0, 18.0))


@dataclass(frozen=True, slots=True)
class MassCatalog:
    """Fixed components plus at most one movable regolith component."""

    components: tuple[MassComponent, ...]
    regolith: MassComponent | None = None
    chamber: ChamberBounds = DEFAULT_CHAMBER
    name: str = "catalog"

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise CatalogError(f"catalog name must be a string, got {self.name!r}")
        if not self.components:
            raise CatalogError("catalog needs at least one fixed component")
        names = [c.name for c in self.components]
        if self.regolith is not None:
            names.append(self.regolith.name)
        if len(set(names)) != len(names):
            raise CatalogError(f"component names must be unique, got {names}")

    @property
    def all_components(self) -> tuple[MassComponent, ...]:
        if self.regolith is None:
            return self.components
        return self.components + (self.regolith,)

    @property
    def total_mass_kg(self) -> float:
        return sum(c.mass_kg for c in self.all_components)

    @property
    def regolith_position_cm(self) -> Vec3 | None:
        return None if self.regolith is None else self.regolith.position_cm

    def with_regolith_at(self, position_cm: Vec3) -> "MassCatalog":
        """This catalog with the regolith moved to ``position_cm``: the one
        placement rule.  The catalog must have a regolith component, and the
        position must lie inside its chamber, bounds included."""
        if self.regolith is None:
            raise CatalogError(f"{self.name} has no movable regolith component")
        if not self.chamber.contains(position_cm):
            raise CatalogError(f"regolith position {tuple(position_cm)} cm is outside the "
                               "payload chamber")
        return replace(self, regolith=replace(self.regolith, position_cm=Vec3(*position_cm)))


def compute_cg(catalog: MassCatalog) -> Vec3:
    """Mass-weighted center of gravity in catalog centimeters."""
    mx = my = mz = m = 0.0
    for c in catalog.all_components:
        m += c.mass_kg
        mx += c.mass_kg * c.position_cm[0]
        my += c.mass_kg * c.position_cm[1]
        mz += c.mass_kg * c.position_cm[2]
    return Vec3(mx / m, my / m, mz / m)


def inertia_tensor(catalog: MassCatalog) -> np.ndarray:
    """Inertia tensor about the CG, kg*m^2 (possibly singular -- see module doc).

    Column j is ``H(e_j) = sum_i r_i x m_i (e_j x r_i)``, i.e. the coefficient
    of ``omega_j`` in each component of H, with both cross products written
    out on plain floats.  Each off-diagonal entry keeps its own rounding
    (``J[0][1]`` and ``J[1][0]`` may differ in the last bit), so the tensor is
    not symmetrised here.
    """
    gx, gy, gz = compute_cg(catalog)
    xx = yx = zx = xy = yy = zy = xz = yz = zz = 0.0
    for c in catalog.all_components:
        m = c.mass_kg
        r = c.position_cm  # recentred on the CG, then in meters
        x, y, z = (r[0] - gx) * CM_TO_M, (r[1] - gy) * CM_TO_M, (r[2] - gz) * CM_TO_M
        mx, my, mz = m * x, m * y, m * z
        xx += y * my + z * mz
        yx -= x * my
        zx -= x * mz
        xy -= y * mx
        yy += z * mz + x * mx
        zy -= y * mz
        xz -= z * mx
        yz -= z * my
        zz += x * mx + y * my
    return np.array([[xx, xy, xz], [yx, yy, yz], [zx, zy, zz]])


@dataclass(frozen=True, slots=True)
class MassProperties:
    total_mass_kg: float
    cg_cm: Vec3
    inertia_kgm2: np.ndarray
    degenerate: bool


def mass_properties(catalog: MassCatalog) -> MassProperties:
    """Total mass, CG, and inertia; flags degenerate (collinear) catalogs."""
    cg = compute_cg(catalog)
    J = inertia_tensor(catalog)
    eig = np.linalg.eigvalsh(0.5 * (J + J.T))
    degenerate = bool(eig[0] <= _DEGENERATE_REL_TOL * max(eig[-1], 0.0))
    return MassProperties(catalog.total_mass_kg, cg, J, degenerate)


@dataclass(frozen=True, slots=True)
class CornerEnvelope:
    """Elementwise CG/inertia extremes over the 8 chamber-corner placements.

    CG is linear in the regolith position, so its bounds hold for any interior
    placement.  Diagonal inertia entries are convex in the regolith position:
    the corner sweep bounds their maximum, but their minimum can fall inside
    the chamber, so ``j_min`` is a corner-sweep statistic, not a global bound.
    """

    cg_min_cm: Vec3
    cg_max_cm: Vec3
    j_min_kgm2: np.ndarray
    j_max_kgm2: np.ndarray
    corners: tuple[tuple[Vec3, MassProperties], ...]


def corner_envelope(catalog: MassCatalog) -> CornerEnvelope:
    results = [(corner, mass_properties(catalog.with_regolith_at(corner)))
               for corner in catalog.chamber.corners()]
    cgs = np.array([p.cg_cm for _, p in results])
    js = np.array([p.inertia_kgm2 for _, p in results])
    return CornerEnvelope(
        cg_min_cm=Vec3(*cgs.min(axis=0).tolist()),
        cg_max_cm=Vec3(*cgs.max(axis=0).tolist()),
        j_min_kgm2=js.min(axis=0),
        j_max_kgm2=js.max(axis=0),
        corners=tuple(results),
    )


def sample_regolith(chamber: ChamberBounds, rng: np.random.Generator) -> Vec3:
    """Uniform random placement inside the chamber: three draws from ``rng``,
    x then y then z, so the placement is fixed by the generator's seed."""
    return Vec3(
        float(rng.uniform(*chamber.x)),
        float(rng.uniform(*chamber.y)),
        float(rng.uniform(*chamber.z)),
    )


def apply_inertia_floor(J: np.ndarray, floor_kgm2: float) -> np.ndarray:
    """Clamp principal moments from below; conditions collinear stacks.

    A line of point masses has zero spin inertia about its own axis, which no
    physical structure does.  Clamping the eigenvalues to a configured floor
    keeps the dynamics well-posed while leaving well-separated moments alone.
    """
    if not (floor_kgm2 > 0.0):
        raise ValueError(f"inertia floor must be > 0, got {floor_kgm2}")
    sym = 0.5 * (J + J.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    clamped = np.maximum(eigvals, floor_kgm2)
    return eigvecs @ np.diag(clamped) @ eigvecs.T


# ---------------------------------------------------------------------------
# Catalog files
# ---------------------------------------------------------------------------

def _component_from(obj, where: str) -> MassComponent:
    if not isinstance(obj, dict):
        raise CatalogError(f"{where}: expected an object, got {obj!r}")
    for key in ("name", "mass_kg", "position_cm"):
        if key not in obj:
            raise CatalogError(f"{where}: missing required key '{key}'")
    mass = read_number(obj["mass_kg"], f"{where}.mass_kg", CatalogError)
    position = read_numbers(obj["position_cm"], 3, f"{where}.position_cm", CatalogError)
    return MassComponent(obj["name"], mass, Vec3(*position))


def catalog_from_dict(data: dict, name: str = "catalog") -> MassCatalog:
    if not isinstance(data, dict):
        raise CatalogError("catalog file must contain a JSON object at the top level")
    if "components" not in data:
        raise CatalogError("catalog requires a 'components' section")
    components = tuple(
        _component_from(c, f"components[{i}]") for i, c in enumerate(data["components"])
    )
    regolith = (_component_from(data["regolith"], "regolith")
                if "regolith" in data else None)
    chamber = DEFAULT_CHAMBER
    if "chamber_cm" in data:
        ch = data["chamber_cm"]
        if not isinstance(ch, dict) or set(ch) != {"x", "y", "z"}:
            raise CatalogError("chamber_cm must be an object with 'x', 'y', 'z' ranges")
        chamber = ChamberBounds(**{axis: read_numbers(ch[axis], 2, f"chamber_cm.{axis}",
                                                      CatalogError) for axis in ch})
    return MassCatalog(components, regolith, chamber, name=data.get("name", name))


def read_number(obj, where: str, error: type[ValueError]) -> float:
    """``obj`` as a plain float.  Any real number is read, numpy scalars too;
    booleans, strings and other non-numbers raise ``error`` naming ``where``,
    as does an integer beyond the float range."""
    if isinstance(obj, bool) or not isinstance(obj, Real):
        raise error(f"{where}: expected a number, got {obj!r}")
    try:
        return float(obj)
    except OverflowError:
        raise error(f"{where}: integer out of the float range") from None


def read_numbers(obj, n: int, where: str, error: type[ValueError]) -> tuple[float, ...]:
    """A JSON list of ``n`` numbers, each read by :func:`read_number`."""
    if not isinstance(obj, (list, tuple)) or len(obj) != n:
        raise error(f"{where}: expected a list of {n} numbers, got {obj!r}")
    return tuple(read_number(v, f"{where}[{i}]", error) for i, v in enumerate(obj))


def read_json_object(path, what: str, error: type[ValueError]) -> dict:
    """Parse a JSON file whose top level must be an object.

    Failures raise ``error`` with a message that names the file as
    ``what PATH``: "cannot read", "is not valid JSON" or "expected dict".
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{what} {path}: expected dict, got {type(data).__name__}")
    return data


def load_catalog(path) -> MassCatalog:
    """Load a mass catalog from a JSON file.

    Raises:
        CatalogError: on malformed JSON or schema violations, with the
            offending key in the message.
    """
    return catalog_from_dict(read_json_object(path, "catalog file", CatalogError),
                             name=str(path))


@cache
def bundled_catalog() -> MassCatalog:
    """The flight mass catalog shipped with the package (regolith stowed).

    Parsed once per process; the catalog is frozen and holds only tuples, so
    every caller can share it.
    """
    text = resources.files("adcslab.data").joinpath("aosat1_mass_catalog.json").read_text("utf-8")
    return catalog_from_dict(json.loads(text), name="bundled:aosat1")
