import json
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adcslab.massmodel import (
    CatalogError,
    ChamberBounds,
    MassCatalog,
    MassComponent,
    apply_inertia_floor,
    bundled_catalog,
    catalog_from_dict,
    compute_cg,
    corner_envelope,
    inertia_tensor,
    load_catalog,
    mass_properties,
    sample_regolith,
)
from adcslab.quatmath import Vec3


def _catalog(entries, regolith=None, chamber=None):
    comps = tuple(MassComponent(n, m, Vec3(*p)) for n, m, p in entries)
    kwargs = {}
    if chamber is not None:
        kwargs["chamber"] = chamber
    return MassCatalog(comps, regolith=regolith, **kwargs)


masses = st.floats(min_value=0.01, max_value=2.0)
coords = st.floats(min_value=-20.0, max_value=20.0)
positions = st.tuples(coords, coords, coords)


@st.composite
def random_catalogs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    entries = [(f"c{i}", draw(masses), draw(positions)) for i in range(n)]
    return _catalog(entries)


# ------------------------------------------------------------------------ CG

def test_cg_of_symmetric_pair_is_origin():
    cat = _catalog([("a", 0.5, (3.0, 0, 0)), ("b", 0.5, (-3.0, 0, 0))])
    assert compute_cg(cat) == Vec3(0.0, 0.0, 0.0)


def test_cg_of_single_component_is_its_position():
    cat = _catalog([("solo", 1.2, (1.0, -2.0, 0.5))])
    assert compute_cg(cat) == Vec3(1.0, -2.0, 0.5)


@given(random_catalogs(), st.tuples(coords, coords, coords))
def test_cg_translation_equivariance(cat, shift):
    moved = MassCatalog(
        tuple(
            MassComponent(c.name, c.mass_kg,
                          Vec3(c.position_cm[0] + shift[0],
                               c.position_cm[1] + shift[1],
                               c.position_cm[2] + shift[2]))
            for c in cat.components
        )
    )
    a, b = compute_cg(cat), compute_cg(moved)
    assert b.x - a.x == pytest.approx(shift[0], abs=1e-9)
    assert b.y - a.y == pytest.approx(shift[1], abs=1e-9)
    assert b.z - a.z == pytest.approx(shift[2], abs=1e-9)


# -------------------------------------------------------------------- inertia

def test_z_pair_inertia_is_singular_dumbbell():
    m, d = 0.4, 5.0  # cm
    cat = _catalog([("top", m, (0, 0, d)), ("bot", m, (0, 0, -d))])
    J = inertia_tensor(cat)
    d_m = d * 0.01
    expect = np.diag([2 * m * d_m**2, 2 * m * d_m**2, 0.0])
    assert np.allclose(J, expect, atol=1e-15)


def _recentred_cm(cat):
    """Each component's position minus the CG, in centimeters."""
    return np.array([c.position_cm for c in cat.all_components]) - np.array(compute_cg(cat))


def _closed_form(cat):
    """Independent oracle: J = sum m (|r|^2 I - r r^T) over recentred meters."""
    J = np.zeros((3, 3))
    for c, r in zip(cat.all_components, _recentred_cm(cat)):
        rm = r * 0.01
        J += c.mass_kg * (rm @ rm * np.eye(3) - np.outer(rm, rm))
    return J


@given(random_catalogs())
def test_recentred_positions_average_to_zero(cat):
    rel = _recentred_cm(cat)
    total = sum(c.mass_kg for c in cat.all_components)
    for axis in range(3):
        s = sum(c.mass_kg * r[axis] for c, r in zip(cat.all_components, rel))
        assert s / total == pytest.approx(0.0, abs=1e-12)


@given(random_catalogs())
def test_coefficient_extraction_matches_closed_form(cat):
    J = inertia_tensor(cat)
    ref = _closed_form(cat)
    scale = max(np.abs(ref).max(), 1e-30)
    assert np.abs(J - ref).max() <= 1e-12 * scale


@given(random_catalogs(), st.tuples(coords, coords, coords))
def test_inertia_translation_invariance(cat, shift):
    moved = MassCatalog(
        tuple(
            MassComponent(c.name, c.mass_kg,
                          Vec3(c.position_cm[0] + shift[0],
                               c.position_cm[1] + shift[1],
                               c.position_cm[2] + shift[2]))
            for c in cat.components
        )
    )
    a, b = inertia_tensor(cat), inertia_tensor(moved)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-15)
    assert np.abs(a - b).max() <= 1e-9 * scale


def _cross_product_columns(cat):
    """Column j = sum_i r_i x m_i (e_j x r_i), through numpy's cross product."""
    rel = _recentred_cm(cat) * 0.01
    J = np.empty((3, 3))
    for j, e in enumerate(np.eye(3)):
        h = np.zeros(3)
        for c, r in zip(cat.all_components, rel):
            h += np.cross(r, c.mass_kg * np.cross(e, r))
        J[:, j] = h
    return J


@st.composite
def placed_flight_catalogs(draw):
    cat = bundled_catalog()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cat.with_regolith_at(sample_regolith(cat.chamber, rng))


@given(st.one_of(random_catalogs(), placed_flight_catalogs()))
def test_inertia_equals_the_cross_product_map_bit_for_bit(cat):
    assert inertia_tensor(cat).tobytes() == _cross_product_columns(cat).tobytes()


@given(random_catalogs())
def test_inertia_is_symmetric_psd(cat):
    J = inertia_tensor(cat)
    assert np.abs(J - J.T).max() <= 1e-12 * max(np.abs(J).max(), 1e-30)
    eig = np.linalg.eigvalsh(0.5 * (J + J.T))
    assert eig[0] >= -1e-12 * max(eig[-1], 1e-30)


# ------------------------------------------------- bundled catalog (exact)

def _bundled_fractions():
    """Re-read the shipped catalog file and redo the arithmetic exactly."""
    text = resources.files("adcslab.data").joinpath("aosat1_mass_catalog.json").read_text("utf-8")
    data = json.loads(text)
    rows = data["components"] + [data["regolith"]]
    frac = [(Fraction(str(r["mass_kg"])),
             tuple(Fraction(str(p)) for p in r["position_cm"])) for r in rows]
    total = sum(m for m, _ in frac)
    cg = tuple(sum(m * p[i] for m, p in frac) / total for i in range(3))
    J = [[Fraction(0)] * 3 for _ in range(3)]
    for m, p in frac:
        r = tuple((p[i] - cg[i]) / 100 for i in range(3))  # meters
        r2 = sum(x * x for x in r)
        for i in range(3):
            for j in range(3):
                J[i][j] += m * ((r2 if i == j else 0) - r[i] * r[j])
    return total, cg, J


def test_bundled_catalog_mass_and_cg_match_exact_oracle():
    cat = bundled_catalog()
    total, cg, _ = _bundled_fractions()
    assert float(total) == pytest.approx(2.97, abs=1e-12)
    assert cat.total_mass_kg == pytest.approx(float(total), abs=1e-12)
    got = compute_cg(cat)
    assert got.x == pytest.approx(float(cg[0]), abs=1e-12)
    assert got.y == pytest.approx(float(cg[1]), abs=1e-12)
    assert got.z == pytest.approx(float(cg[2]), abs=1e-12)
    # the stack hangs slightly below the geometric origin
    assert float(cg[2]) == pytest.approx(-0.7909090909090909, abs=1e-12)


def test_bundled_catalog_inertia_matches_exact_oracle():
    cat = bundled_catalog()
    _, _, J_exact = _bundled_fractions()
    J = inertia_tensor(cat)
    scale = max(abs(float(v)) for row in J_exact for v in row)
    for i in range(3):
        for j in range(3):
            assert abs(J[i, j] - float(J_exact[i][j])) <= 1e-12 * scale
    # 3U stack on z: transverse moments equal and large, spin moment zero
    assert J[0, 0] == pytest.approx(J[1, 1], rel=1e-12)
    assert J[0, 0] == pytest.approx(0.015641505454545453, rel=1e-12)
    assert abs(J[2, 2]) < 1e-18


def test_bundled_catalog_is_degenerate():
    assert mass_properties(bundled_catalog()).degenerate


# ------------------------------------------------------------ corner envelope

def test_envelope_symmetric_chamber_mirrors_cg():
    env = corner_envelope(bundled_catalog())
    assert env.cg_min_cm.x == pytest.approx(-env.cg_max_cm.x, abs=1e-15)
    assert env.cg_min_cm.y == pytest.approx(-env.cg_max_cm.y, abs=1e-15)
    assert len(env.corners) == 8


def test_envelope_collapses_with_negligible_regolith():
    # a zero-mass component is unconstructible (mass must be > 0), so the
    # collapse limit is probed with a microgram of regolith instead
    cat = _catalog(
        [("a", 1.0, (0, 0, -5)), ("b", 1.0, (1.0, 0, 5))],
        regolith=MassComponent("regolith", 1e-9, Vec3(0, 0, 9)),
    )
    env = corner_envelope(cat)
    assert abs(env.cg_max_cm.x - env.cg_min_cm.x) < 1e-8
    assert abs(env.cg_max_cm.z - env.cg_min_cm.z) < 1e-8
    assert np.abs(env.j_max_kgm2 - env.j_min_kgm2).max() < 1e-10


def test_envelope_bounds_interior_placements():
    """CG bounds and J upper bounds hold for random interior regolith spots.

    The J lower corner bound is *not* a global bound (diagonal entries are
    convex in the placement with an interior minimum), so only max-side
    containment is asserted for the diagonal.
    """
    cat = bundled_catalog()
    env = corner_envelope(cat)
    for seed in range(200):
        pos = sample_regolith(cat.chamber, np.random.default_rng(seed))
        props = mass_properties(cat.with_regolith_at(pos))
        cg, J = props.cg_cm, props.inertia_kgm2
        for axis in range(3):
            assert env.cg_min_cm[axis] - 1e-12 <= cg[axis] <= env.cg_max_cm[axis] + 1e-12
        for i in range(3):
            assert J[i, i] <= env.j_max_kgm2[i, i] + 1e-15
            for j in range(3):
                if i != j:
                    assert env.j_min_kgm2[i, j] - 1e-15 <= J[i, j] <= env.j_max_kgm2[i, j] + 1e-15


# ------------------------------------------------------------------- sampling

def test_sampler_is_deterministic_per_seed():
    ch = ChamberBounds(x=(-4, 4), y=(-4, 4), z=(0, 18))

    def draw(seed):
        return sample_regolith(ch, np.random.default_rng(seed))

    assert draw(42) == draw(42)
    assert draw(42) != draw(43)


def test_sampler_stays_inside_the_box():
    ch = ChamberBounds(x=(-1.0, 1.0), y=(0.0, 0.5), z=(2.0, 2.25))
    for seed in range(1000):
        assert ch.contains(sample_regolith(ch, np.random.default_rng(seed)))


# ---------------------------------------------------------------------- floor

def test_floor_conditions_the_bundled_stack():
    J = inertia_tensor(bundled_catalog())
    out = apply_inertia_floor(J, 5e-3)
    eig = np.linalg.eigvalsh(out)
    assert eig[0] >= 5e-3 - 1e-15
    # transverse moments were already above the floor and must not move
    assert out[0, 0] == pytest.approx(J[0, 0], rel=1e-12)
    assert out[1, 1] == pytest.approx(J[1, 1], rel=1e-12)


def test_floor_rejects_nonpositive():
    with pytest.raises(ValueError):
        apply_inertia_floor(np.eye(3), 0.0)


# -------------------------------------------------------------- catalog files

def test_catalog_requires_components():
    with pytest.raises(CatalogError, match="components"):
        catalog_from_dict({})


def test_catalog_rejects_duplicate_names():
    with pytest.raises(CatalogError, match="unique"):
        _catalog([("a", 1.0, (0, 0, 0)), ("a", 1.0, (0, 0, 1))])


def test_catalog_rejects_nonpositive_mass():
    with pytest.raises(CatalogError, match="mass"):
        MassComponent("bad", 0.0, Vec3(0, 0, 0))


def _one_component(**entry) -> dict:
    return {"components": [{"name": "a", "mass_kg": 1.0, "position_cm": [0, 0, 0], **entry}]}


@pytest.mark.parametrize("data, where", [
    (_one_component(mass_kg=True), "mass_kg"),
    (_one_component(mass_kg="2.5"), "mass_kg"),
    (_one_component(position_cm=["1", "2", False]), r"position_cm\[0\]"),
    (_one_component(position_cm=[1, 2, False]), r"position_cm\[2\]"),
    ({**_one_component(), "chamber_cm": {"x": [-4, 4], "y": [-4, "4"], "z": [0, 18]}},
     r"chamber_cm.y\[1\]"),
], ids=("bool", "string", "string-entries", "bool-entry", "chamber-string"))
def test_catalog_values_must_be_numbers(data, where):
    with pytest.raises(CatalogError, match=f"{where}: expected a number"):
        catalog_from_dict(data)


@pytest.mark.parametrize("data, what", [
    ({**_one_component(), "name": True}, "catalog name"),
    ({**_one_component(), "name": 5}, "catalog name"),
    (_one_component(name=5), "component name"),
    (_one_component(name=None), "component name"),
    ({**_one_component(), "regolith": {"name": ["r"], "mass_kg": 1.0, "position_cm": [0, 0, 1]}},
     "component name"),
], ids=("catalog-bool", "catalog-number", "component-number", "component-null", "regolith-list"))
def test_catalog_names_must_be_strings(data, what):
    with pytest.raises(CatalogError, match=f"{what} must be a .*string"):
        catalog_from_dict(data)


def test_catalog_values_must_be_finite():
    for text in ('{"mass_kg": 1e400}', '{"position_cm": [0, 0, 1e400]}'):
        with pytest.raises(CatalogError, match="finite"):
            catalog_from_dict(_one_component(**json.loads(text)))
    chamber = json.loads('{"x": [-Infinity, 4], "y": [-4, 4], "z": [0, 18]}')
    with pytest.raises(CatalogError, match="finite"):
        catalog_from_dict({**_one_component(), "chamber_cm": chamber})
    with pytest.raises(CatalogError, match="out of the float range"):
        catalog_from_dict(_one_component(mass_kg=10 ** 400))
    # in-memory catalogs too
    with pytest.raises(CatalogError, match="finite"):
        MassComponent("a", float("inf"), Vec3(0.0, 0.0, 0.0))
    with pytest.raises(CatalogError, match="finite"):
        MassComponent("a", 1.0, Vec3(0.0, float("nan"), 0.0))
    with pytest.raises(CatalogError, match="finite"):
        ChamberBounds(x=(-4.0, float("inf")), y=(-4.0, 4.0), z=(0.0, 18.0))


def test_catalog_reports_offending_key():
    data = {"components": [{"name": "a", "mass_kg": 1.0, "position_cm": [0, 0]}]}
    with pytest.raises(CatalogError, match=r"components\[0\].position_cm"):
        catalog_from_dict(data)


def test_catalog_without_regolith_loads_but_cannot_move_it():
    cat = catalog_from_dict({"components": [
        {"name": "a", "mass_kg": 1.0, "position_cm": [0, 0, 0]}]})
    assert cat.regolith is None
    assert cat.all_components == cat.components
    with pytest.raises(CatalogError, match="regolith"):
        cat.with_regolith_at(Vec3(0, 0, 0))


def test_chamber_rejects_empty_interval():
    with pytest.raises(CatalogError):
        ChamberBounds(x=(1.0, 1.0), y=(0, 1), z=(0, 1))


def test_chamber_contains_boundary():
    ch = ChamberBounds(x=(-4, 4), y=(-4, 4), z=(0, 18))
    assert ch.contains(Vec3(0, 0, 0))
    assert ch.contains(Vec3(4, -4, 18))
    assert not ch.contains(Vec3(0, 0, -0.001))


def test_load_catalog_missing_file():
    with pytest.raises(CatalogError, match="cannot read"):
        load_catalog("/nonexistent/catalog.json")


def test_load_catalog_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(CatalogError, match="not valid JSON"):
        load_catalog(p)
