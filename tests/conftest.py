"""Shared fixtures: lattices, critical parameters and sample surfaces.

Everything expensive is session-scoped so the surface builds and frame
integrations are shared across test modules.
"""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from isoforge import curvefamily, elliptic, frame, reparam, surface, theta


@pytest.fixture(scope="session")
def lat032():
    return theta.rhombic(0.32)


@pytest.fixture(scope="session")
def crit032(lat032):
    return elliptic.solve_critical_omega(lat032)


@pytest.fixture(scope="session")
def lat2578():
    return theta.rhombic(25.0 / 78.0)


@pytest.fixture(scope="session")
def crit2578(lat2578):
    return elliptic.solve_critical_omega(lat2578)


@pytest.fixture(scope="session")
def rect_fam():
    """Rectangular lattice family (never closes in u): lambda=0.9, omega=0.3."""
    return elliptic.Family(theta.rectangular(0.9), 0.3, "explicit")


@pytest.fixture(scope="session")
def lam0():
    return elliptic.solve_lambda0()


@pytest.fixture(scope="session")
def torus_spec(lat032):
    """Analytic sin-family reparametrization centered in the band."""
    band = 2 * np.pi * lat032.lam
    return reparam.analytic(band / 2, 0.35, 6.0)


@pytest.fixture(scope="session")
def torus_surf(crit032, torus_spec):
    recipe = surface.SurfaceRecipe(fam=crit032, spec=torus_spec, nu=48, nv=48)
    return surface.build(recipe)


@pytest.fixture(scope="session")
def sph():
    """The conjugate-pair (delta, s1, s2) of sph_spec."""
    return reparam.SphericalSpec(delta=0.5, s1=0.45 + 0.25j, s2=0.45 - 0.25j)


@pytest.fixture(scope="session")
def sph_spec(crit032, sph):
    """Spherical reparametrization from a conjugate-pair (delta, s1, s2)."""
    return reparam.build_spherical(sph, crit032)


@pytest.fixture(scope="session")
def sph_surf(crit032, sph_spec):
    recipe = surface.SurfaceRecipe(fam=crit032, spec=sph_spec, nu=48, nv=48)
    return surface.build(recipe)


@pytest.fixture(scope="session")
def limit_spec(lam0):
    band = 2 * np.pi * lam0
    return reparam.analytic(band / 2, 0.3, 5.0)


@pytest.fixture(scope="session")
def limit_surf(lam0, limit_spec):
    fam = elliptic.Family(theta.rhombic(lam0), 0.0, "limit")
    recipe = surface.SurfaceRecipe(fam=fam, spec=limit_spec, nu=48, nv=48)
    return surface.build(recipe)


def period_nodes(spec, periods=1, n=256):
    """The uniform v-nodes 0, V/n, ..., periods V of `periods` periods of
    spec at n intervals each, for `frame.integrate`."""
    return np.linspace(0.0, periods * spec.period, periods * n + 1)


def lame_c1(fam):
    """C1 from the Lame equation U''/U = C1 - 8 U U1 at u = omega + 0.31,
    with U'' by central differences (step 1e-5) of the analytic U': an
    oracle for `elliptic.c1_at_critical` at any omega, to about 1e-8."""
    h = 1e-5
    u = fam.omega + 0.31
    U, _, U1, _ = elliptic._uu1_complex(u, fam)
    upp = (elliptic._uu1_complex(u + h, fam)[1]
           - elliptic._uu1_complex(u - h, fam)[1]) / (2 * h)
    return elliptic._real(upp / U + 8 * U * U1, "Lame constant C1")


def q_coeffs(sph, crit):
    """The descending real coefficients of the quartic Q(s) = -(s - s1)^2
    (s - s2)^2 + delta^2 Q3(s) of the SphericalSpec sph on crit."""
    cub = crit.q3
    pair = np.array([1.0, -(sph.s1 + sph.s2).real, (sph.s1 * sph.s2).real])
    return (sph.delta ** 2 * np.array([0.0, cub.c3, cub.c2, cub.c1, cub.c0])
            - np.polymul(pair, pair))


# the forms curve_form evaluates on the mirrored band, negative w included,
# for the conjugation symmetry conj(gamma(u, w)) = -gamma(u, -w)
MIRRORED_FORMS = ("gamma", "gamma_u", "dlog_gamma_u")


def stencil_frame(traj, v_probes, steps):
    """The frame at the PDE stencil's v-nodes of v_probes and steps, read
    from traj on its own (verify.small_grids reads it in the battery's
    one traj.at)."""
    return traj.at(surface._stencil(v_probes, steps).ravel())


def pde_levels(surf, steps):
    """surface.pde_battery on surf's own probes at the probe steps `steps`,
    its stencil's frame read from surf's solve by stencil_frame."""
    u_probes, v_probes = surface._gauss_codazzi_probes(surf)
    return surface.pde_battery(surf.recipe.fam, surf.recipe.spec, u_probes,
                               v_probes, stencil_frame(surf.traj, v_probes,
                                                       steps), steps)


def curve_form(name, u, w, fam):
    """The closed form `name` of fam on the grid u x w, from a
    `curvefamily.forms_at` call for that form alone (on the mirrored band
    for MIRRORED_FORMS)."""
    return curvefamily.forms_at(u, w, fam, (name,),
                                mirrored=name in MIRRORED_FORMS)[name]


@pytest.fixture
def grid_arrays(monkeypatch):
    """Records the shape of every array argument z of theta_grid in
    elliptic and curvefamily, as {"elliptic": [...], "curvefamily": [...]}
    in call order; scalar calls are not recorded."""
    rec, grid = {}, theta.theta_grid
    for module in (elliptic, curvefamily):
        shapes = rec[module.__name__.rpartition(".")[2]] = []

        def counted(i, z, *args, shapes=shapes):
            if np.ndim(z):
                shapes.append(np.shape(z))
            return grid(i, z, *args)

        monkeypatch.setattr(module, "theta_grid", counted)
    return rec


@pytest.fixture
def theta_arrays(monkeypatch, grid_arrays):
    """Records the theta arrays curvefamily evaluates.

    `calls` holds (theta indices of the rows, len(a), shape of b) for each
    theta_tensor call, `products` its number of matrix products (one per
    m0 of its rows: 1 for theta1 and theta2, 0 for theta3 and theta4),
    `arrays` one (index, order, a, b row) key for each array it returns,
    `columns` one (index, order, a, b) key for each of their columns, and
    `grid` the shape of every array argument of curvefamily's theta_grid.
    """
    rec = SimpleNamespace(calls=[], products=[], arrays=[], columns=[],
                          grid=grid_arrays["curvefamily"])
    tensor = curvefamily.theta_tensor

    def counted_tensor(rows, a, b, lat):
        rec.calls.append((tuple(i for i, _ in rows), len(a), np.shape(b)))
        rec.products.append(len({i in (1, 2) for i, _ in rows}))
        rec.arrays.extend((i, k, np.asarray(a).tobytes(), np.asarray(row).tobytes())
                          for (i, k), row in zip(rows, b))
        rec.columns.extend((i, k, np.asarray(a).tobytes(), complex(x))
                           for (i, k), row in zip(rows, b) for x in np.ravel(row))
        return tensor(rows, a, b, lat)

    monkeypatch.setattr(curvefamily, "theta_tensor", counted_tensor)
    return rec


@pytest.fixture
def frame_calls(monkeypatch):
    """Records the arguments of every frame.integrate call, defaults
    included, one dict (spec, fam, ..., step_tol, v_nodes) per call."""
    calls = []
    integrate = frame.integrate
    sig = inspect.signature(integrate)

    def counted(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(frame, "integrate", counted)
    return calls
