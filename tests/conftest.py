"""Shared fixtures: lattices, critical parameters and sample surfaces.

Everything expensive is session-scoped so the surface builds and frame
integrations are shared across test modules.
"""

import numpy as np
import pytest

from isoforge import elliptic, reparam, surface, theta


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
def sph_spec(crit032):
    """Spherical reparametrization from a conjugate-pair (delta, s1, s2)."""
    sph = reparam.SphericalSpec(delta=0.5, s1=0.45 + 0.25j, s2=0.45 - 0.25j)
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
