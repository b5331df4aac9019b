"""Mesh geometry, assembled operators, projections, and mesh nesting."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sacpde.errors import ValidationError
from sacpde.mesh_fem import FemSpace, PeriodicMesh, l2_project, prolongation_matrix
from sacpde.model import f_mixed_dy, initial_datum


def _cos_interpolant(space):
    """Nodal values of cos(2 pi x_1) on a unit-period mesh."""
    return np.cos(2.0 * np.pi * space.mesh.vertices[:, 0])


def _norms_sq(space, u):
    """Squared L2 norm and H1 seminorm of a P1 function."""
    return u @ (space.mass @ u), u @ (space.stiffness @ u)


def test_mesh_counts_1d():
    mesh = PeriodicMesh(1, 1.0, 4)
    assert mesh.dof_count == 4
    assert len(mesh.elements) == 4
    np.testing.assert_allclose(mesh.volumes, 0.25)


def test_mesh_counts_2d():
    mesh = PeriodicMesh(2, 1.0, 2)
    assert mesh.dof_count == 4
    assert len(mesh.elements) == 8
    np.testing.assert_allclose(mesh.volumes, 0.125)
    assert mesh.volumes.sum() == pytest.approx(1.0)


def test_mesh_counts_3d():
    mesh = PeriodicMesh(3, 2.0, 2)
    assert mesh.dof_count == 8
    assert len(mesh.elements) == 48
    assert mesh.volumes.sum() == pytest.approx(8.0)


def test_mesh_validation():
    with pytest.raises(ValidationError):
        PeriodicMesh(4, 1.0, 4)
    with pytest.raises(ValidationError):
        PeriodicMesh(1, 1.0, 1)
    with pytest.raises(ValidationError):
        PeriodicMesh(1, -2.0, 4)
    with pytest.raises(ValidationError):
        PeriodicMesh(1, 1.0, 4.5)


def test_mass_matrix_row_1d():
    """Interior row of the periodic P1 mass matrix is (h/6, 2h/3, h/6)."""
    n = 8
    space = FemSpace(PeriodicMesh(1, 1.0, n))
    h = 1.0 / n
    row = space.mass[3].toarray().ravel()
    expected = np.zeros(n)
    expected[2], expected[3], expected[4] = h / 6.0, 2.0 * h / 3.0, h / 6.0
    np.testing.assert_allclose(row, expected, atol=1e-15)


def test_stiffness_matrix_row_1d():
    n = 8
    space = FemSpace(PeriodicMesh(1, 1.0, n))
    row = space.stiffness[3].toarray().ravel()
    expected = np.zeros(n)
    expected[2], expected[3], expected[4] = -8.0, 16.0, -8.0
    np.testing.assert_allclose(row, expected, atol=1e-12)


@pytest.mark.parametrize("d,n", [(1, 8), (2, 4), (3, 3)])
def test_operator_identities(d, n):
    """Constants are in the stiffness kernel; the mass entries sum to R^d."""
    R = 1.5
    space = FemSpace(PeriodicMesh(d, R, n))
    ones = np.ones(space.mesh.dof_count)
    np.testing.assert_allclose(space.stiffness @ ones, 0.0, atol=1e-12)
    assert ones @ (space.mass @ ones) == pytest.approx(R**d, rel=1e-13)
    # both operators are symmetric
    assert abs(space.mass - space.mass.T).max() < 1e-15
    assert abs(space.stiffness - space.stiffness.T).max() < 1e-12


def _pattern(*matrices):
    """CSC (indptr, indices) of the stored entries of the matrices' sum,
    explicit zeros included."""
    coo = [m.tocoo() for m in matrices]
    rows = np.concatenate([c.row for c in coo])
    cols = np.concatenate([c.col for c in coo])
    union = sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=matrices[0].shape)
    return union.indptr, union.indices


@pytest.mark.parametrize("lumped", [False, True], ids=["exact", "lumped"])
@pytest.mark.parametrize("d,n", [(1, 16), (2, 8), (3, 4)])
def test_system_matrix_sums_into_the_cached_pattern(d, n, lumped):
    """system_matrix is a canonical CSC matrix on the pattern of M + A, equal
    to the COO reference assembly: bit for bit at d = 1, where no entry sums
    more than two terms, and to 1e-15 relative where the summation order of
    duplicate entries differs.  load_vector's bincount equals an np.add.at
    scatter bit for bit."""
    space = FemSpace(PeriodicMesh(d, 1.0, n), lumped=lumped)
    y = l2_project(space, initial_datum("cos", 1.0))
    w = f_mixed_dy(space.element_values(y), space.element_values(0.9 * y))
    k = 0.01
    J = space.system_matrix(k, w)
    assert J.format == "csc"
    assert J.has_canonical_format
    indptr, indices = _pattern(space.mass, space.stiffness)
    assert np.array_equal(J.indptr, indptr) and np.array_equal(J.indices, indices)

    wdata = np.tensordot(w, space._wjk, axes=(1, 0)) * space.mesh.volumes[:, None, None]
    el = space.mesh.elements
    rows = np.repeat(el, d + 1, axis=1).ravel()
    cols = np.tile(el, (1, d + 1)).ravel()
    data = space._mass_data + k * (space._stiff_data + wdata.ravel())
    ref = sp.coo_matrix((data, (rows, cols)), shape=J.shape).tocsc()
    assert np.array_equal(ref.indptr, indptr) and np.array_equal(ref.indices, indices)
    if d == 1:
        assert np.array_equal(J.data, ref.data)
    else:
        np.testing.assert_allclose(J.data, ref.data, rtol=1e-15, atol=0.0)

    # the pattern is shared by every system matrix and cannot be changed
    other = space.system_matrix(0.5, w)
    assert np.shares_memory(other.indices, J.indices)
    with pytest.raises(ValueError):
        other.indices[0] = 0
    with pytest.raises(ValueError):
        other.indptr[-1] = 0

    # load_vector sums in the same element order as an np.add.at scatter
    values = space.element_values(y) * w
    be = (values * space.quad_weights) @ space.quad_points * space.mesh.volumes[:, None]
    scattered = np.zeros(space.mesh.dof_count)
    np.add.at(scattered, space.mesh.elements, be)
    assert np.array_equal(space.load_vector(values), scattered)


_SPECTRUM_CASES = pytest.mark.parametrize("d,n", [(1, 64), (2, 16), (3, 8)])
_LUMPING = pytest.mark.parametrize("lumped", [False, True], ids=["exact", "lumped"])


@_LUMPING
@_SPECTRUM_CASES
def test_fft_mass_solve_agrees_with_the_direct_solve(d, n, lumped):
    space = FemSpace(PeriodicMesh(d, 1.0, n), lumped=lumped)
    rhs = np.random.default_rng(n).standard_normal(n**d)
    ref = spla.spsolve(space.mass.tocsc(), rhs)
    x = space.solve_mass(rhs)
    assert np.linalg.norm(x - ref) <= 1e-14 * np.linalg.norm(ref)


@_LUMPING
@_SPECTRUM_CASES
def test_linear_part_spectrum_gives_the_sparse_product(d, n, lumped):
    """(M + kA) v as the circulant product of m̂ + k·â with v."""
    space = FemSpace(PeriodicMesh(d, 1.0, n), lumped=lumped)
    v = np.random.default_rng(n).standard_normal(n**d)
    k = 0.3
    grid = (n,) * d
    spectrum = space.mass_spectrum + k * space.stiffness_spectrum
    spectral = np.fft.rfftn(v.reshape(grid)) * spectrum
    got = np.fft.irfftn(spectral, s=grid, axes=range(d)).ravel()
    ref = (space.mass + k * space.stiffness) @ v
    assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)


@_LUMPING
@_SPECTRUM_CASES
def test_spectra_are_real_and_positive(d, n, lumped):
    """m̂ and m̂ + k·â are real and positive, on the rfftn grid; â is the
    stiffness spectrum, zero at the constant mode to rounding; the stored m̂
    and â are read-only."""
    space = FemSpace(PeriodicMesh(d, 1.0, n), lumped=lumped)
    shape = (n,) * (d - 1) + (n // 2 + 1,)
    a_hat = space.stiffness_spectrum
    assert a_hat.dtype == np.float64 and a_hat.shape == shape
    assert a_hat.min() >= -1e-14 * a_hat.max()
    assert not a_hat.flags.writeable and not space.mass_spectrum.flags.writeable
    for spectrum in (space.mass_spectrum, space.mass_spectrum + 0.3 * a_hat):
        assert spectrum.dtype == np.float64 and spectrum.shape == shape
        assert spectrum.min() > 0.0
    if lumped:  # a lumped M is a constant diagonal
        np.testing.assert_allclose(space.mass_spectrum, space.mass.diagonal()[0], rtol=1e-15)


def test_l2_projection_of_constant_is_exact():
    space = FemSpace(PeriodicMesh(2, 1.0, 4))
    u = l2_project(space, lambda x: np.full(x.shape[:-1], 0.7))
    np.testing.assert_allclose(u, 0.7, atol=1e-12)


def test_l2_projection_orthogonality():
    """The projection residual b - M c vanishes on the whole basis."""
    space = FemSpace(PeriodicMesh(1, 1.0, 32))
    g = lambda x: np.exp(np.sin(2.0 * np.pi * x[..., 0]))
    xq = space.physical_quad_points()
    b = space.load_vector(np.asarray(g(xq)))
    c = l2_project(space, g)
    resid = np.max(np.abs(space.mass @ c - b))
    assert resid <= 1e-10 * (1.0 + np.max(np.abs(b)))


def test_interpolant_norms_match_analytic():
    """L2 and H1 norms of the cos interpolant converge to 1/2 and 2 pi^2."""
    space = FemSpace(PeriodicMesh(1, 1.0, 256))
    l2_sq, h1_sq = _norms_sq(space, _cos_interpolant(space))
    assert l2_sq == pytest.approx(0.5, rel=1e-3)
    assert h1_sq == pytest.approx(2.0 * np.pi**2, rel=1e-3)


def test_discrete_laplacian_pairing():
    """(lap_h u, v)_M = -(grad u, grad v) for arbitrary fields."""
    space = FemSpace(PeriodicMesh(2, 1.0, 6))
    rng = np.random.default_rng(3)
    u = rng.standard_normal(space.mesh.dof_count)
    v = rng.standard_normal(space.mesh.dof_count)
    w = space.solve_mass(-(space.stiffness @ u))  # lap_h u
    lhs = w @ (space.mass @ v)
    rhs = -(u @ (space.stiffness @ v))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
    # constants sit in the kernel
    z = space.solve_mass(-(space.stiffness @ np.ones(space.mesh.dof_count)))
    np.testing.assert_allclose(z, 0.0, atol=1e-10)


def test_discrete_laplacian_eigenvalue_converges():
    """On the cos interpolant, -lap_h converges to the eigenvalue 4 pi^2."""
    errs = []
    for n in (32, 64):
        space = FemSpace(PeriodicMesh(1, 1.0, n))
        u = _cos_interpolant(space)
        w = space.solve_mass(-(space.stiffness @ u))  # lap_h u
        lam = -(w @ (space.mass @ u)) / (u @ (space.mass @ u))
        errs.append(abs(lam - 4.0 * np.pi**2))
    assert errs[1] < 0.35 * errs[0]  # second order in h


@pytest.mark.parametrize("d,nc,nf", [(1, 4, 8), (2, 2, 4), (3, 2, 4)])
def test_prolongation_preserves_norms(d, nc, nf):
    """Nested meshes: prolongation is exact as functions, so norms carry over."""
    coarse = FemSpace(PeriodicMesh(d, 1.0, nc))
    fine = FemSpace(PeriodicMesh(d, 1.0, nf))
    rng = np.random.default_rng(11)
    u = rng.standard_normal(coarse.mesh.dof_count)
    uf = prolongation_matrix(coarse.mesh, fine.mesh) @ u
    for a, b in zip(_norms_sq(coarse, u), _norms_sq(fine, uf)):
        assert b == pytest.approx(a, rel=1e-12, abs=1e-13)


def test_prolongation_values_1d():
    coarse = PeriodicMesh(1, 1.0, 4)
    fine = PeriodicMesh(1, 1.0, 8)
    P = prolongation_matrix(coarse, fine)
    u = np.array([0.0, 1.0, -2.0, 5.0])
    v = P @ u
    # coarse nodes injected, midpoints averaged (periodically at the wrap)
    np.testing.assert_allclose(v[0::2], u)
    np.testing.assert_allclose(v[1::2], [0.5, -0.5, 1.5, 2.5])


def test_prolongation_composition_matches_direct():
    m4, m8, m16 = (PeriodicMesh(1, 1.0, n) for n in (4, 8, 16))
    two_step = prolongation_matrix(m8, m16) @ prolongation_matrix(m4, m8)
    direct = prolongation_matrix(m4, m16)
    assert abs(two_step - direct).max() < 1e-14


def test_prolongation_rejects_non_dyadic():
    with pytest.raises(ValidationError):
        prolongation_matrix(PeriodicMesh(1, 1.0, 4), PeriodicMesh(1, 1.0, 12))
    with pytest.raises(ValidationError):
        prolongation_matrix(PeriodicMesh(1, 1.0, 4), PeriodicMesh(1, 2.0, 8))


def test_lumped_space_has_diagonal_mass():
    space = FemSpace(PeriodicMesh(1, 1.0, 8), lumped=True)
    M = space.mass.toarray()
    np.testing.assert_allclose(M, np.diag(np.diag(M)), atol=1e-15)
    assert M.sum() == pytest.approx(1.0)
    assert space.quad_degree == 1
    # the exact twin restores degree-4 integration on the same mesh
    twin = space.exact_twin()
    assert twin.quad_degree == 4 and not twin.lumped
    assert twin.mesh is space.mesh
    exact = FemSpace(PeriodicMesh(1, 1.0, 8))
    assert exact.exact_twin() is exact

