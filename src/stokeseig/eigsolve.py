"""Shift-invert Arnoldi for the saddle-point pencil K x = lambda N x.

The Arnoldi iteration runs on S = (K - theta N)^{-1} N, whose dominant Ritz
values nu map back to the pencil eigenvalues nearest the shift via
lambda = theta + 1 / nu.  N is singular (only the velocity block is nonzero),
so directions belonging to infinite eigenvalues show up as nu ~ 0 and are
dropped.  Reported eigenvectors are scaled so the velocity has unit L2 norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import ShiftAtEigenvalueError, SingularMatrixError, UnconvergedError
from .sparselin import SparseMatrix, factorize

# ARPACK settings (mode 3, largest |nu|): Ritz pairs beyond nev absorb the
# nu ~ 0 directions of infinite eigenvalues that _extract drops
_EXTRA_RITZ = 10
_MIN_KRYLOV_DIM = 40
_TOL = 1e-10
_MAXITER = 500
# Ritz values below this fraction of the largest |nu| are infinite eigenvalues
_DROP_TOL = 1e-8


@dataclass
class EigConfig:
    """The ``nev`` eigenvalues nearest ``shift``, from a start vector seeded by ``seed``."""
    nev: int = 5
    shift: float = 0.0
    seed: int = 20240901

    def __post_init__(self):
        if self.nev < 1:
            raise ValueError("nev must be at least 1")


@dataclass
class SpectralSolution:
    """Eigenpairs sorted by ascending eigenvalue.

    ``sigma`` rows are in the full stress numbering (constrained dofs zero),
    ``vectors`` holds the raw pencil eigenvectors used for residual checks.
    """
    eigenvalues: np.ndarray
    sigma: np.ndarray
    u: np.ndarray
    multiplier: np.ndarray
    residuals: np.ndarray
    vectors: np.ndarray


def solve_eig(pencil, cfg):
    """Compute the ``cfg.nev`` lowest finite eigenvalues of the pencil.

    One shift-invert Arnoldi run; every failure to deliver ``cfg.nev`` pairs
    with small residuals raises :class:`UnconvergedError`, whose ``partial``
    holds the pairs that could be extracted.
    """
    K, N = pencil.K, pencil.N
    n = K.n
    try:
        fact = factorize(_shifted(K, N, cfg.shift))
    except SingularMatrixError as exc:
        raise ShiftAtEigenvalueError(
            f"shift {cfg.shift} is (numerically) an eigenvalue: {exc}") from exc

    k = min(cfg.nev + _EXTRA_RITZ, n - 2)
    if k < 1:
        raise UnconvergedError(f"pencil of size {n} is too small for Arnoldi")
    op = spla.LinearOperator((n, n), matvec=lambda x: fact.solve(N @ x), dtype=float)
    v0 = np.random.default_rng(cfg.seed).uniform(-1.0, 1.0, n)
    ncv = min(n, max(_MIN_KRYLOV_DIM, 4 * cfg.nev, 2 * k + 2))
    try:
        nu, vecs = spla.eigs(op, k=k, which="LM", v0=v0, ncv=ncv, tol=_TOL, maxiter=_MAXITER)
    except spla.ArpackNoConvergence as exc:
        partial = None
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            partial = _extract(pencil, cfg, exc.eigenvalues, exc.eigenvectors)
        raise UnconvergedError(f"Arnoldi did not converge: {exc}", partial=partial) from exc
    except spla.ArpackError as exc:
        raise UnconvergedError(f"Arnoldi failed: {exc}") from exc

    sol = _extract(pencil, cfg, nu, vecs)
    if len(sol.eigenvalues) < cfg.nev:
        raise UnconvergedError(
            f"only {len(sol.eigenvalues)} of {cfg.nev} eigenpairs usable", partial=sol)
    kinf = K.norm_inf()
    if np.any(sol.residuals > 1e-8 * kinf):
        raise UnconvergedError(
            f"residual {sol.residuals.max():.3e} exceeds 1e-8 |K|_inf = {1e-8 * kinf:.3e}",
            partial=sol)
    return sol


def _shifted(K, N, shift):
    if shift == 0.0:
        return K
    return SparseMatrix(K.sp - shift * N.sp)


def _extract(pencil, cfg, nu, vecs):
    K, N, layout = pencil.K, pencil.N, pencil.layout
    nu = np.asarray(nu)
    keep = np.abs(nu) > _DROP_TOL * max(np.abs(nu).max(), 1e-300)
    nu, vecs = nu[keep], vecs[:, keep]

    # Rayleigh-Ritz on the real span of the returned vectors: degenerate pairs
    # may surface as conjugate complex artifacts, whose real and imaginary
    # parts span the true two-dimensional eigenspace
    cols = []
    for i in range(len(nu)):
        if nu[i].imag < 0.0:
            continue  # conjugate partner carries the same information
        x = vecs[:, i]
        cols.append(np.ascontiguousarray(x.real))
        if np.abs(x.imag).max() > 1e-13 * max(np.abs(x.real).max(), 1e-300):
            cols.append(np.ascontiguousarray(x.imag))
    if not cols:
        return SpectralSolution(np.empty(0), np.empty((0, layout.n_sigma_full)),
                                np.empty((0, layout.n_u)), np.empty((0, layout.n_c)),
                                np.empty(0), np.zeros((layout.size, 0)))
    basis = np.column_stack(cols)
    U, s, _ = np.linalg.svd(basis, full_matrices=False)
    Q = U[:, s > 1e-12 * s[0]]
    Kr = Q.T @ (K.sp @ Q)
    Nr = Q.T @ (N.sp @ Q)
    Kr = (Kr + Kr.T) / 2.0
    Nr = (Nr + Nr.T) / 2.0
    from scipy.linalg import eig as dense_eig
    w, y = dense_eig(Kr, Nr, homogeneous_eigvals=True)
    alphas, betas = w[0], w[1]

    pairs = []
    scale = np.abs(alphas).max() + 1e-300
    for i in range(len(alphas)):
        if abs(betas[i]) <= 1e-12 * scale:
            continue
        lam_i = alphas[i] / betas[i]
        if abs(lam_i.imag) > 1e-10 * abs(lam_i) or lam_i.real <= 0.0:
            continue
        x = Q @ np.ascontiguousarray(y[:, i].real)
        # velocity L2 norm squared equals -x^T N x
        unorm2 = -float(x @ (N @ x))
        if unorm2 <= (1e-8 * np.linalg.norm(x)) ** 2:
            continue
        pairs.append((float(lam_i.real), x / np.sqrt(unorm2)))
    pairs.sort(key=lambda p: p[0])
    pairs = pairs[:cfg.nev]

    m = len(pairs)
    vec_mat = np.array([p[1] for p in pairs]).T if m else np.zeros((layout.size, 0))
    lams = np.array([p[0] for p in pairs])
    residuals = _residuals(pencil, lams, vec_mat)
    sigma = np.zeros((m, layout.n_sigma_full))
    u = np.zeros((m, layout.n_u))
    mult = np.zeros((m, layout.n_c))
    for i in range(m):
        sigma[i], u[i], mult[i] = layout.split(vec_mat[:, i])
    return SpectralSolution(lams, sigma, u, mult, residuals, vec_mat)


def _residuals(pencil, lams, vectors):
    """|K x - lambda N x| / |x| for every column x of ``vectors``."""
    K, N = pencil.K.sp, pencil.N.sp
    return (np.linalg.norm(K @ vectors - (N @ vectors) * lams, axis=0)
            / np.linalg.norm(vectors, axis=0))


def eigen_residuals(pencil, solution):
    """Recompute |K x - lambda N x| / |x| for every stored eigenpair."""
    x = solution.vectors
    if x.shape[0] != pencil.K.n:
        raise ValueError(f"eigenvectors have wrong dimension {x.shape[0]}")
    zero = np.flatnonzero(~np.any(x, axis=0))
    if zero.size:
        raise ValueError(f"eigenvector {zero[0]} is identically zero")
    return _residuals(pencil, solution.eigenvalues, x).tolist()
