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
from .sparselin import factorize


@dataclass
class EigConfig:
    """Solver knobs; defaults favor the lowest few eigenvalues at shift 0."""
    nev: int = 5
    shift: float = 0.0
    krylov_dim: int = 0        # 0 -> max(40, 4 nev)
    tol: float = 1e-10
    max_restarts: int = 50
    seed: int = 20240901
    drop_tol: float = 1e-8

    def __post_init__(self):
        if self.nev < 1:
            raise ValueError("nev must be at least 1")
        if self.krylov_dim == 0:
            self.krylov_dim = max(40, 4 * self.nev)
        if self.krylov_dim <= self.nev + 5:
            raise ValueError("krylov dimension must exceed nev + 5")


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
    converged: bool = True


def _lcg_vector(seed, n):
    # 64-bit linear congruential generator (MMIX constants), mapped to (-1, 1)
    a = 6364136223846793005
    c = 1442695040888963407
    mask = (1 << 64) - 1
    state = (seed ^ 0x9E3779B97F4A7C15) & mask
    out = np.empty(n)
    for i in range(n):
        state = (a * state + c) & mask
        out[i] = (state >> 11) / float(1 << 53) * 2.0 - 1.0
    return out


def solve_eig(pencil, cfg):
    """Compute the ``cfg.nev`` lowest finite eigenvalues of the pencil."""
    K, N = pencil.K, pencil.N
    n = K.n
    try:
        fact = factorize(_shifted(K, N, cfg.shift))
    except SingularMatrixError as exc:
        raise ShiftAtEigenvalueError(
            f"shift {cfg.shift} is (numerically) an eigenvalue: {exc}") from exc

    op = spla.LinearOperator((n, n), matvec=lambda x: fact.solve(N @ x), dtype=float)
    v0 = _lcg_vector(cfg.seed, n)

    ladder = sorted({min(cfg.nev + 5, n - 2), min(cfg.nev + 10, n - 2),
                     min(cfg.nev + 2, n - 2), min(cfg.nev, n - 2)}, reverse=True)
    last_exc = None
    sol = None
    for k in ladder:
        if k < 1:
            continue
        ncv = min(n, max(cfg.krylov_dim, 2 * k + 2))
        converged = True
        try:
            nu, vecs = spla.eigs(op, k=k, which="LM", v0=v0, ncv=ncv,
                                 tol=cfg.tol, maxiter=max(cfg.max_restarts, 10) * 10)
        except spla.ArpackNoConvergence as exc:
            if exc.eigenvalues is None or len(exc.eigenvalues) < cfg.nev:
                last_exc = exc
                continue
            nu, vecs = exc.eigenvalues, exc.eigenvectors
            converged = False
        except spla.ArpackError as exc:
            last_exc = exc
            continue
        candidate = _extract(pencil, cfg, nu, vecs)
        candidate.converged = converged
        if sol is None or len(candidate.eigenvalues) > len(sol.eigenvalues):
            sol = candidate
        if len(candidate.eigenvalues) >= cfg.nev:
            break
    if sol is None:
        raise UnconvergedError(f"Arnoldi failed to converge: {last_exc}")
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
    from .sparselin import SparseMatrix
    return SparseMatrix(K.sp - shift * N.sp)


def _extract(pencil, cfg, nu, vecs):
    K, N, layout = pencil.K, pencil.N, pencil.layout
    nu = np.asarray(nu)
    keep = np.abs(nu) > cfg.drop_tol * max(np.abs(nu).max(), 1e-300)
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
    residuals = np.array([
        np.linalg.norm(K @ vec_mat[:, i] - lams[i] * (N @ vec_mat[:, i]))
        / np.linalg.norm(vec_mat[:, i]) for i in range(m)])
    sigma = np.zeros((m, layout.n_sigma_full))
    u = np.zeros((m, layout.n_u))
    mult = np.zeros((m, layout.n_c))
    for i in range(m):
        sigma[i], u[i], mult[i] = layout.split(vec_mat[:, i])
    return SpectralSolution(lams, sigma, u, mult, residuals, vec_mat)


def eigen_residuals(pencil, solution):
    """Recompute |K x - lambda N x| / |x| for every stored eigenpair."""
    K, N = pencil.K, pencil.N
    out = []
    for i, lam in enumerate(solution.eigenvalues):
        x = solution.vectors[:, i]
        if x.shape[0] != K.n:
            raise ValueError(f"eigenvector {i} has wrong dimension {x.shape[0]}")
        nx = np.linalg.norm(x)
        if nx == 0.0:
            raise ValueError(f"eigenvector {i} is identically zero")
        out.append(float(np.linalg.norm(K @ x - lam * (N @ x)) / nx))
    return out
