"""Shift-invert Lanczos on the velocity space for the pencil K x = lambda N x.

N = diag(0, -M, 0) sees only the velocity.  With F = K - theta N and E the
embedding of a velocity into the pencil, G w = -[F^{-1} E w]_u is symmetric
and the eigenpairs satisfy G M u = nu u, nu = 1 / (lambda - theta): G M is the
discrete solution operator, self-adjoint in the M inner product.  Symmetric
Lanczos runs on S = L^T G L (M = L L^T element by element, w = L^T u); each
u lifts to x = F^{-1} N E u / nu, and Rayleigh-Ritz on (K, N) over the lifted
vectors gives the eigenvalues with M-orthonormal velocities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from .errors import (ConfigurationError, ShiftAtEigenvalueError, SingularMatrixError,
                     UnconvergedError, check_int, is_finite)
from .sparselin import SparseMatrix, factorize

# ARPACK settings (symmetric mode, largest |nu|).  A single Lanczos vector sees
# each eigenspace through one direction: the second copy of a double
# eigenvalue (symmetric meshes) only surfaces from rounding, so two spare
# Ritz pairs keep the iteration going until it has.  Velocity spaces no larger
# than the Krylov dimension are solved densely.
_SPARE_RITZ = 2
_KRYLOV_DIM = 20
_TOL = 1e-10
_MAXITER = 500
# nu below this fraction of max |nu| are rounding noise from the null space of G,
# the infinite eigenvalues: in every scheme but (1,0), the curls grad(phi) of
# skew stresses phi J that A does not see
_NULL_TOL = 1e-8


@dataclass
class EigConfig:
    """The ``nev`` eigenvalues nearest ``shift``, from a start vector seeded by ``seed``."""
    nev: int = 5
    shift: float = 0.0
    seed: int = 20240901

    def __post_init__(self):
        check_int("nev", self.nev, 1)
        check_int("seed", self.seed, 0)
        if not is_finite(self.shift):
            raise ConfigurationError(f"shift must be a finite number, got {self.shift!r}")


@dataclass
class SpectralSolution:
    """Eigenpairs sorted by ascending eigenvalue.

    ``sigma`` rows are in the full stress numbering (constrained dofs zero,
    zero mean of sigma : J under all-Dirichlet conditions), ``vectors`` holds
    the raw pencil eigenvectors used for residual checks.
    """
    eigenvalues: np.ndarray
    sigma: np.ndarray
    u: np.ndarray
    residuals: np.ndarray
    vectors: np.ndarray


def solve_eig(pencil, cfg):
    """Compute the ``cfg.nev`` finite eigenvalues of the pencil nearest ``cfg.shift``.

    One shift-invert Lanczos run; every failure to deliver ``cfg.nev`` pairs
    with small residuals raises :class:`UnconvergedError`, whose ``partial``
    holds the pairs that could be extracted.
    """
    K, N, n_u = pencil.K, pencil.N, pencil.layout.n_u
    if cfg.nev > n_u:
        # the pencil has n_u finite eigenvalues; fail before the dense path's
        # n_u right-hand sides are allocated
        raise UnconvergedError(f"only {n_u} of {cfg.nev} eigenpairs exist: the velocity "
                               f"space has {n_u} dofs")
    try:
        fact = factorize(_shifted(K, N, cfg.shift))
    except SingularMatrixError as exc:
        # a singular element block need not make the shift an eigenvalue of the
        # pencil, but another shift is the remedy in both cases
        raise ShiftAtEigenvalueError(
            f"shift {cfg.shift} is (numerically) an eigenvalue of the pencil or of an "
            f"eliminated element block: {exc}") from exc
    op = _VelocityOperator(pencil, fact)
    del fact        # op.extract frees the factors once it has lifted the Ritz vectors

    k = cfg.nev + _SPARE_RITZ
    ncv = max(_KRYLOV_DIM, 2 * k + 1)
    if n_u <= ncv:
        S = op.apply(np.eye(n_u))
        nu, W = np.linalg.eigh((S + S.T) / 2.0)
    else:
        lin = spla.LinearOperator((n_u, n_u), matvec=op.apply, dtype=float)
        v0 = np.random.default_rng(cfg.seed).uniform(-1.0, 1.0, n_u)
        try:
            nu, W = spla.eigsh(lin, k=k, which="LM", v0=v0, ncv=ncv, tol=_TOL, maxiter=_MAXITER)
        except spla.ArpackNoConvergence as exc:
            partial = (op.extract(*_dominant(exc.eigenvalues, exc.eigenvectors, cfg.nev))
                       if exc.eigenvalues is not None and len(exc.eigenvalues) else None)
            raise UnconvergedError(f"Lanczos did not converge: {exc}", partial=partial) from exc
        except spla.ArpackError as exc:
            raise UnconvergedError(f"Lanczos failed: {exc}") from exc

    sol = op.extract(*_dominant(nu, W, cfg.nev))
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
    # theta N couples a triangle's velocity modes only with each other, so
    # K's interior groups stay valid; K and N are symmetric, and so is F
    return SparseMatrix.symmetric(K.sp - shift * N, K.local)


def _dominant(nu, W, count):
    """The ``count`` pairs of largest |nu|, without the null space of G."""
    keep = np.argsort(-np.abs(nu))[:count]
    keep = keep[np.abs(nu[keep]) > _NULL_TOL * np.abs(nu).max()]
    return nu[keep], W[:, keep]


class _VelocityOperator:
    """S = L^T G L on velocity vectors, through the LU factors of F = K - theta N."""

    def __init__(self, pencil, fact):
        self.pencil, self.fact = pencil, fact
        layout = pencil.layout
        self.vel = slice(layout.n_sigma_active, layout.n_sigma_active + layout.n_u)
        # M = -N_uu has one dense pk.dim^2 block per (triangle, component)
        p = pencil.dofmap.pk.dim
        Muu = (-pencil.N[self.vel, self.vel]).tocoo()
        blocks = np.zeros((layout.n_u // p, p, p))
        blocks[Muu.row // p, Muu.row % p, Muu.col % p] = Muu.data
        self.L = np.linalg.cholesky(blocks)

    def _mul_L(self, W, transpose=False):
        L = self.L.transpose(0, 2, 1) if transpose else self.L
        return (L @ W.reshape(len(L), L.shape[1], -1)).reshape(W.shape)

    def _solve_lifted(self, W):
        """F^{-1} E L W, written over the right-hand sides E L W."""
        X = np.zeros((self.pencil.layout.size,) + W.shape[1:])
        X[self.vel] = self._mul_L(W)
        return self.fact.solve(X, out=X)

    def apply(self, W):
        return -self._mul_L(self._solve_lifted(W)[self.vel], transpose=True)

    def extract(self, nu, W):
        """Rayleigh-Ritz on (-K, -N), -N positive definite, over the lifted
        vectors; the lift is the last solve, so the factors are freed after it."""
        X = self._solve_lifted(W)
        self.fact = None
        X /= -nu                             # N E u = -E M u = -E L w
        Kr = -(X.T @ self.pencil.K.matvec(X))
        Nr = -(X.T @ (self.pencil.N @ X))
        lams, Y = eigh((Kr + Kr.T) / 2.0, (Nr + Nr.T) / 2.0)
        vectors = X @ Y
        del X
        residuals = _residuals(self.pencil, lams, vectors)
        layout = self.pencil.layout
        sigma = np.empty((len(lams), layout.n_sigma_full))
        u = np.empty((len(lams), layout.n_u))
        for i, x in enumerate(vectors.T):
            sigma[i], u[i] = layout.split(x)
        return SpectralSolution(lams, sigma, u, residuals, vectors)


def _residuals(pencil, lams, vectors):
    """|K x - lambda N x| / |x| for every column x of ``vectors``."""
    R = pencil.K.matvec(vectors) - (pencil.N @ vectors) * lams
    return np.linalg.norm(R, axis=0) / np.linalg.norm(vectors, axis=0)


def eigen_residuals(pencil, solution):
    """Recompute |K x - lambda N x| / |x| for every stored eigenpair."""
    x = solution.vectors
    if x.shape[0] != pencil.K.shape[0]:
        raise ValueError(f"eigenvectors have wrong dimension {x.shape[0]}")
    zero = np.flatnonzero(~np.any(x, axis=0))
    if zero.size:
        raise ValueError(f"eigenvector {zero[0]} is identically zero")
    return _residuals(pencil, solution.eigenvalues, x).tolist()
