"""Shift-invert Lanczos on the velocity space for the pencil K x = lambda N x.

N = diag(0, -M, 0) sees only the velocity.  With F = K - theta N and E the
embedding of a velocity into the pencil, G w = -[F^{-1} E w]_u is symmetric
and the eigenpairs satisfy G M u = nu u, nu = 1 / (lambda - theta): G M is the
discrete solution operator, self-adjoint in the M inner product.  Symmetric
Lanczos runs on S = L^T G L (M = L L^T element by element, w = L^T u); each
u lifts to x = F^{-1} N E u / nu, and Rayleigh-Ritz on (K, N) over the lifted
vectors gives the eigenvalues with M-orthonormal velocities.

A Lanczos step never solves with the whole F.  E L w lies on the triangles'
groups of unknowns (their velocity and interior stress), which couple only
through the edge stress R, so static condensation gives

    S w = -(D w + P^T H^-1 P w),  D_T = L_T^T (Q_T^-1)_uu L_T,  P_T = C_T^T Q_T^-1 E_u L_T,

with Q_T the group block of triangle T, C_T its coupling to R and H the
Schur complement on R that SuperLU factorizes (``sparselin.RestrictedInverse``):
one block product, P w, one solve with H and P^T y, on vectors of the
velocity and of R only.
The lift and the condition estimate solve with F itself.

The pencil keeps K - theta0 N (theta0 = -1) as a view of the forms.  Every
finite eigenvalue is positive, so for a shift at or below 0 the wanted pairs
are the lowest and F is that matrix, positive definite once the velocity is
condensed; a positive shift factorizes the indefinite K - theta N, made from
the same element blocks and condensed the same way, with the same diagonal
pivots.  On a strongly graded mesh the condensed lift can miss the residual
bound; then the whole F is factorized once, with partial pivoting, and the
lift is made with it.  N enters only as -M on the velocity: Rayleigh-Ritz
and the residuals multiply with M, and L comes from the element mass
blocks.  The Rayleigh-Ritz values and the residuals add theta0 back, so
what is reported is that of K x = lambda N x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import eigh

from .errors import (ConfigurationError, ShiftAtEigenvalueError, SingularMatrixError,
                     UnconvergedError, check_int, is_finite)
from .sparselin import _CHUNK, factorize

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
    K, n_u = pencil.K, pencil.layout.n_u
    if cfg.nev > n_u:
        # the pencil has n_u finite eigenvalues; fail before the dense path's
        # n_u right-hand sides are allocated
        raise UnconvergedError(f"only {n_u} of {cfg.nev} eigenpairs exist: the velocity "
                               f"space has {n_u} dofs")
    bound = 1e-8 * K.norm_inf()
    try:
        fact = factorize(_shifted(pencil, cfg.shift))
    except SingularMatrixError as exc:
        # a singular element block need not make the shift an eigenvalue of the
        # pencil, but another shift is the remedy in both cases
        raise ShiftAtEigenvalueError(
            f"shift {cfg.shift} is (numerically) an eigenvalue of the pencil or of an "
            f"eliminated element block: {exc}") from exc
    op = _VelocityOperator(pencil, cfg.shift, fact, bound)
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
    if np.any(sol.residuals > bound):
        raise UnconvergedError(
            f"residual {sol.residuals.max():.3e} exceeds 1e-8 |K|_inf = {bound:.3e}",
            partial=sol)
    return sol


def _shifted(pencil, shift):
    """F = K - theta N for the shift theta that is factorized.  Every finite
    eigenvalue is positive, so for any shift at or below 0 the wanted pairs
    are the lowest, and the pencil's K - theta0 N, positive definite once
    condensed, serves; a positive shift makes F indefinite.  theta N couples
    a triangle's velocity dofs only with each other, so F has the same
    element groups, and ``factorize`` pivots it the same way."""
    return pencil.K if shift <= 0.0 else pencil.K.at(shift)


def _dominant(nu, W, count):
    """The ``count`` pairs of largest |nu|, without the null space of G."""
    keep = np.argsort(-np.abs(nu))[:count]
    keep = keep[np.abs(nu[keep]) > _NULL_TOL * np.abs(nu).max()]
    return nu[keep], W[:, keep]


class _VelocityOperator:
    """S = L^T G L = -(E L)^T F^-1 (E L) on velocity vectors, through the LU
    factors of F = K - theta N condensed to the velocity (``RestrictedInverse``)."""

    def __init__(self, pencil, shift, fact, bound):
        self.pencil, self.shift, self.fact, self.bound = pencil, shift, fact, bound
        self.vel = pencil.layout.velocity
        # M = -N_uu has one dense pk.dim^2 block per (triangle, component)
        self.L = np.linalg.cholesky(pencil.forms.M_T)
        # E L by triangles: the velocity is the last 2p unknowns of a
        # triangle's group (PencilMatrix.element_blocks), component c first
        nt, p = len(self.L) // 2, self.L.shape[1]
        EL = np.zeros((nt, 2 * p, 2 * p))
        EL[:, :p, :p], EL[:, p:, p:] = self.L[0::2], self.L[1::2]
        self.inverse = fact.restrict(EL)
        self._product = np.empty(pencil.layout.n_u)

    def _mul_L(self, W, out=None):
        """L W, into ``out`` when given."""
        shape = (len(self.L), self.L.shape[1], -1)
        LW = np.matmul(self.L, W.reshape(shape), out=None if out is None else out.reshape(shape))
        return LW.reshape(W.shape)

    def _solve_lifted(self, W):
        """F^{-1} E L W, written over the right-hand sides E L W."""
        # filled, not calloc'ed: the solve reads the zeros, then writes them
        X = np.full((self.pencil.layout.size,) + W.shape[1:], 0.0)
        self._mul_L(W, out=X[self.vel])
        return self.fact.solve(X, out=X)

    def apply(self, W):
        # ARPACK copies each product, so one buffer takes every vector's
        SW = self.inverse.apply(W, out=self._product if W.ndim == 1 else None)
        return np.negative(SW, out=SW)

    def extract(self, nu, W):
        """Rayleigh-Ritz on (-K, -N), -N positive definite, over the lifted
        vectors X = F^-1 E L W / -nu; the lift is the last solve, so the
        factors are freed after it.  The condensed solve is backward stable
        for the Schur complement, whose entries grow as h^-2 on graded
        meshes, and so are its residuals against F: when a Ritz residual
        exceeds the bound, the whole F is factorized once, with partial
        pivoting, and the lift made again with it, at F's own scale (Skeel,
        Math. Comp. 35, 1980).  The Lanczos pairs need no more."""
        sol = self._rayleigh_ritz(self._lift(nu, W))
        if np.any(sol.residuals > self.bound):
            self.fact = factorize(_shifted(self.pencil, self.shift).sp)
            sol = self._rayleigh_ritz(self._lift(nu, W))
        return sol

    def _lift(self, nu, W):
        """X = F^-1 E L W / -nu, the last solve with the factors, which are freed."""
        self.inverse = None
        X = self._solve_lifted(W)
        self.fact = None
        X /= -nu                             # N E u = -E M u = -E L w
        return X

    def _rayleigh_ritz(self, X):
        KX = self.pencil.K.matvec(X)
        Kr = -(X.T @ KX)
        Xu = X[self.vel]
        Nr = Xu.T @ (self.pencil.forms.M @ Xu)      # -N = M on the velocity
        lams, Y = eigh((Kr + Kr.T) / 2.0, (Nr + Nr.T) / 2.0)
        lams += self.pencil.theta0          # K = (K - theta0 N) + theta0 N
        vectors = _rotate(X, Y)
        residuals = _residuals(self.pencil, lams, vectors, _rotate(KX, Y))
        layout = self.pencil.layout
        sigma = np.empty((len(lams), layout.n_sigma_full))
        u = np.empty((len(lams), layout.n_u))
        for i, x in enumerate(vectors.T):
            sigma[i], u[i] = layout.split(x)
        return SpectralSolution(lams, sigma, u, residuals, vectors)


def _rotate(X, Y):
    """X Y for a square Y, written over X a chunk of rows at a time."""
    step = max(1, _CHUNK // X.shape[1])
    for i in range(0, len(X), step):
        X[i:i + step] = X[i:i + step] @ Y
    return X


def _residuals(pencil, lams, vectors, KX=None):
    """|K x - lambda N x| / |x| for every column x of ``vectors``, from the
    pencil's K - theta0 N (its product ``KX`` with the vectors, when given,
    is overwritten) and -N = M on the velocity."""
    R = pencil.K.matvec(vectors) if KX is None else KX
    vel = pencil.layout.velocity
    MX = pencil.forms.M @ vectors[vel]
    MX *= lams - pencil.theta0
    R[vel] += MX
    return np.sqrt(np.einsum("ij,ij->j", R, R) / np.einsum("ij,ij->j", vectors, vectors))


def eigen_residuals(pencil, solution):
    """Recompute |K x - lambda N x| / |x| for every stored eigenpair."""
    x = solution.vectors
    if x.shape[0] != pencil.K.shape[0]:
        raise ValueError(f"eigenvectors have wrong dimension {x.shape[0]}")
    zero = np.flatnonzero(~np.any(x, axis=0))
    if zero.size:
        raise ValueError(f"eigenvector {zero[0]} is identically zero")
    return _residuals(pencil, solution.eigenvalues, x).tolist()
