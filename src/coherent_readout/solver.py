"""Physically constrained inversion of the readout model.

The mitigation problem is underdetermined: one observed distribution z
(N numbers) against N^2 state coordinates v = [x; y]. Rather than picking a
pseudoinverse solution, the solver minimises 0.5 * ||z - B v||^2 with
B = [A C] over the coordinates of density matrices, projecting every step
back onto that set in the Frobenius norm. Row k of P = [A, C/2] holds the
coordinates of the POVM element F_k, so P^T r is the gradient
sum_k r_k F_k, the step is v - s P^T (B v - z), and s is the inverse of the
largest eigenvalue of the Gram matrix G = P B^T, G_kl = Tr(F_k F_l), which
is computed only when a step is taken.

The descent starts from the density matrix nearest v* = P^T mu =
sum_k mu_k F_k, with mu the minimum-norm solution of G mu = z: of all
matrices that best explain z, v* is the one nearest 0 and, as
I = sum_k F_k, nearest I/N. That is the spectral projection of a
linear-inversion estimate (Smolin, Gambetta & Smith, PRL 108, 070502,
2012). A Cholesky factorization of G whose smallest squared pivot is
above sqrt(eps) times its largest certifies G positive definite, and mu
then comes from a plain solve; any other G (singular, as when two POVM
elements are equal, or nearly so) goes to the minimum-norm least-squares
solve. When v* is a state, it is its own projection and is taken as it
is, with no simplex step or rebuild: consistent data are then solved in
closed form, by the consistent state nearest I/N, the least pure one. The
start's projection first tries a Cholesky factorization, which takes a
positive definite v* of unit trace without an eigensolve; the loop's
projections, whose iterates mostly lie on the boundary, go straight to the
eigensolve.

The steps are accelerated with FISTA momentum (Beck & Teboulle, SIAM J.
Imaging Sci. 2, 183, 2009) and made monotone by a function-value restart
(O'Donoghue & Candes, Found. Comput. Math. 15, 715, 2015): a step that
would raise the residual is rejected and the momentum reset, so accepted
iterates never raise the residual.
A classical assignment-only inverter is included for comparison.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .linalg import Frozen, cholesky_gate
from .readout import ReadoutModel
from .states import assemble_matrix, split_matrix

_DISPLACEMENT_TOL = 1e-12
_SINGULAR_TOL = 1e-12
_PIVOT_RATIO = 1.5e-8  # about sqrt(eps): smallest squared pivot / largest, for solve


class SolverOptions(Frozen):
    __slots__ = __match_args__ = ("max_iterations", "residual_tol")

    def __init__(self, max_iterations: int = 5000, residual_tol: float = 1e-9):
        if isinstance(max_iterations, bool) or not isinstance(max_iterations, numbers.Integral):
            raise ValueError(f"max_iterations must be an integer, got {max_iterations!r}")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < residual_tol < np.inf:
            raise ValueError("residual_tol must be finite and positive")
        self._set(max_iterations=max_iterations, residual_tol=residual_tol)


_DEFAULT_OPTIONS = SolverOptions()


class MitigationProblem(Frozen):
    __slots__ = __match_args__ = ("model", "z_observed")

    def __init__(self, model: ReadoutModel, z_observed):
        z = np.array(z_observed, dtype=float)
        if z.shape != (model.dim,):
            raise ValueError(
                f"observed distribution must have shape ({model.dim},), got {z.shape}"
            )
        if not np.isfinite(z).all():
            raise ValueError("observed distribution contains non-finite entries")
        self._set(model=model, z_observed=z)


@dataclass(frozen=True, eq=False)
class MitigationResult:
    x_hat: np.ndarray
    y_hat: np.ndarray
    residual: float
    iterations: int
    converged: bool
    residual_history: tuple = field(repr=False, default=())

    @property
    def v_hat(self) -> np.ndarray:
        """Stacked coordinates [x_hat; y_hat], the solver's working vector."""
        return np.concatenate([self.x_hat, self.y_hat])


def assemble_b(model: ReadoutModel) -> np.ndarray:
    """Stacked model matrix B = [A C], mapping [x; y] to z."""
    return np.concatenate([model.assignment, model.coherence], axis=1)


def project_to_simplex(u) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.asarray(u, dtype=float)
    # The projection is unchanged by a common shift; shifting the largest
    # entry to 0 keeps the sums below from cancelling at large magnitudes
    # (for [1e150, 1e150], 1 - 2e150 rounds to -2e150), and makes index 1
    # feasible exactly: 0 + (1 - 0) / 1 > 0. Where the span of u exceeds the
    # float range, the shift and the sums reach -inf and NaN; neither passes
    # the feasibility test, so they change no result and need no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        u = u - u.max()
        srt = np.sort(u)[::-1]
        css = np.cumsum(srt)
        feasible = srt + (1.0 - css) / np.arange(1, u.size + 1) > 0.0
        if not feasible[0]:  # true for every finite u, whose shifted maximum is 0
            raise ValueError("cannot project a NaN or +inf entry")
        last = np.flatnonzero(feasible)[-1]
        tau = (1.0 - css[last]) / (last + 1)
        return np.maximum(u + tau, 0.0)


def project_to_density_set(x, y, gate: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Map raw coordinates to those of the nearest density matrix.

    Reconstructs the Hermitian matrix and projects its spectrum onto the
    probability simplex, which clips negative eigenvalues to zero and
    restores unit trace in one shifted-threshold step. That makes the map
    the metric projection onto the density set for every Hermitian matrix,
    which the gradient descent in mitigate() needs: a plain trace rescale
    after clipping can cancel a gradient step exactly (whenever the step is
    parallel to the iterate) and park the solver at a non-optimal point.
    The zero matrix maps to I/N, diag(-1, -2) to |0><0|. A NaN or +-inf
    coordinate gives a spectrum with a NaN, which raises ValueError.

    A state is its own projection and is returned as it is, in new arrays:
    where no eigenvalue is negative and the trace is within 1e-12 of 1,
    the projection would move the point by at most that trace error, which
    mitigate() already counts as no move. With gate, a positive definite
    matrix of such a trace is recognised by linalg.cholesky_gate with no
    shift, before any eigensolve; a matrix the gate declines, a
    rank-deficient state among them, takes the eigensolve as without it.
    """
    m = assemble_matrix(x, y)
    if gate:
        # An overflowing trace is inf, which fails the test. The array's own
        # sum costs half of np.sum(x), which pays for the errstate block.
        with np.errstate(over="ignore"):
            trace = np.asarray(x, dtype=float).sum()
        if abs(trace - 1.0) <= _DISPLACEMENT_TOL and cholesky_gate(m, 0.0):
            return np.array(x, dtype=float), np.array(y, dtype=float)
    w, v = np.linalg.eigh(m)
    # Given the other two tests, w[-1] <= w.sum() <= 1 + tol, so the middle
    # one changes no decision; it keeps a spectrum near the float range from
    # reaching the sum, where it would overflow.
    if w[0] >= 0.0 and w[-1] <= 1.0 + _DISPLACEMENT_TOL and abs(w.sum() - 1.0) <= _DISPLACEMENT_TOL:
        return np.array(x, dtype=float), np.array(y, dtype=float)
    w = project_to_simplex(w)
    return split_matrix((v * w) @ v.conj().T)


def _largest_eigenvalue(g: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric matrix g."""
    return float(np.linalg.eigvalsh(g)[-1])


def _residual(b: np.ndarray, v: np.ndarray, z: np.ndarray) -> float:
    """||z - B v||, inf where its square overflows; the caller judges that, so no warning."""
    r = z - b @ v
    with np.errstate(over="ignore"):
        return float(np.sqrt(r @ r))


def _start(p: np.ndarray, gram: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The density matrix nearest v* = sum_k mu_k F_k, else I/N.

    With mu the minimum-norm solution of G mu = z, v* = P^T mu is the
    matrix nearest 0 and I/N among those that best explain z (module
    docstring); it is its own projection when it is a state. mu comes from
    np.linalg.solve when the Cholesky factorization of G succeeds and its
    smallest squared pivot exceeds _PIVOT_RATIO times its largest, and from
    np.linalg.lstsq otherwise: a singular G can factor with a pivot of
    rounding size, where solve would give a v* far from the minimum-norm
    one. The projection runs with its Cholesky gate, so a positive definite
    v* of unit trace is taken with no eigensolve. Where v* is not finite,
    the start is I/N.
    """
    n = z.size
    try:
        pivots = np.linalg.cholesky(gram).diagonal() ** 2
        definite = pivots.min() > _PIVOT_RATIO * pivots.max()
    except np.linalg.LinAlgError:
        definite = False
    with np.errstate(over="ignore", invalid="ignore"):  # judged by the finiteness test
        mu = np.linalg.solve(gram, z) if definite else np.linalg.lstsq(gram, z, rcond=None)[0]
        v_star = p.T @ mu
    if not np.isfinite(v_star).all():
        return np.concatenate(split_matrix(np.eye(n) / n))
    return np.concatenate(project_to_density_set(v_star[:n], v_star[n:], gate=True))


def mitigate(problem: MitigationProblem, options: SolverOptions | None = None) -> MitigationResult:
    """Monotone FISTA on 0.5 ||z - B v||^2 over valid states.

    Starts from the density matrix nearest v* = sum_k mu_k F_k (module
    docstring), or from I/N (x = 1/N, y = 0) where v* is not finite. For
    consistent data v* is most often a state, returned after 0 iterations.
    The step size, 1 / lambda_max of the Gram matrix, is computed only when
    the start misses residual_tol and the loop runs.
    Each iteration extrapolates a point from the last two accepted iterates,
    takes a projected gradient step from it and accepts the result unless it
    raises the residual. A rejected step resets the momentum, so the next
    step is taken from the last accepted iterate itself; accepted iterates
    therefore never raise the residual, and the last one is returned.
    iterations counts every projected step, rejected ones included, so
    max_iterations bounds the loop's eigendecompositions; residual_history
    holds the start and every accepted residual. converged means the
    Euclidean residual reached residual_tol or a stationary point was
    reached: the projected step moved its point by less than 1e-12, or a
    step without momentum was rejected.
    """
    opts = options or _DEFAULT_OPTIONS
    model = problem.model
    z = problem.z_observed
    n = model.dim
    b = assemble_b(model)
    p = np.concatenate([model.assignment, model.coherence / 2.0], axis=1)
    gram = p @ b.T

    v = _start(p, gram, z)
    v_prev = v
    t = 1.0
    residual = _residual(b, v, z)
    if not math.isfinite(residual):
        raise ValueError("observed distribution is out of range: its residual overflows")
    history = [residual]
    converged = residual <= opts.residual_tol
    iterations = 0

    if not converged:
        # The F_k of a validated model sum to I, so lambda_max(G) >= 1^T G 1 / N = 1.
        step = 1.0 / _largest_eigenvalue(gram)

    while not converged and iterations < opts.max_iterations:
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        point = v + ((t - 1.0) / t_next) * (v - v_prev)
        trial = point - step * (p.T @ (b @ point - z))
        x_new, y_new = project_to_density_set(trial[:n], trial[n:])
        v_new = np.concatenate([x_new, y_new])
        iterations += 1

        residual_new = _residual(b, v_new, z)
        if residual_new > residual:
            if t == 1.0:
                # Without momentum the step cannot raise the residual beyond
                # roundoff (sufficient decrease at step 1/L): v is stationary.
                converged = True
            t = 1.0
            continue
        displacement = float(np.linalg.norm(v_new - point))
        v_prev, v = v, v_new
        t = t_next
        residual = residual_new
        history.append(residual)
        if residual <= opts.residual_tol or displacement < _DISPLACEMENT_TOL:
            converged = True

    return MitigationResult(
        x_hat=v[:n].copy(),
        y_hat=v[n:].copy(),
        residual=residual,
        iterations=iterations,
        converged=converged,
        residual_history=tuple(history),
    )


def classical_invert(model: ReadoutModel, z) -> np.ndarray:
    """Assignment-only mitigation: least-squares solve of A x = z, then simplex projection.

    z is read as MitigationProblem reads it: shape (N,), finite entries.
    """
    z = MitigationProblem(model, z).z_observed
    x_ls, _, _, svals = np.linalg.lstsq(model.assignment, z, rcond=None)
    if svals[-1] <= _SINGULAR_TOL * max(1.0, svals[0]):
        raise ValueError(
            f"assignment matrix is singular at tolerance {_SINGULAR_TOL:.1e} "
            f"(smallest singular value {svals[-1]:.3e})"
        )
    return project_to_simplex(x_ls)
