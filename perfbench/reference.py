"""Independent plain-numpy reference used by every correctness check.

Nothing here imports coherent_readout: the benchmark's inputs are generated
here from a seeded numpy Generator, and the package's outputs are checked
against quantities computed straight from the Kraus operators. The state
coordinate layout (populations x, then (Re, Im) of each upper-triangle
entry in lexicographic pair order) is re-derived here from its definition,
so a layout change in the package shows up as a failed check.
"""

from __future__ import annotations

import itertools

import numpy as np

# Feasibility of a returned state: Hermitian, unit trace, no eigenvalue
# below -FEASIBILITY_TOL.
FEASIBILITY_TOL = 1e-10

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_I2, _X, _Y, _Z)


# ---------------------------------------------------------------- inputs


def random_kraus(rng: np.random.Generator, dim: int, n_kraus: int) -> list[np.ndarray]:
    """Random CPTP channel: complex Gaussian operators G_a right-multiplied by S^-1/2."""
    g = rng.standard_normal((n_kraus, dim, dim)) + 1j * rng.standard_normal((n_kraus, dim, dim))
    s = np.einsum("aji,ajk->ik", g.conj(), g)
    w, v = np.linalg.eigh(s)
    s_inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return list(g @ s_inv_sqrt)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random state G G^dag / Tr(G G^dag)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def near_pure_state(rng: np.random.Generator, dim: int, mixing: float = 0.02) -> np.ndarray:
    """A random pure state mixed with the maximally mixed state by the weight `mixing`."""
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return (1.0 - mixing) * np.outer(psi, psi.conj()) + mixing * np.eye(dim) / dim


def dephasing_kraus(lam: float) -> list[np.ndarray]:
    return [np.sqrt((1.0 + lam) / 2.0) * _I2, np.sqrt((1.0 - lam) / 2.0) * _Z]


def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    e1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return [e0, e1]


def rotation_y_kraus(theta: float) -> list[np.ndarray]:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return [np.array([[c, s], [-s, c]], dtype=complex)]


def pauli_kraus(probs) -> list[np.ndarray]:
    """sqrt(p_i) P_i over n-qubit Pauli strings, I X Y Z per qubit, first qubit most significant."""
    probs = np.asarray(probs, dtype=float)
    n = int(round(np.log(probs.size) / np.log(4)))
    ops = []
    for p, letters in zip(probs, itertools.product(range(4), repeat=n)):
        if p > 0.0:
            op = np.eye(1, dtype=complex)
            for letter in letters:
                op = np.kron(op, _PAULIS[letter])
            ops.append(np.sqrt(p) * op)
    return ops


def tensor_kraus(a, b) -> list[np.ndarray]:
    return [np.kron(x, y) for x in a for y in b]


# ------------------------------------------------------------ reference


def kraus_probabilities(ops, rho) -> np.ndarray:
    """Outcome probabilities sum_a diag(E_a rho E_a^dag) of a basis measurement after the channel."""
    ops = np.asarray(ops)
    return np.einsum("aki,ij,akj->k", ops, np.asarray(rho), ops.conj()).real


def assignment_matrix(ops) -> np.ndarray:
    """A[k, l] = sum_a |<k|E_a|l>|^2, the probability of outcome k from basis state l."""
    return np.sum(np.abs(np.asarray(ops)) ** 2, axis=0)


def readout_model(ops) -> tuple[np.ndarray, np.ndarray]:
    """A and C with p(rho) = A x + C y, from the Kraus sum, which is linear in the coordinates."""
    dim = np.asarray(ops).shape[1]
    n_y = dim * (dim - 1)
    columns = [kraus_probabilities(ops, coords_to_matrix(np.zeros(dim), e)) for e in np.eye(n_y)]
    return assignment_matrix(ops), np.column_stack(columns) if columns else np.zeros((dim, 0))


def povm_offdiag_defect(ops) -> float:
    """Largest off-diagonal magnitude of F_k = sum_a E_a^dag |k><k| E_a over all k."""
    ops = np.asarray(ops)
    effects = np.einsum("aki,akj->kij", ops.conj(), ops)
    mask = ~np.eye(ops.shape[1], dtype=bool)
    return float(np.max(np.abs(effects[:, mask]))) if mask.any() else 0.0


def classical_best_fit(a, z) -> tuple[float, np.ndarray]:
    """Exact min ||z - A x|| over the population simplex, and a minimiser x.

    Enumerates the supports S of x: on each, the least-squares solution with
    sum(x_S) = 1 (from its KKT system) is a candidate when it is
    non-negative. The minimiser lies in the relative interior of some face,
    so the best candidate is the optimum. 2^N - 1 supports, cheap at N <= 8.
    """
    a = np.asarray(a, dtype=float)
    z = np.asarray(z, dtype=float)
    n = a.shape[1]
    best_r, best_x = np.inf, None
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            cols = a[:, support]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = cols.T @ cols
            kkt[:size, size] = kkt[size, :size] = 1.0
            w = np.linalg.lstsq(kkt, np.r_[cols.T @ z, 1.0], rcond=None)[0][:size]
            if w.min() < -1e-12:
                continue
            x = np.zeros(n)
            x[list(support)] = np.clip(w, 0.0, None)
            x /= x.sum()
            r = float(np.linalg.norm(z - a @ x))
            if r < best_r:
                best_r, best_x = r, x
    return best_r, best_x


def coords_to_matrix(x, y) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    upper = np.zeros((n, n), dtype=complex)
    upper[np.triu_indices(n, 1)] = y[0::2] + 1j * y[1::2]
    return upper + upper.conj().T + np.diag(x)


def matrix_to_coords(rho) -> tuple[np.ndarray, np.ndarray]:
    rho = np.asarray(rho)
    entries = rho[np.triu_indices(rho.shape[0], 1)]
    y = np.empty(2 * entries.size)
    y[0::2] = entries.real
    y[1::2] = entries.imag
    return rho.diagonal().real.copy(), y


def feasibility_errors(rho, tol: float = FEASIBILITY_TOL) -> list[str]:
    """Reasons rho is not a density matrix; empty when it is one."""
    rho = np.asarray(rho)
    errors = []
    if not np.all(np.isfinite(rho)):
        return ["state has non-finite entries"]
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > tol:
        errors.append(f"not Hermitian: defect {herm:.3e}")
    trace_defect = abs(complex(np.trace(rho)) - 1.0)
    if trace_defect > tol:
        errors.append(f"trace off by {trace_defect:.3e}")
    w_min = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    if w_min < -tol:
        errors.append(f"negative eigenvalue {w_min:.3e}")
    return errors


def residual(ops, rho, z) -> float:
    """||z - p(rho)|| with p from the Kraus sum, independent of any readout model."""
    return float(np.linalg.norm(np.asarray(z) - kraus_probabilities(ops, rho)))
