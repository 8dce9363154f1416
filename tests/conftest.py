import numpy as np
import pytest


def random_hermitian(dim: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_complex(dim: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def almost_hermitian_with_a_state_below():
    """A unit-trace matrix within the 1e-10 hermiticity tolerance whose lower triangle is that
    of the pure state |v><v| (v uniform on 8 levels), but whose Hermitian part has eigenvalue
    -3.15e-10 on the alternating vector, which |v><v| annihilates."""
    w = np.resize([1.0, -1.0], 8)
    skew = -0.45e-10 * np.triu(np.outer(w, w), 1)
    return np.full((8, 8), 1.0 / 8.0) + 2.0 * skew


@pytest.fixture
def write_json(tmp_path):
    import json

    def _write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return _write
