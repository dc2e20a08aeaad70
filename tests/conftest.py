import math

import numpy as np
import pytest
from hypothesis import strategies as st

from densecap import random_state


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(rng, dim=2):
    """Haar-ish unitary from the QR of a complex Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_states(n, seed, rank=4):
    return [random_state(seed=(seed, i), rank=rank) for i in range(n)]


def draw_family_params(data, name, count):
    """A valid parameter list of the given length for family name."""
    unit = st.floats(0.0, 1.0)
    if name == "bell_diagonal":
        raw = data.draw(st.lists(unit, min_size=4, max_size=4).filter(lambda w: sum(w) > 1e-3))
        return [w / sum(raw) for w in raw]
    if count == 1:
        return [data.draw(unit)]
    theta, phase_a, phase_b = (data.draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(3))
    if count == 2:  # real Schmidt amplitudes [a, b]
        return [math.cos(theta), math.sin(theta)]
    a = math.cos(theta) * complex(math.cos(phase_a), math.sin(phase_a))
    b = math.sin(theta) * complex(math.cos(phase_b), math.sin(phase_b))
    return [a.real, a.imag, b.real, b.imag]
