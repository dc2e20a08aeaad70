"""Dense complex matrix primitives for two-qubit (4x4) problems.

Basis ordering is |00>, |01>, |10>, |11> with Alice on the left (high) qubit,
so a local operation U on Alice's qubit acts as kron(U, I).
"""

import numpy as np

from .errors import BadDimension, NonUnitary, OutOfRange

UNITARY_TOL = 1e-10

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def dagger(m):
    return m.conj().T


def tensor(a, b):
    """Kronecker product with the first factor on the high (Alice) qubit."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


# the 15 Pauli products: sigma_m x I, then I x sigma_m, then sigma_m x sigma_n (n fastest)
PAULI_PRODUCTS = np.stack(
    [tensor(p, ID2) for p in PAULIS] + [tensor(ID2, p) for p in PAULIS]
    + [tensor(pm, pn) for pm in PAULIS for pn in PAULIS]
)
SPIN_FLIP = tensor(SIGMA_Y, SIGMA_Y)


def _require_4x4(m):
    try:
        m = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise BadDimension(f"expected a 4x4 matrix, got {type(m).__name__} ({exc})") from exc
    if m.shape != (4, 4):
        raise BadDimension(f"expected a 4x4 matrix, got shape {m.shape}")
    return m


def partial_trace(m, over):
    """Trace out one qubit of a 4x4 operator.

    over="A" removes Alice's (left) qubit, over="B" removes Bob's.
    """
    m = _require_4x4(m).reshape(2, 2, 2, 2)
    if over == "A":
        return np.einsum("ijik->jk", m)
    if over == "B":
        return np.einsum("ijkj->ik", m)
    raise OutOfRange(f"subsystem must be 'A' or 'B', got {over!r}")


def partial_transpose(m, on="B"):
    """Transpose the indices of one qubit of a 4x4 operator."""
    m = _require_4x4(m).reshape(2, 2, 2, 2)
    if on == "A":
        out = m.transpose(2, 1, 0, 3)
    elif on == "B":
        out = m.transpose(0, 3, 2, 1)
    else:
        raise OutOfRange(f"subsystem must be 'A' or 'B', got {on!r}")
    return out.reshape(4, 4)


def is_unitary(u):
    u = np.asarray(u, dtype=complex)
    return bool(np.abs(u @ dagger(u) - np.eye(u.shape[0])).max() <= UNITARY_TOL)


def conjugate_local(w, u):
    """Conjugate a two-qubit operator by a unitary on Alice's qubit only.

    Returns (U x I) W (U x I)^dag; spectrum and trace are preserved.
    """
    w = _require_4x4(w)
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise BadDimension(f"expected a 2x2 unitary, got shape {u.shape}")
    if not is_unitary(u):
        raise NonUnitary(f"local operation is not unitary within {UNITARY_TOL:.0e}")
    big = tensor(u, ID2)
    return big @ w @ dagger(big)
