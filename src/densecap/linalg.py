"""Dense complex matrix primitives for two-qubit (4x4) problems.

Basis ordering is |00>, |01>, |10>, |11> with Alice on the left (high) qubit,
so a local operation U on Alice's qubit acts as kron(U, I).
"""

import numpy as np

from .errors import BadDimension, NonUnitary, OutOfRange

UNITARY_TOL = 1e-10

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def as_numbers(value, error, what, kinds="iufc"):
    """np.asarray(value) if its dtype kind is in kinds (no bools, text or objects); else error."""
    try:
        array = np.asarray(value)
    except ValueError as exc:  # a ragged nested list
        raise error(f"{what}: not an array of numbers ({exc})") from exc
    if array.dtype.kind not in kinds:
        raise error(f"{what}: entries of dtype {array.dtype} are not numbers")
    return array


def check_choice(value, choices, name):
    """value if it is a string among choices; else OutOfRange."""
    if not (isinstance(value, str) and value in choices):
        raise OutOfRange(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return value


def tensor(a, b):
    """Kronecker product, first factor on the high (Alice) qubit; OutOfRange on a non-finite entry."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry fails the test below
        out = np.kron(*(as_numbers(m, OutOfRange, "tensor factor").astype(complex) for m in (a, b)))
    if not np.isfinite(out).all():
        raise OutOfRange("tensor: a factor or a product entry is not finite")
    return out


# the 15 Pauli products: sigma_m x I, then I x sigma_m, then sigma_m x sigma_n (n fastest)
PAULI_PRODUCTS = np.stack(
    [tensor(p, ID2) for p in PAULIS] + [tensor(ID2, p) for p in PAULIS]
    + [tensor(pm, pn) for pm in PAULIS for pn in PAULIS]
)
SPIN_FLIP = tensor(SIGMA_Y, SIGMA_Y)


def as_matrix(m, sizes, error=BadDimension, name="matrix"):
    """m as a complex n x n ndarray, n in sizes, if its entries are finite numbers; else error."""
    m = as_numbers(m, error, name).astype(complex, copy=False)
    if m.shape not in [(n, n) for n in sizes]:
        raise error(f"{name}: expected {' or '.join(f'{n}x{n}' for n in sizes)}, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise error(f"{name}: has non-finite entries")
    return m


def partial_trace(m, over):
    """Trace out one qubit of a 4x4 operator.

    over="A" removes Alice's (left) qubit, over="B" removes Bob's.
    """
    m = as_matrix(m, (4,)).reshape(2, 2, 2, 2)
    if check_choice(over, ("A", "B"), "subsystem") == "A":
        return np.einsum("ijik->jk", m)
    return np.einsum("ijkj->ik", m)


def partial_transpose(m, on="B"):
    """Transpose the indices of one qubit of a 4x4 operator."""
    m = as_matrix(m, (4,)).reshape(2, 2, 2, 2)
    axes = (2, 1, 0, 3) if check_choice(on, ("A", "B"), "subsystem") == "A" else (0, 3, 2, 1)
    return m.transpose(axes).reshape(4, 4)


def check_unitary(u):
    """u as a complex ndarray if a 2x2 unitary within UNITARY_TOL; else BadDimension or NonUnitary."""
    u = as_matrix(u, (2,))
    # an entry of modulus above 1 fails before it reaches the product (as_matrix fails inf or NaN)
    if not (np.abs(u).max() <= 1 + UNITARY_TOL and np.abs(u @ u.conj().T - ID2).max() <= UNITARY_TOL):
        raise NonUnitary(f"local operation is not unitary within {UNITARY_TOL:.0e}")
    return u


def conjugate_local(w, u):
    """Conjugate a two-qubit operator by a unitary on Alice's qubit only.

    Returns (U x I) W (U x I)^dag, with U x I built entry for entry as np.kron builds it, without
    its cost; spectrum and trace are preserved.
    """
    w = as_matrix(w, (4,))
    big = (check_unitary(u)[:, None, :, None] * ID2[None, :, None, :]).reshape(4, 4)
    return big @ w @ big.conj().T
