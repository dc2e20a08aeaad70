"""Two-qubit state constructors, the Pauli correlation picture, and I/O.

A state is a plain 4x4 complex ndarray (Hermitian, unit trace, PSD).  The
constructors cover the families used throughout: Schmidt-form pure states,
the Bell basis, the two lambda families, Werner states, Bell-diagonal
mixtures, and seeded random density matrices of prescribed rank.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidState, NotASimplex, NotNormalized, OutOfRange
from .linalg import ID2, PAULIS, tensor

STATE_HERM_TOL = 1e-12
STATE_TRACE_TOL = 1e-12
STATE_PSD_TOL = 1e-10

# column vectors in the |00>,|01>,|10>,|11> basis
BELL_VECTORS = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}

FAMILIES = ("pure_schmidt", "lambda_a", "lambda_b", "werner", "bell_diagonal")


def projector(vec):
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def validate_state(rho, name="state"):
    """Check the density-matrix invariants, returning rho as complex ndarray."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape not in ((2, 2), (4, 4)):
        raise InvalidState(f"{name}: expected 2x2 or 4x4, got {rho.shape}")
    herm_err = np.abs(rho - rho.conj().T).max()
    # any inf or nan entry makes the residual inf or nan, so one scalar test finds it
    if not math.isfinite(herm_err):
        raise InvalidState(f"{name}: has non-finite entries")
    if herm_err > STATE_HERM_TOL:
        raise InvalidState(f"{name}: not Hermitian within {STATE_HERM_TOL:.0e}")
    if abs(rho.trace().real - 1.0) > STATE_TRACE_TOL or abs(rho.trace().imag) > STATE_TRACE_TOL:
        raise InvalidState(f"{name}: trace {rho.trace():.6g} != 1")
    if np.linalg.eigvalsh(rho).min() < -STATE_PSD_TOL:
        raise InvalidState(f"{name}: negative eigenvalue beyond {STATE_PSD_TOL:.0e}")
    return rho


def is_valid_state(rho):
    try:
        validate_state(rho)
    except InvalidState:
        return False
    return True


def pure_schmidt(a, b):
    """Projector onto a|00> + b|11> for a normalized amplitude pair."""
    a, b = complex(a), complex(b)
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-12:
        raise NotNormalized(f"|a|^2 + |b|^2 = {abs(a)**2 + abs(b)**2:.15g}")
    vec = np.array([a, 0, 0, b], dtype=complex)
    return projector(vec)


def bell(which):
    """Projector onto one of the four Bell states ('phi+','phi-','psi+','psi-')."""
    key = which.lower().replace("−", "-")
    if key not in BELL_VECTORS:
        raise ValueError(f"unknown Bell label {which!r}")
    return projector(BELL_VECTORS[key])


def _check_unit_interval(x, name):
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise OutOfRange(f"{name} = {x} outside [0, 1]")
    return x


def unit_param(params):
    """The single family parameter in [0, 1] from a parameter list."""
    lam = float(np.atleast_1d(params)[0])
    if not 0.0 <= lam <= 1.0:
        raise OutOfRange(f"parameter {lam} outside [0, 1]")
    return lam


def pure_weight(params):
    """Schmidt weight |a|^2 from either [a, b] amplitudes or [|a|^2]."""
    arr = np.atleast_1d(np.asarray(params, dtype=complex))
    if arr.size == 1:
        a2 = float(arr[0].real)
    elif arr.size == 2:
        a2 = float(abs(arr[0]) ** 2)
        if abs(a2 + abs(arr[1]) ** 2 - 1.0) > 1e-10:
            raise OutOfRange("Schmidt amplitudes are not normalized")
    else:
        raise OutOfRange("pure family takes [|a|^2] or [a, b]")
    if not 0.0 <= a2 <= 1.0:
        raise OutOfRange(f"|a|^2 = {a2} outside [0, 1]")
    return a2


def lambda_a(lam):
    """Mixture lam * |phi+><phi+| + (1-lam) * |01><01|."""
    lam = _check_unit_interval(lam, "lambda")
    vec01 = np.array([0, 1, 0, 0], dtype=complex)
    return lam * bell("phi+") + (1 - lam) * projector(vec01)


def lambda_b(lam):
    """Mixture lam * |phi+><phi+| + (1-lam) * |00><00|."""
    lam = _check_unit_interval(lam, "lambda")
    vec00 = np.array([1, 0, 0, 0], dtype=complex)
    return lam * bell("phi+") + (1 - lam) * projector(vec00)


def werner(fidelity):
    """Weight-F singlet mixed evenly with the other three Bell states."""
    f = _check_unit_interval(fidelity, "fidelity")
    rest = (1 - f) / 3
    return bell_diagonal([f, rest, rest, rest])


def bell_diagonal(weights):
    """Mixture of Bell projectors with weights ordered (psi-, psi+, phi+, phi-)."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (4,):
        raise NotASimplex(f"need 4 weights, got shape {w.shape}")
    if w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-12:
        raise NotASimplex(f"weights {w.tolist()} do not form a simplex")
    order = ("psi-", "psi+", "phi+", "phi-")
    rho = np.zeros((4, 4), dtype=complex)
    for wi, name in zip(w, order):
        rho += wi * bell(name)
    return rho


@dataclass(frozen=True)
class PauliDecomposition:
    """Bloch and correlation coefficients of a two-qubit operator.

    rho = (1/4)[I x I + sum_m r[m] sigma_m x I + sum_m s[m] I x sigma_m
               + sum_mn t[m, n] sigma_m x sigma_n]
    """

    r: np.ndarray  # Alice Bloch vector, shape (3,)
    s: np.ndarray  # Bob Bloch vector, shape (3,)
    t: np.ndarray  # correlation matrix, shape (3, 3)


def to_pauli(rho):
    """Expand a state in the Pauli product basis."""
    rho = validate_state(rho)
    r = np.array([np.trace(rho @ tensor(p, ID2)).real for p in PAULIS])
    s = np.array([np.trace(rho @ tensor(ID2, p)).real for p in PAULIS])
    t = np.array(
        [[np.trace(rho @ tensor(pm, pn)).real for pn in PAULIS] for pm in PAULIS]
    )
    return PauliDecomposition(r=r, s=s, t=t)


def from_pauli(dec):
    """Rebuild the 4x4 state from Pauli coefficients; must be a valid state."""
    rho = np.eye(4, dtype=complex)
    for m in range(3):
        rho += dec.r[m] * tensor(PAULIS[m], ID2)
        rho += dec.s[m] * tensor(ID2, PAULIS[m])
        for n in range(3):
            rho += dec.t[m, n] * tensor(PAULIS[m], PAULIS[n])
    rho /= 4.0
    return validate_state(rho, "from_pauli output")


def random_state(seed, rank=4):
    """Seeded random density matrix of the requested rank.

    Draws a 4 x rank complex Gaussian matrix G and returns G G^dag
    normalized to unit trace (a pure state on a rank-sized extension,
    traced down), which has full support on a rank-dimensional subspace
    almost surely.
    """
    rank = int(rank)
    if not 1 <= rank <= 4:
        raise OutOfRange(f"rank must be 1..4, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    # exact Hermitian symmetrization kills last-bit asymmetry
    return (rho + rho.conj().T) / 2


def state_to_json_dict(rho, family=None, params=None):
    """Serialize a state to the shared JSON schema."""
    if family is not None and family != "explicit":
        return {"family": family, "params": list(map(float, params))}
    rho = np.asarray(rho, dtype=complex)
    return {
        "family": "explicit",
        "params": [],
        "matrix": {"re": rho.real.tolist(), "im": rho.imag.tolist()},
    }


def state_from_json_dict(doc):
    """Build a state from the shared JSON schema; returns (rho, family, params)."""
    family = doc.get("family")
    params = list(doc.get("params", []))
    if family == "explicit":
        mat = doc["matrix"]
        rho = np.asarray(mat["re"], dtype=float) + 1j * np.asarray(mat["im"], dtype=float)
        return validate_state(rho, "explicit state"), None, None
    rho = build_family_state(family, params)
    return rho, family, params


def build_family_state(family, params):
    """Construct a named-family state from its parameter list."""
    params = [float(p) for p in params]
    if family == "pure_schmidt":
        if len(params) == 2:
            return pure_schmidt(params[0], params[1])
        if len(params) == 4:
            return pure_schmidt(complex(params[0], params[1]), complex(params[2], params[3]))
        raise OutOfRange("pure_schmidt takes [a, b] or [re_a, im_a, re_b, im_b]")
    if family == "lambda_a":
        (lam,) = params
        return lambda_a(lam)
    if family == "lambda_b":
        (lam,) = params
        return lambda_b(lam)
    if family == "werner":
        (f,) = params
        return werner(f)
    if family == "bell_diagonal":
        return bell_diagonal(params)
    raise ValueError(f"unknown family {family!r}")
