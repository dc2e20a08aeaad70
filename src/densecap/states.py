"""Two-qubit state constructors, the Pauli correlation picture, and I/O.

A state is a plain 4x4 complex ndarray (Hermitian, unit trace, PSD).  The
constructors cover the families used throughout: Schmidt-form pure states,
the Bell basis, the two lambda families, Werner states, Bell-diagonal
mixtures, and seeded random density matrices of prescribed rank.

FAMILIES is the one table of named families.  Each row says which
parameter lists the family takes and holds its constructor and its closed
forms for the SDC capacity and the relative entropy of entanglement;
parse_family is the one reader of a (name, params) pair.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidState, NotASimplex, NotNormalized, OutOfRange
from .linalg import PAULI_PRODUCTS

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


def xlog2x(x):
    """x log2 x for a scalar x >= 0, with 0 log 0 = 0."""
    return x * math.log2(x) if x > 0.0 else 0.0


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    total = 0.0
    for p in (x, 1.0 - x):
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def check_simplex(probs, n=None, tol=1e-12):
    """Validate a probability vector; returns it as a float array."""
    try:
        p = np.asarray(probs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise NotASimplex(f"probabilities {probs!r} are not numbers") from exc
    if p.ndim != 1 or p.size == 0 or (n is not None and p.size != n):
        raise NotASimplex(f"expected {n or 'some'} probabilities, got shape {p.shape}")
    # the accepting condition, negated, so that a NaN entry fails it
    if not (p.min() >= -tol and abs(p.sum() - 1.0) <= tol):
        raise NotASimplex(f"probabilities {p.tolist()} do not form a simplex")
    return np.clip(p, 0.0, None)


def _check_unit_interval(x, name):
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise OutOfRange(f"{name} = {x} outside [0, 1]")
    return x


def _schmidt_amplitudes(a, b):
    a, b = complex(a), complex(b)
    norm = abs(a) ** 2 + abs(b) ** 2
    if not abs(norm - 1.0) <= 1e-12:
        raise NotNormalized(f"|a|^2 + |b|^2 = {norm:.15g}")
    return a, b


def pure_schmidt(a, b):
    """Projector onto a|00> + b|11> for a normalized amplitude pair."""
    a, b = _schmidt_amplitudes(a, b)
    vec = np.array([a, 0, 0, b], dtype=complex)
    return projector(vec)


def bell(which):
    """Projector onto one of the four Bell states ('phi+','phi-','psi+','psi-')."""
    key = which.lower().replace("−", "-")
    if key not in BELL_VECTORS:
        raise OutOfRange(f"unknown Bell label {which!r}")
    return projector(BELL_VECTORS[key])


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
    w = check_simplex(weights, n=4)
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
    coeffs = np.einsum("ij,kji->k", rho, PAULI_PRODUCTS).real  # Tr[rho P_k]
    return PauliDecomposition(r=coeffs[:3], s=coeffs[3:6], t=coeffs[6:].reshape(3, 3))


def from_pauli(dec):
    """Rebuild the 4x4 state from Pauli coefficients; must be a valid state."""
    coeffs = np.concatenate([dec.r, dec.s, np.ravel(dec.t)])
    rho = (np.eye(4, dtype=complex) + np.tensordot(coeffs, PAULI_PRODUCTS, 1)) / 4.0
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


# ---------------------------------------------------------------------------
# closed forms, in bits, of the SDC capacity C and of E_R for each family
# ---------------------------------------------------------------------------


def _pure_capacity(a, b):
    a2 = abs(a) ** 2
    return 1.0 - xlog2x(a2) - xlog2x(1.0 - a2)


def _pure_er(a, b):
    return binary_entropy(abs(a) ** 2)


def _lambda_a_capacity(lam):
    return (
        xlog2x(1.0 - lam)
        + 0.5 * (lam - 2.0) * math.log2(1.0 - lam / 2.0)
        + 0.5 * xlog2x(lam)
        + 1.0
        + lam / 2.0
    )


def _lambda_a_er(lam):
    value = (lam - 2.0) * math.log2(1.0 - lam / 2.0) + xlog2x(1.0 - lam)
    return max(value, 0.0)


def _lambda_b_capacity(lam):
    s_plus = (1.0 + math.sqrt(1.0 - 2.0 * lam * (1.0 - lam))) / 2.0
    value = xlog2x(s_plus) + xlog2x(1.0 - s_plus)
    value -= (1.0 - lam / 2.0) * math.log2(0.5 * (1.0 - lam / 2.0))
    if lam / 4.0 > 0.0:  # lam / 4 underflows to 0 for the two smallest subnormals
        value -= (lam / 2.0) * math.log2(lam / 4.0)
    return value


def _lambda_b_er(lam):
    s_plus = (1.0 + math.sqrt(1.0 - 2.0 * lam * (1.0 - lam))) / 2.0
    value = xlog2x(s_plus) + xlog2x(1.0 - s_plus)
    value -= xlog2x(1.0 - lam / 2.0) + xlog2x(lam / 2.0)
    return max(value, 0.0)


def _werner_capacity(f):
    value = 2.0 + xlog2x(f)
    if f < 1.0:
        value += (1.0 - f) * math.log2((1.0 - f) / 3.0)
    return max(value, 0.0)


def _werner_er(f):
    return _bell_diagonal_er(np.array([f, (1 - f) / 3, (1 - f) / 3, (1 - f) / 3]))


def _bell_diagonal_capacity(weights):
    return max(2.0 + sum(xlog2x(w) for w in weights), 0.0)


def _bell_diagonal_er(weights):
    # separable exactly when every weight is at most 1/2; above that the
    # value depends only on the dominant weight
    top = float(weights.max())
    if top <= 0.5:
        return 0.0
    return 1.0 - binary_entropy(top)


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """A named state family.

    forms maps each parameter count the family takes to a function that
    range-checks that many floats and returns the constructor's arguments;
    build, capacity and e_r all take those arguments.
    """

    forms: dict
    build: Callable
    capacity: Callable
    e_r: Callable


def _unit_form(name):
    return lambda p: (_check_unit_interval(p[0], name),)


def _schmidt_from_weight(p):
    a2 = _check_unit_interval(p[0], "|a|^2")
    return _schmidt_amplitudes(math.sqrt(a2), math.sqrt(1.0 - a2))


FAMILIES = {
    "pure_schmidt": Family(
        forms={
            1: _schmidt_from_weight,  # [|a|^2]
            2: lambda p: _schmidt_amplitudes(p[0], p[1]),  # [a, b]
            4: lambda p: _schmidt_amplitudes(complex(p[0], p[1]), complex(p[2], p[3])),
        },
        build=pure_schmidt,
        capacity=_pure_capacity,
        e_r=_pure_er,
    ),
    "lambda_a": Family({1: _unit_form("lambda")}, lambda_a, _lambda_a_capacity, _lambda_a_er),
    "lambda_b": Family({1: _unit_form("lambda")}, lambda_b, _lambda_b_capacity, _lambda_b_er),
    "werner": Family({1: _unit_form("fidelity")}, werner, _werner_capacity, _werner_er),
    "bell_diagonal": Family(
        {4: lambda p: (check_simplex(p, n=4),)},
        bell_diagonal,
        _bell_diagonal_capacity,
        _bell_diagonal_er,
    ),
}


def parse_family(name, params):
    """Read a family name and parameter list against FAMILIES.

    Returns (family, values, args): the table row, the parameters as floats
    and the checked constructor arguments.  Raises OutOfRange for an unknown
    name, a non-numeric parameter, a parameter count the family does not
    take, or a value outside the family's domain.
    """
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise OutOfRange(f"unknown family {name!r} (families: {', '.join(FAMILIES)})")
    try:
        if isinstance(params, str):  # its characters would pass for parameters
            raise TypeError("a string is not a parameter list")
        values = [float(p) for p in params]
    except (TypeError, ValueError) as exc:
        raise OutOfRange(f"{name} parameters {params!r} are not a list of numbers") from exc
    form = family.forms.get(len(values))
    if form is None:
        counts = " or ".join(str(n) for n in family.forms)
        raise OutOfRange(f"{name} takes a parameter list of length {counts}, got {len(values)}")
    return family, values, form(values)


def build_family_state(name, params):
    """Construct a named-family state from its parameter list."""
    family, _, args = parse_family(name, params)
    return family.build(*args)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


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
    if not isinstance(doc, dict):
        raise InvalidState(f"a state document is a JSON object, got {type(doc).__name__}")
    name = doc.get("family")
    if name == "explicit":
        try:
            mat = doc["matrix"]
            rho = np.asarray(mat["re"], dtype=float) + 1j * np.asarray(mat["im"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidState(
                f"explicit state needs numeric matrix.re and matrix.im ({type(exc).__name__}: {exc})"
            ) from exc
        return validate_state(rho, "explicit state"), None, None
    family, values, args = parse_family(name, doc.get("params", []))
    return family.build(*args), name, values
