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
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidState, NotASimplex, NotNormalized, OutOfRange
from .linalg import PAULI_PRODUCTS, as_matrix, as_numbers, check_choice

STATE_HERM_TOL = 1e-12
STATE_TRACE_TOL = 1e-12
STATE_PSD_TOL = 1e-10
SIMPLEX_TOL = 1e-12

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


def validate_state(rho, name="state", sizes=(4,)):
    """Check the density-matrix invariants of an n x n matrix, n in sizes (a two-qubit state
    unless told otherwise), returning rho as complex ndarray."""
    rho = as_numbers(rho, InvalidState, name).astype(complex, copy=False)
    return validate_states(rho[None], lambda i: name, sizes)[0]


def validate_states(stack, label, sizes=(4,)):
    """validate_state's rule on each matrix of a complex (k, ...) stack, with one eigvalsh; the
    first that fails is named label(i) in the error.  Returns the stack."""
    if stack.shape[1:] not in [(n, n) for n in sizes]:
        if not len(stack):
            return stack
        as_matrix(stack[0], sizes, InvalidState, label(0))  # raises its shape error
    with np.errstate(over="ignore", invalid="ignore"):  # a huge entry fails a test below
        herm_errs = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
        traces = stack.trace(axis1=1, axis2=2)
    # a non-finite entry makes its matrix's residual NaN or inf, so it fails here too
    fails = [not herm <= STATE_HERM_TOL or abs(tr.real - 1.0) > STATE_TRACE_TOL or
             abs(tr.imag) > STATE_TRACE_TOL for herm, tr in zip(herm_errs.tolist(), traces.tolist())]
    first = fails.index(True) if True in fails else len(fails)
    # the PSD test runs on the matrices before the first failure, which passed the tests above
    negative = (np.linalg.eigvalsh(stack[:first]).min(axis=-1) < -STATE_PSD_TOL).tolist()
    if True in negative:
        i = negative.index(True)
        raise InvalidState(f"{label(i)}: negative eigenvalue beyond {STATE_PSD_TOL:.0e}")
    if first < len(fails):
        as_matrix(stack[first], sizes, InvalidState, label(first))  # raises if it is not finite
        if herm_errs[first] > STATE_HERM_TOL:
            raise InvalidState(f"{label(first)}: not Hermitian within {STATE_HERM_TOL:.0e}")
        raise InvalidState(f"{label(first)}: trace {traces[first]:.6g} != 1")
    return stack


def xlog2x(x):
    """x log2 x for a scalar x >= 0, with 0 log 0 = 0."""
    return x * math.log2(x) if x > 0.0 else 0.0


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2 (1-x), h(0) = h(1) = 0, for a real x in [0, 1] up to 1e-9."""
    x = _check_unit_interval(x, "binary entropy argument", tol=1e-9)
    return 0.0 - xlog2x(x) - xlog2x(1.0 - x)  # 0.0 first keeps h(0) at +0.0


def check_simplex(probs, n=None):
    """Validate a probability vector of real numbers (no bools, text or objects); returns floats."""
    p = as_numbers(probs, NotASimplex, "probabilities", kinds="iuf").astype(float, copy=False)
    if p.ndim != 1 or p.size == 0 or (n is not None and p.size != n):
        raise NotASimplex(f"expected {n or 'some'} probabilities, got shape {p.shape}")
    # the accepting condition, negated, so that a NaN entry fails it
    if not (p.min() >= -SIMPLEX_TOL and abs(p.sum() - 1.0) <= SIMPLEX_TOL):
        raise NotASimplex(f"probabilities {p.tolist()} do not form a simplex")
    return np.clip(p, 0.0, None)


def check_integer(value, name, lo, hi):
    """value as an int if it is an integer, not a bool, in [lo, hi]; else OutOfRange."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise OutOfRange(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return int(value)


def check_real(value, name):
    """value as a float if it is a real number, not a bool; else OutOfRange."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise OutOfRange(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_instance(value, cls, name):
    """value if it is a cls; else OutOfRange."""
    if not isinstance(value, cls):
        raise OutOfRange(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")
    return value


def check_each(values, check, name):
    """[check(value) for value in values]; OutOfRange if values is not iterable."""
    try:
        return [check(value) for value in values]
    except TypeError:  # not iterable: a bare number, say
        raise OutOfRange(f"{name} must be a sequence, got {values!r}") from None


def _check_unit_interval(x, name, tol=0.0):
    x = check_real(x, name)
    if not -tol <= x <= 1.0 + tol:
        raise OutOfRange(f"{name} = {x} outside [0, 1]")
    return x


def _schmidt_amplitudes(a, b):
    if any(isinstance(x, bool) or not isinstance(x, numbers.Complex) for x in (a, b)):
        raise NotNormalized(f"amplitudes {a!r}, {b!r} are not numbers")
    a, b = complex(a), complex(b)
    norm = abs(a) * abs(a) + abs(b) * abs(b)  # not ** 2, which raises OverflowError past 1e154
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
    key = which.lower().replace("−", "-") if isinstance(which, str) else None
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
    return bell_diagonal(_werner_weights(fidelity))


def _werner_weights(fidelity):
    f = _check_unit_interval(fidelity, "fidelity")
    return np.array([f, (1 - f) / 3, (1 - f) / 3, (1 - f) / 3])


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
    dec = check_instance(dec, PauliDecomposition, "Pauli decomposition")
    parts = [as_numbers(part, InvalidState, "Pauli coefficients") for part in (dec.r, dec.s, dec.t)]
    if [part.shape for part in parts] != [(3,), (3,), (3, 3)]:
        raise InvalidState(f"Pauli coefficients r, s, t of shapes {[p.shape for p in parts]}")
    coeffs = np.concatenate([np.ravel(part) for part in parts])
    rho = (np.eye(4, dtype=complex) + np.tensordot(coeffs, PAULI_PRODUCTS, 1)) / 4.0
    return validate_state(rho, "from_pauli output")


def random_state(seed, rank=4):
    """Seeded random density matrix of the requested rank.

    Draws a 4 x rank complex Gaussian matrix G and returns G G^dag
    normalized to unit trace (a pure state on a rank-sized extension,
    traced down), which has full support on a rank-dimensional subspace
    almost surely.
    """
    rank = check_integer(rank, "rank", 1, 4)
    parts = seed if isinstance(seed, (tuple, list, np.ndarray)) else [seed]
    check_each(parts, lambda part: check_integer(part, "seed", 0, math.inf), "seed")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    # exact Hermitian symmetrization kills last-bit asymmetry
    return (rho + rho.conj().T) / 2


# ---------------------------------------------------------------------------
# closed forms, in bits, of the SDC capacity C and of E_R for each family
# ---------------------------------------------------------------------------


def _pure_er(a, b):
    return binary_entropy(abs(a) ** 2)


def _pure_capacity(a, b):
    return 1.0 + _pure_er(a, b)


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


def _lambda_b_er(lam):
    s_plus = (1.0 + math.sqrt(1.0 - 2.0 * lam * (1.0 - lam))) / 2.0
    value = xlog2x(s_plus) + xlog2x(1.0 - s_plus)
    value -= xlog2x(1.0 - lam / 2.0) + xlog2x(lam / 2.0)
    return max(value, 0.0)


def _lambda_b_capacity(lam):
    return 1.0 + _lambda_b_er(lam)  # C <= 1 + E_R holds with equality on this family


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
    # a Werner state is the Bell-diagonal row at weights (F, (1-F)/3, (1-F)/3, (1-F)/3)
    "werner": Family({1: lambda p: (_werner_weights(p[0]),)},
                     bell_diagonal, _bell_diagonal_capacity, _bell_diagonal_er),
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
    family = FAMILIES[check_choice(name, FAMILIES, "family")]
    values = check_each(params, lambda p: check_real(p, f"{name} parameter"), f"{name} parameters")
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


def state_to_json_dict(rho):
    """Serialize a state to the shared JSON schema, as an explicit matrix."""
    rho = validate_state(rho)
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
            re, im = (as_numbers(mat[k], InvalidState, f"matrix.{k}", "iuf") for k in ("re", "im"))
            if re.shape != im.shape:  # the assignment below would broadcast im
                raise ValueError(f"matrix.re has shape {re.shape}, matrix.im {im.shape}")
            rho = re.astype(complex)
            rho.imag = im  # no complex multiply, so an infinite im reaches as_matrix's check
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidState(
                f"explicit state needs numeric matrix.re and matrix.im ({type(exc).__name__}: {exc})"
            ) from exc
        return validate_state(rho, "explicit state"), None, None
    family, values, args = parse_family(name, doc.get("params", []))
    return family.build(*args), name, values
