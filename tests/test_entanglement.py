import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unitary
from densecap import (
    bell,
    bell_diagonal,
    binary_entropy,
    capacity,
    capacity_closed_form,
    concurrence,
    entanglement_of_formation,
    entropy_of_entanglement,
    er_closed_form,
    er_numeric,
    hashing_distillable,
    is_ppt,
    lambda_a,
    lambda_b,
    pure_schmidt,
    random_state,
    sdc_letters,
    von_neumann,
    werner,
)
from densecap.entanglement import PURITY_TOL
from densecap.errors import NotASimplex, NotPure, OutOfRange
from densecap.linalg import partial_transpose, tensor
from densecap.states import projector

SWAP = np.eye(4)[[0, 2, 1, 3]]  # |ab> -> |ba>

EF_WERNER_075 = 0.35457890266527003  # h((1 + sqrt(0.75)) / 2)
ER_LAMBDA_B_05 = 0.21040208776627667
EV_SCHMIDT_09 = 0.4689955935892811  # h(0.9)


class TestEntropyOfEntanglement:
    def test_bell_state(self):
        assert abs(entropy_of_entanglement(bell("phi+")) - 1.0) < 1e-12

    def test_product_state(self):
        assert entropy_of_entanglement(pure_schmidt(1.0, 0.0)) < 1e-12

    def test_schmidt_09(self):
        value = entropy_of_entanglement(pure_schmidt(math.sqrt(0.9), math.sqrt(0.1)))
        assert abs(value - EV_SCHMIDT_09) < 1e-12

    def test_both_marginals_agree(self):
        for i in range(20):
            rho = random_state(seed=(50, i), rank=1)
            from densecap.linalg import partial_trace

            s_a = von_neumann(partial_trace(rho, "A"))
            s_b = von_neumann(partial_trace(rho, "B"))
            assert abs(s_a - s_b) < 1e-9
            assert -1e-12 <= entropy_of_entanglement(rho) <= 1.0 + 1e-12

    def test_rejects_mixed(self):
        with pytest.raises(NotPure):
            entropy_of_entanglement(werner(0.75))

    @pytest.mark.parametrize("share, passes", [(0.5, True), (2.0, False)])
    def test_purity_tolerance_on_each_side(self, share, passes):
        # (1 - e) phi+ + e phi- has Tr rho^2 = 1 - 2 e (1 - e), here 1 - share * PURITY_TOL
        e = (1.0 - math.sqrt(1.0 - 2.0 * share * PURITY_TOL)) / 2.0
        rho = bell_diagonal([1.0 - e, e, 0.0, 0.0])
        assert abs(1.0 - np.trace(rho @ rho).real - share * PURITY_TOL) <= 1e-3 * PURITY_TOL
        if passes:
            assert abs(entropy_of_entanglement(rho) - 1.0) < 1e-12
        else:
            with pytest.raises(NotPure):
                entropy_of_entanglement(rho)


class TestConcurrence:
    def test_bell_state(self):
        assert abs(concurrence(bell("phi+")) - 1.0) < 1e-12

    def test_product_state(self):
        qa = np.array([0.6, 0.8], dtype=complex)
        qb = np.array([1.0, 0.0], dtype=complex)
        rho = projector(np.kron(qa, qb))
        assert concurrence(rho) < 1e-8

    def test_schmidt_pair_2ab(self):
        for a2 in (0.1, 0.35, 0.5, 0.8):
            a, b = math.sqrt(a2), math.sqrt(1 - a2)
            assert abs(concurrence(pure_schmidt(a, b)) - 2 * a * b) < 1e-8

    def test_zero_on_ppt_states(self):
        for i in range(50):
            rho = random_state(seed=(51, i), rank=4)
            if is_ppt(rho):
                assert concurrence(rho) < 1e-8

    def test_werner_closed_form(self):
        for f in (0.6, 0.75, 0.9):
            assert abs(concurrence(werner(f)) - (2 * f - 1)) < 1e-10


def sample_decomposition_average(rho, k, n_samples, seed):
    """Average pure-state entanglement over random k-term decompositions.

    Any decomposition of rho into k subnormalized vectors arises as
    rho^(1/2) times the first columns of a k x k unitary; the resulting
    average entanglement can only upper-bound the formation value.
    """
    evals, evecs = np.linalg.eigh(rho)
    evals = np.clip(evals, 0, None)
    root = evecs @ np.diag(np.sqrt(evals)) @ evecs.conj().T
    rng = np.random.default_rng(seed)

    best = math.inf
    batch = 2000
    done = 0
    while done < n_samples:
        m = min(batch, n_samples - done)
        g = rng.standard_normal((m, k, k)) + 1j * rng.standard_normal((m, k, k))
        q, r = np.linalg.qr(g)
        q = q * (np.diagonal(r, axis1=1, axis2=2) / np.abs(np.diagonal(r, axis1=1, axis2=2)))[:, None, :]
        # vectors[s, j] = sum_i q[s, j, i] (root e_i); shape (m, k, 4)
        vectors = np.einsum("sji,ai->sja", q[:, :, :4], root)
        weights = np.einsum("sja,sja->sj", vectors.conj(), vectors).real
        # reduced matrices on Alice: (m, k, 2, 2)
        v = vectors.reshape(m, k, 2, 2)
        reduced = np.einsum("sjab,sjcb->sjac", v, v.conj())
        lam = np.linalg.eigvalsh(reduced)
        lam = np.clip(lam, 1e-300, None)
        # entropy of each normalized reduced state, weighted by its weight
        norm = np.clip(weights, 1e-300, None)
        p = lam / norm[:, :, None]
        p = np.clip(p, 1e-300, 1.0)
        ent = -(p * np.log2(p)).sum(axis=2)
        averages = (weights * ent).sum(axis=1)
        best = min(best, float(averages.min()))
        done += m
    return best


class TestEntanglementOfFormation:
    def test_bell_state(self):
        assert abs(entanglement_of_formation(bell("psi-")) - 1.0) < 1e-12

    def test_ppt_separable_state(self):
        assert entanglement_of_formation(werner(0.4)) < 1e-9

    def test_werner_075_frozen(self):
        assert abs(entanglement_of_formation(werner(0.75)) - EF_WERNER_075) < 1e-12

    def test_pure_states_match_entropy_of_entanglement(self):
        for i in range(200):
            rho = random_state(seed=(52, i), rank=1)
            assert abs(
                entanglement_of_formation(rho) - entropy_of_entanglement(rho)
            ) < 1e-9

    def test_random_decomposition_sampling_never_dips_below(self):
        # the minimization defining the formation measure can only be
        # upper-bounded by sampling decompositions; the closed form must
        # stay below every sample
        rho = werner(0.75)
        closed = entanglement_of_formation(rho)
        sampled = sample_decomposition_average(rho, k=6, n_samples=100_000, seed=4)
        assert sampled >= closed - 1e-9
        assert sampled - closed < 0.2  # sampling gets reasonably close

    def test_local_unitary_invariance(self, rng):
        for _ in range(500):
            rho = random_state(seed=int(rng.integers(1 << 30)), rank=int(rng.integers(1, 5)))
            u = tensor(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert abs(
                entanglement_of_formation(rho) - entanglement_of_formation(rotated)
            ) < 1e-9


class TestIsPpt:
    def test_product_states_pass(self):
        qa = np.array([0.8, 0.6], dtype=complex)
        rho = projector(np.kron(qa, qa))
        assert is_ppt(rho)

    def test_bell_states_fail(self):
        for name in ("phi+", "phi-", "psi+", "psi-"):
            assert not is_ppt(bell(name))

    def test_werner_boundary(self):
        for f in np.arange(0.0, 1.0001, 0.02):
            f = min(f, 1.0)
            assert is_ppt(werner(f)) == (f <= 0.5 + 1e-9)

    # literal offsets, not multiples of PPT_TOL, so that the constant scaled by 100 or by 0.01
    # fails one side: bell_diagonal([1/2 + c, 1/2 - c, 0, 0])^Gamma has least eigenvalue -c
    @pytest.mark.parametrize("c, ppt", [(0.5e-10, True), (2e-10, False)])
    def test_tolerance_on_each_side(self, c, ppt):
        rho = bell_diagonal([0.5 + c, 0.5 - c, 0.0, 0.0])
        assert np.linalg.eigvalsh(partial_transpose(rho)).min() == pytest.approx(-c, rel=1e-4)
        assert is_ppt(rho) == ppt


class TestErClosedForm:
    def test_werner_limits(self):
        assert abs(er_closed_form("werner", [1.0]) - 1.0) < 1e-12
        assert er_closed_form("werner", [0.5]) == 0.0
        assert er_closed_form("werner", [0.3]) == 0.0

    def test_bell_diagonal_separable_region(self):
        assert er_closed_form("bell_diagonal", [0.5, 0.5, 0, 0]) == 0.0
        assert er_closed_form("bell_diagonal", [0.25] * 4) == 0.0

    def test_bell_diagonal_dominant_weight(self):
        value = er_closed_form("bell_diagonal", [0.7, 0.1, 0.1, 0.1])
        assert abs(value - (1.0 - binary_entropy(0.7))) < 1e-12

    def test_lambda_b_frozen(self):
        assert abs(er_closed_form("lambda_b", [0.5]) - ER_LAMBDA_B_05) < 1e-12

    def test_lambda_a_endpoints(self):
        assert abs(er_closed_form("lambda_a", [0.0])) < 1e-12
        assert abs(er_closed_form("lambda_a", [1.0]) - 1.0) < 1e-12

    def test_pure_equals_entropy_of_entanglement(self):
        for a2 in (0.2, 0.5, 0.9):
            rho = pure_schmidt(math.sqrt(a2), math.sqrt(1 - a2))
            assert abs(
                er_closed_form("pure_schmidt", [a2]) - entropy_of_entanglement(rho)
            ) < 1e-12

    def test_ordered_below_formation_on_grids(self):
        for param in np.arange(0.0, 1.0001, 0.02):
            param = min(param, 1.0)
            assert er_closed_form("lambda_a", [param]) <= entanglement_of_formation(
                lambda_a(param)
            ) + 1e-9
            assert er_closed_form("lambda_b", [param]) <= entanglement_of_formation(
                lambda_b(param)
            ) + 1e-9
            assert er_closed_form("werner", [param]) <= entanglement_of_formation(
                werner(param)
            ) + 1e-9

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            er_closed_form("lambda_a", [-0.1])
        with pytest.raises(OutOfRange):  # unnormalized Schmidt amplitudes
            er_closed_form("pure_schmidt", [0.8, 0.7])
        with pytest.raises(NotASimplex):
            er_closed_form("bell_diagonal", [math.nan, 0.5, 0.5, 0])


class TestHashing:
    def test_bell_state(self):
        assert abs(hashing_distillable(bell("psi-")) - 1.0) < 1e-12

    def test_two_weight_mixture(self):
        value = hashing_distillable(bell_diagonal([0.8, 0.2, 0, 0]))
        assert abs(value - (1.0 - binary_entropy(0.8))) < 1e-12
        assert abs(value - 0.2780719051126377) < 1e-12

    def test_capacity_identity(self):
        # 1 + distillable fraction reproduces the closed-form capacity
        rng = np.random.default_rng(808)
        checked = 0
        while checked < 100:
            weights = rng.dirichlet(np.ones(4) * 0.5)
            rho = bell_diagonal(weights)
            if von_neumann(rho) > 1.0:
                continue
            closed = capacity_closed_form("bell_diagonal", weights)
            assert abs(closed - (1.0 + hashing_distillable(rho))) < 1e-12
            checked += 1

    def test_non_bell_diagonal_gets_a_value(self):
        # lambda_a(l) has S(AB) = h(l) and marginals diag(1 - l/2, l/2) up to order
        assert hashing_distillable(lambda_a(0.5)) == 0.0  # h(0.75) < h(0.5) = 1
        value = hashing_distillable(lambda_a(0.9))
        assert abs(value - (binary_entropy(0.55) - binary_entropy(0.9))) < 1e-12

    def test_high_entropy_gives_zero(self):
        assert hashing_distillable(np.eye(4, dtype=complex) / 4) == 0.0

    def test_reverse_direction(self):
        # rho_A = I/2 but rho_B = diag(0.6, 0.4): hashing with communication from Bob,
        # S(A) - S(AB), yields more than C - 1 = S(B) - S(AB)
        rho = 0.8 * bell("phi+") + 0.2 * tensor(np.eye(2) / 2, projector(np.array([1.0, 0.0])))
        c_minus_one = capacity(sdc_letters(rho)) - 1.0
        value = hashing_distillable(rho)
        assert abs(c_minus_one - 0.2362) < 1e-4 and abs(value - 0.2653) < 1e-4
        assert abs(value - (1.0 - von_neumann(rho))) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), swap=st.booleans())
    def test_one_rule_on_every_state(self, seed, rank, swap):
        # C - 1 <= hashing <= E_R, invariant under local unitaries and under swapping A and B
        rho = random_state(seed=seed, rank=rank)
        rng = np.random.default_rng(seed)
        local = tensor(random_unitary(rng), random_unitary(rng))
        framed = local @ rho @ local.conj().T
        if swap:
            framed = SWAP @ framed @ SWAP
        value = hashing_distillable(framed)
        assert 0.0 <= value <= 1.0
        assert abs(value - hashing_distillable(rho)) < 1e-12
        assert max(capacity(sdc_letters(framed)) - 1.0, 0.0) <= value + 1e-12
        assert value <= er_numeric(framed).value + 1e-12
