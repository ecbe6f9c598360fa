import numpy as np
import pytest

from quline import spin_algebra as sa
from quline.errors import QulineError

# eps^{AB} with eps^{12}=+1; eps_{AB} fixed by eps_{AB} eps^{BC} = delta_A^C
EPS2_UPPER = np.array([[0.0, 1.0], [-1.0, 0.0]])
EPS2_LOWER = np.array([[0.0, -1.0], [1.0, 0.0]])


def epsilon_raise(psi_lower):
    """psi^A = eps^{AB} psi_B (raise with the first index)."""
    return EPS2_UPPER @ np.asarray(psi_lower, dtype=complex).reshape(2)


def epsilon_lower(psi_upper):
    """psi_A = eps_{AB} psi^B; inverse of :func:`epsilon_raise`."""
    return EPS2_LOWER @ np.asarray(psi_upper, dtype=complex).reshape(2)


def random_unit_timelike(rng, vmax=0.9):
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    beta = rng.uniform(0.0, vmax) * direction
    g = 1.0 / np.sqrt(1.0 - beta @ beta)
    return g * np.array([1.0, *beta])


class TestBoostPair:
    """The spin-half boost M and the spin-1 boost Lambda of one velocity."""

    def test_rest_velocity_gives_identities(self):
        assert np.allclose(sa.spin_half_boost_matrix([0.0, 0.0, 0.0]), np.eye(2), atol=1e-15)
        assert np.allclose(sa.spin1_boost([0.0, 0.0, 0.0]), np.eye(4), atol=1e-15)

    def test_spin1_entries_beta_06(self):
        # gamma = 1.25 for beta = 0.6 along x; top row (gamma, gamma beta)
        one = sa.spin1_boost([0.6, 0.0, 0.0])
        assert one[0, 0] == pytest.approx(1.25, abs=1e-15)
        assert one[0, 1] == pytest.approx(0.75, abs=1e-15)
        assert one[1, 0] == pytest.approx(0.75, abs=1e-15)

    def test_spin1_maps_rest_to_u(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            u = random_unit_timelike(rng)
            one = sa.spin1_boost(u[1:] / u[0])
            assert np.abs(one @ [1, 0, 0, 0] - u).max() < 1e-12

    def test_intertwining_residual(self):
        # M^dag sigmabar^I M = Lambda^I_J sigmabar^J
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = random_unit_timelike(rng)
            m, one = sa.spin_half_boost_matrix(u[1:] / u[0]), sa.spin1_boost(u[1:] / u[0])
            for i in range(4):
                lhs = m.conj().T @ sa.SIGMA_BAR[i] @ m
                rhs = np.einsum("j,jab->ab", one[i], sa.SIGMA_BAR)
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_determinant_one(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            u = random_unit_timelike(rng)
            half = sa.spin_half_boost_matrix(u[1:] / u[0])
            assert abs(np.linalg.det(half) - 1.0) < 1e-12

    def test_rejects_spacelike(self):
        # u = (0.5, 1, 0, 0) asks for beta = (2, 0, 0)
        for boost in (sa.spin_half_boost_matrix, sa.spin1_boost):
            with pytest.raises(QulineError):
                boost([2.0, 0.0, 0.0])

    def test_composition_wigner_is_rotation(self):
        # B(u2) B(u1)^-1 = pure boost x pure rotation; extract and check
        rng = np.random.default_rng(6)
        for _ in range(50):
            u1 = random_unit_timelike(rng)
            u2 = random_unit_timelike(rng)
            b1, b2 = sa.spin1_boost(u1[1:] / u1[0]), sa.spin1_boost(u2[1:] / u2[0])
            comp = b2 @ np.linalg.inv(b1)
            u_c = comp @ np.array([1.0, 0, 0, 0])
            b_c = sa.spin1_boost(u_c[1:] / u_c[0])
            wig = np.linalg.inv(b_c) @ comp
            assert np.abs(wig[0] - [1, 0, 0, 0]).max() < 1e-10
            assert np.abs(wig[:, 0] - [1, 0, 0, 0]).max() < 1e-10
            spatial = wig[1:, 1:]
            assert np.abs(spatial @ spatial.T - np.eye(3)).max() < 1e-10


class TestIdentities:
    def test_all_residuals_tiny(self):
        report = sa.sigma_identity_check()
        for name, value in report.items():
            assert value < 1e-13, name

    def test_epsilon_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert np.abs(epsilon_lower(epsilon_raise(psi)) - psi).max() < 1e-15

    def test_epsilon_sl2c_invariance(self):
        # eps^{AB} -> L^A_C L^B_D eps^{CD} = det(L) eps^{AB}
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m = m / np.sqrt(np.linalg.det(m))
            out = np.einsum("ac,bd,cd->ab", m, m, EPS2_UPPER)
            assert np.abs(out - EPS2_UPPER).max() < 1e-12

    def test_inner_product_eigenvalues(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            u = random_unit_timelike(rng)
            iu = sa.velocity_inner_product_matrix(u)
            vals = np.linalg.eigvalsh(iu)
            v = np.linalg.norm(u[1:]) / u[0]
            expect = sorted([u[0] * (1 - v), u[0] * (1 + v)])
            assert np.abs(np.sort(vals) - expect).max() < 1e-10
            assert vals.min() > 0.0

    def test_inner_product_equals_inverse_gram(self):
        # I_u = (M M^dag)^{-1} for the spin-half boost of u
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = random_unit_timelike(rng)
            m = sa.spin_half_boost_matrix(u[1:] / u[0])
            assert np.abs(sa.velocity_inner_product_matrix(u)
                          - np.linalg.inv(m @ m.conj().T)).max() < 1e-10
