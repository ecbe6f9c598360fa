import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from quline import interferometry as itf
from quline.errors import (ComplexVelocity, DomainError, OrthogonalStates,
                           QulineError, ToleranceError, WavevectorMismatch)
from quline.fermion import FermionState
from quline.geometry import make_builtin_model
from quline.photon import jones_to_state
from quline.spin_algebra import spin_half_rotation
from quline.units import C_SI, HBAR_SI
from quline.worldline import (EMField, integrate_null_geodesic, integrate_timelike,
                              rindler_speed_at_height, worldline_from_coordinate_path)

FLAT = make_builtin_model("minkowski", [])

# thermal-neutron fixture, SI -> natural units
NEUTRON_MASS_SI = 1.67492749804e-27
M_NAT = NEUTRON_MASS_SI * C_SI / HBAR_SI
V1_NAT = 2200.0 / C_SI
DZ, ELL = 0.02, 0.10
G_NAT = 9.8 / C_SI**2


def straight_fermion_arm(start, beta_vec, span, mass, em=None, arm_id=""):
    beta_vec = np.asarray(beta_vec, dtype=float)
    g = 1.0 / np.sqrt(1.0 - beta_vec @ beta_vec)
    u0 = g * np.array([1.0, *beta_vec])
    wl = integrate_timelike(FLAT, em, np.asarray(start, dtype=float), u0,
                            span=span, tol=1e-13)
    return itf.arm_phase(wl, em, "fermion", mass=mass, arm_id=arm_id)


class TestArmPhase:
    def test_photon_arm_zero(self):
        wl = integrate_null_geodesic(FLAT, np.zeros(4), [1.0, 0, 0, 1.0], span=5.0)
        arm = itf.arm_phase(wl, kind="photon", arm_id="p")
        assert arm.theta_int == 0.0

    def test_fermion_flat_arm_mass_times_proper_time(self):
        mass, span = 2.7, 3.1
        arm = straight_fermion_arm(np.zeros(4), [0.4, 0, 0], span, mass)
        assert arm.theta_int == pytest.approx(mass * span, rel=1e-14)

    def test_constant_potential_term(self):
        mass, span, a_t, charge = 1.3, 2.0, 0.45, 1.0
        em = EMField(lambda c: np.zeros((4, 4)),
                     lambda c: np.array([a_t, 0.0, 0.0, 0.0]))
        beta = 0.6
        arm = straight_fermion_arm(np.zeros(4), [beta, 0, 0], span, mass, em=em)
        gamma = 1 / np.sqrt(1 - beta**2)
        dt = gamma * span
        # closed-form line integral: m T + e A_t dt
        assert arm.theta_int == pytest.approx(mass * span + charge * a_t * dt,
                                              rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    @pytest.mark.parametrize("end", [0.0, 1.3, 3.0])
    def test_varying_potential_matches_quad(self, scale, end):
        def potential(c):
            t, x = c[..., 0], c[..., 1]
            return scale * np.stack([np.cos(x), np.sin(2 * t), 0.3 * x ** 2, np.ones_like(x)],
                                    axis=-1)

        em = EMField(lambda c: np.zeros((4, 4)), potential)
        arm = straight_fermion_arm(np.zeros(4), [0.6, 0, 0], 3.0, 1.0, em=em)
        arm = itf.slide_endpoint(arm, end - arm.end_param)
        wl = arm.worldline
        with warnings.catch_warnings():     # quad warns of roundoff at 1e4
            warnings.simplefilter("ignore", IntegrationWarning)
            expected, _ = quad(lambda s: potential(wl.position(s)) @ wl.coordinate_velocity(s),
                               0.0, end, epsabs=1e-13, epsrel=1e-14, limit=200)
        assert abs(arm.theta_int - end - expected) <= 1e-14 * scale

    def test_non_finite_potential_raises(self):
        em = EMField(lambda c: np.zeros((4, 4)),
                     lambda c: np.where(c[..., 1:2] > 1.0, [np.nan, 0.0, 0.0, 0.0], 0.0))
        with pytest.raises(ToleranceError, match="not finite"):
            straight_fermion_arm(np.zeros(4), [0.6, 0, 0], 3.0, 1.0, em=em)

    def test_potential_is_integrated_up_to_the_end_only(self):
        # A is not finite beyond x^1 = 1, which the arm passes at tau = 4/3;
        # up to end = 0.5 it is the constant A_t
        mass, a_t, beta, end = 1.3, 0.45, 0.6, 0.5
        em = EMField(lambda c: np.zeros((4, 4)),
                     lambda c: np.where(c[..., 1:2] > 1.0, [np.nan, 0.0, 0.0, 0.0],
                                        [a_t, 0.0, 0.0, 0.0]))
        gamma = 1 / np.sqrt(1 - beta**2)
        wl = integrate_timelike(FLAT, em, np.zeros(4), gamma * np.array([1.0, beta, 0, 0]),
                                span=3.0, tol=1e-13)
        arm = itf.arm_phase(wl, em, "fermion", mass=mass, end_param=end)
        assert arm.theta_int == pytest.approx(mass * end + a_t * gamma * end, rel=1e-12)

    def test_kind_mismatch(self):
        wl = integrate_null_geodesic(FLAT, np.zeros(4), [1.0, 0, 0, 1.0], span=1.0)
        with pytest.raises(QulineError):
            itf.arm_phase(wl, kind="fermion", mass=1.0)


class TestPhaseDifference:
    def test_identical_arms_zero(self):
        a1 = straight_fermion_arm(np.zeros(4), [0.3, 0, 0], 2.0, 1.0, arm_id="1")
        a2 = straight_fermion_arm(np.zeros(4), [0.3, 0, 0], 2.0, 1.0, arm_id="2")
        assert itf.phase_difference(a1, a2) == pytest.approx(0.0, abs=1e-15)

    def test_photon_displacement_phase(self):
        omega = 3.2
        k = omega * np.array([1.0, 0, 0, 1.0])
        d = 0.37
        wl1 = integrate_null_geodesic(FLAT, np.array([0.0, 0, 0, d]), k, span=4.0)
        wl2 = integrate_null_geodesic(FLAT, np.zeros(4), k, span=4.0)
        a1 = itf.arm_phase(wl1, kind="photon")
        a2 = itf.arm_phase(wl2, kind="photon")
        dtheta = itf.phase_difference(a1, a2)
        # arm 1 displaced by d along the propagation direction: |dtheta| = d/lambdabar
        assert abs(dtheta) == pytest.approx(omega * d, rel=1e-12)
        # wave-geometric displacement term agrees
        assert dtheta == pytest.approx(
            itf.displacement_phase(a1.k_lower, a1.event.coords, a2.event.coords),
            rel=1e-12)

    def test_common_potential_adds_its_charge_term(self):
        # dtheta = (k + eA).(x1 - x2) + (theta2 - theta1), e the arms' charge
        u0 = np.array([1.0, 0.0, 0.0, 0.0])
        arms = [itf.arm_phase(integrate_timelike(FLAT, None, start, u0, span=2.0),
                              kind="fermion", mass=1.3, charge=-0.5)
                for start in (np.zeros(4), np.array([0.0, -0.2, 0.1, 0.0]))]
        a_lower = np.array([0.4, -0.3, 0.2, 0.7])
        dx = arms[0].event.coords - arms[1].event.coords
        shift = (itf.phase_difference(*arms, a_common_lower=a_lower)
                 - itf.phase_difference(*arms))
        assert shift == pytest.approx(-0.5 * (a_lower @ dx), rel=1e-12)
        assert shift != 0.0

    def test_wavevector_mismatch_raises(self):
        a1 = straight_fermion_arm(np.zeros(4), [0.3, 0, 0], 2.0, 1.0)
        a2 = straight_fermion_arm(np.zeros(4), [0.5, 0, 0], 2.0, 1.0)
        with pytest.raises(WavevectorMismatch):
            itf.phase_difference(a1, a2)

    def test_endpoint_slide_invariance_fermion(self):
        mass = 1.7
        a1 = straight_fermion_arm(np.zeros(4), [0.45, 0, 0], 4.0, mass, arm_id="1")
        a2 = straight_fermion_arm(np.array([0.0, -0.2, 0.1, 0.0]), [0.45, 0, 0],
                                  4.0, mass, arm_id="2")
        a1 = itf.slide_endpoint(a1, -1.0)   # leave slide room on both sides
        a2 = itf.slide_endpoint(a2, -1.0)
        base = itf.phase_difference(a1, a2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            d1, d2 = rng.uniform(-0.5, 0.5, 2)
            moved = itf.phase_difference(itf.slide_endpoint(a1, d1),
                                         itf.slide_endpoint(a2, d2))
            assert abs(moved - base) < 1e-9

    def test_endpoint_slide_invariance_photon_curved(self):
        # slides stay inside a small recombination region, where treating the
        # wavevector as constant is accurate to well below the 1e-9 budget
        model = make_builtin_model("schwarzschild", [1.0])
        x0 = np.array([0.0, 20.0, np.pi / 2, 0.0])
        k_coord = np.array([0.0, -0.3, 0.0, 0.01])
        g = model.metric(x0)
        k_coord[0] = np.sqrt(-(g[1, 1] * k_coord[1] ** 2 + g[3, 3] * k_coord[3] ** 2)
                             / g[0, 0])
        k0 = model.inverse_tetrad(x0) @ k_coord
        wl1 = integrate_null_geodesic(model, x0, k0, span=8.0, tol=1e-13)
        wl2 = integrate_null_geodesic(model, x0, k0, span=8.0, tol=1e-13)
        a1 = itf.arm_phase(wl1, kind="photon", end_param=6.0)
        a2 = itf.arm_phase(wl2, kind="photon", end_param=6.0)
        base = itf.phase_difference(a1, a2)
        rng = np.random.default_rng(1)
        for _ in range(20):
            d1, d2 = rng.uniform(-1e-3, 1e-3, 2)
            moved = itf.phase_difference(itf.slide_endpoint(a1, d1),
                                         itf.slide_endpoint(a2, d2),
                                         match_tol=1e-4)
            assert abs(moved - base) < 1e-9

    def test_endpoint_slide_invariance_photon_flat(self):
        omega = 2.0
        k = omega * np.array([1.0, 0.2, 0.0, np.sqrt(1 - 0.04)])
        wl1 = integrate_null_geodesic(FLAT, np.array([0.0, 0.3, -0.1, 0.0]), k,
                                      span=6.0, tol=1e-13)
        wl2 = integrate_null_geodesic(FLAT, np.zeros(4), k, span=6.0, tol=1e-13)
        a1 = itf.arm_phase(wl1, kind="photon", end_param=4.0)
        a2 = itf.arm_phase(wl2, kind="photon", end_param=4.0)
        base = itf.phase_difference(a1, a2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            moved = itf.phase_difference(
                itf.slide_endpoint(a1, rng.uniform(-1.5, 1.5)),
                itf.slide_endpoint(a2, rng.uniform(-1.5, 1.5)))
            assert abs(moved - base) < 1e-9

    def test_wave_geometric_decomposition(self):
        # displacement along the direction of motion: dtheta splits into
        # internal and displacement parts with dtheta_dis = dx_dis / lambdabar
        mass, beta = 2.0, 0.52
        gamma = 1 / np.sqrt(1 - beta**2)
        d = 0.21
        a1 = straight_fermion_arm(np.array([0.0, d, 0.0, 0.0]), [beta, 0, 0],
                                  3.0, mass, arm_id="1")
        a2 = straight_fermion_arm(np.zeros(4), [beta, 0, 0], 3.0, mass, arm_id="2")
        dtheta = itf.phase_difference(a1, a2)
        dtheta_int = a2.theta_int - a1.theta_int  # zero here (equal proper times)
        dtheta_dis = itf.displacement_phase(a1.k_lower, a1.event.coords,
                                            a2.event.coords)
        assert dtheta == pytest.approx(dtheta_int + dtheta_dis, rel=1e-12)
        # spatial offset d along the motion, k_perp = m gamma beta
        spatial = abs(mass * gamma * beta * d)
        temporal = mass * gamma * d * beta * 0  # endpoints simultaneous? no:
        # endpoints differ only by the spatial start offset: dx = (0, d, 0, 0)
        assert abs(dtheta_dis) == pytest.approx(spatial, rel=1e-12)


class TestTransportPhase:
    def test_identical_zero(self):
        st = FermionState([0.6, 0.8], FLAT.event(0, 0, 0, 0), [1, 0, 0, 0])
        assert itf.transport_phase(st, st) == 0.0

    def test_global_phase(self):
        ev = FLAT.event(0, 0, 0, 0)
        a = FermionState([0.6, 0.8], ev, [1, 0, 0, 0])
        for alpha in (0.3, -1.2, 2.9):
            b = FermionState(np.exp(1j * alpha) * a.psi, ev, [1, 0, 0, 0])
            assert itf.transport_phase(a, b) == pytest.approx(alpha, abs=1e-14)

    def test_rotated_pair_and_orthogonal_error(self):
        ev = FLAT.event(0, 0, 0, 0)
        a = FermionState([1.0, 0.0], ev, [1, 0, 0, 0])
        rot = spin_half_rotation([0, 1, 0], 0.8)
        b = FermionState(rot @ a.psi, ev, [1, 0, 0, 0])
        expected = np.angle(a.psi.conj() @ rot @ a.psi)
        assert itf.transport_phase(a, b) == pytest.approx(expected, abs=1e-14)
        c = FermionState([0.0, 1.0], ev, [1, 0, 0, 0])
        with pytest.raises(OrthogonalStates):
            itf.transport_phase(a, c)

    def test_photon_pair(self):
        k = np.array([1.0, 0, 0, 1.0])
        ev = FLAT.event(0, 0, 0, 0)
        a = jones_to_state([1.0, 0.0], k, ev)
        b = jones_to_state([np.cos(0.4), np.sin(0.4) * 1j], k, ev)
        assert itf.transport_phase(a, b) == pytest.approx(0.0, abs=1e-14)


class TestRecombine:
    def test_aligned_bright_port(self):
        st = FermionState([1, 0], FLAT.event(0, 0, 0, 0), [1, 0, 0, 0])
        amp = 1j / np.sqrt(2)
        _, p = itf.recombine(st, st, amp, amp, 0.0)
        assert p == pytest.approx(1.0, rel=1e-14)

    def test_dark_port(self):
        st = FermionState([1, 0], FLAT.event(0, 0, 0, 0), [1, 0, 0, 0])
        amp = 1j / np.sqrt(2)
        _, p = itf.recombine(st, st, amp, amp, np.pi)
        assert p == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_states_no_interference(self):
        ev = FLAT.event(0, 0, 0, 0)
        a = FermionState([1, 0], ev, [1, 0, 0, 0])
        b = FermionState([0, 1], ev, [1, 0, 0, 0])
        amp = 1j / np.sqrt(2)
        for dth in (0.0, 0.7, np.pi):
            _, p = itf.recombine(a, b, amp, amp, dth)
            assert p == pytest.approx(0.5, rel=1e-14)

    def test_fringe_law(self):
        st = FermionState([0.6, 0.8j], FLAT.event(0, 0, 0, 0), [1, 0, 0, 0])
        amp = 1j / np.sqrt(2)
        for dth in np.linspace(0, 2 * np.pi, 17):
            _, p = itf.recombine(st, st, amp, amp, dth)
            assert p == pytest.approx(0.5 * (1 + np.cos(dth)), rel=1e-12, abs=1e-12)
            assert -1e-12 <= p <= 1.0 + 1e-12


class TestCowPhase:
    def test_zero_height_all_modes(self):
        for mode in itf.COW_MODES:
            assert itf.cow_phase(M_NAT, V1_NAT, 0.0, ELL, G_NAT, mode) == 0.0

    def test_standard_formula(self):
        val = itf.cow_phase(M_NAT, V1_NAT, DZ, ELL, G_NAT, "standard")
        expected = NEUTRON_MASS_SI * DZ * ELL * 9.8 / (HBAR_SI * 2200.0)
        assert val == pytest.approx(expected, rel=1e-12)
        # 2 cm x 10 cm thermal-neutron rectangle: ~ 1.4e2 rad of phase
        assert 100.0 < val < 200.0

    def test_exact_vs_standard_relative_gap(self):
        x = DZ * G_NAT / V1_NAT**2
        with mp.workdps(60):
            exact = itf.cow_phase(M_NAT, V1_NAT, DZ, ELL, G_NAT, "exact", dps=60)
            std = itf.cow_phase(M_NAT, V1_NAT, DZ, ELL, G_NAT, "standard", dps=60)
            rel = float((exact - std) / std)
        # dominated by x/2 (plus the tiny gamma - 1); order dz g / v1^2
        assert 0.3 * x < rel < 1.1 * x

    def test_dps_phases_keep_their_digits(self):
        """The laboratory-scale phases at 60 digits, pinned to all 60."""
        pinned = {
            "exact": "141.498961077561898121620048840614605700222938825912994517699",
            "weak_field": "141.498961077561898584490209517744826418288991302827893446803",
            "nonrel_g2": "141.498961073751762948496976017075762988250410984066059034265",
            "standard": "141.498958208690212441958986180833708704606801950545260231105",
        }
        for mode, digits in pinned.items():
            phase = itf.cow_phase(M_NAT, V1_NAT, DZ, ELL, G_NAT, mode, dps=60)
            assert isinstance(phase, mp.mpf)
            with mp.workdps(60):
                assert str(phase) == digits

    def test_weak_field_series_remainder(self):
        # weak-field minus its own expansion through x^2 (gamma kept) is O(x^3)
        with mp.workdps(80):
            v1 = mp.mpf(V1_NAT)
            gamma1 = 1 / mp.sqrt(1 - v1 * v1)
            for dz in (DZ, DZ / 4, DZ / 16):
                x = mp.mpf(dz) * G_NAT / (v1 * v1)
                weak = itf.cow_phase(M_NAT, V1_NAT, dz, ELL, G_NAT,
                                     "weak_field", dps=80)
                series = M_NAT * ELL * v1 * gamma1 * (x + x * x / 2)
                remainder = abs(weak - series)
                cubic = M_NAT * ELL * v1 * gamma1 * x**3 / 2
                assert remainder == pytest.approx(float(cubic), rel=1e-2)

    def test_complex_velocity_guard(self):
        with pytest.raises(ComplexVelocity):
            itf.cow_phase(1.0, 1e-4, 10.0, 0.1, 1.0, "exact")

    def test_rejects_bad_mode_and_inputs(self):
        with pytest.raises(QulineError):
            itf.cow_phase(1.0, 0.5, 0.1, 1.0, 0.1, "fancy")
        with pytest.raises(QulineError):
            itf.cow_phase(1.0, 1.5, 0.1, 1.0, 0.1, "exact")

    @pytest.mark.parametrize("v1, dz, ell, g", [
        (1.5, 0.1, 1.0, 0.1), (0.0, 0.1, 1.0, 0.1), (0.5, -0.1, 1.0, 0.1),
        (0.5, 0.1, 0.0, 0.1), (0.5, 0.1, 1.0, -0.1)])
    def test_input_guard_is_domain_error(self, v1, dz, ell, g):
        for dps in (None, 30):
            with pytest.raises(DomainError):
                itf.cow_phase(1.0, v1, dz, ell, g, "standard", dps=dps)

    @pytest.mark.parametrize("mass", [-1.0, 0.0, np.nan])
    def test_mass_must_be_positive(self, mass):
        for dps in (None, 30):
            with pytest.raises(DomainError, match="mass must be positive"):
                itf.cow_phase(mass, 0.5, 0.1, 1.0, 0.01, "exact", dps=dps)
        with pytest.raises(DomainError, match=r"mass must be positive \(mass="):
            itf.cow_phases(np.array([1.0, mass]), 0.5, 0.1, 1.0, 0.01)

    def test_each_mode_guards_only_itself(self):
        # 2 dz g >> v1^2: no real upper-path speed, yet the two
        # non-relativistic closed forms stay defined
        args = (1.0, 1e-4, 10.0, 0.1, 1.0)
        assert issubclass(ComplexVelocity, DomainError)
        for dps in (None, 30):
            assert itf.cow_phase(*args, "standard", dps=dps) > 0
            assert itf.cow_phase(*args, "nonrel_g2", dps=dps) > 0
            for mode in ("exact", "weak_field"):
                with pytest.raises(ComplexVelocity):
                    itf.cow_phase(*args, mode, dps=dps)
        with pytest.raises(ComplexVelocity, match="dz=10.0"):
            itf.cow_phases(*args)

    def test_array_phases_match_scalar(self):
        dz = np.array([0.0, DZ / 3, DZ, 2 * DZ])
        phases = itf.cow_phases(M_NAT, V1_NAT, dz, ELL, G_NAT)
        for mode in itf.COW_MODES:
            assert phases[mode].tolist() == [
                itf.cow_phase(M_NAT, V1_NAT, float(d), ELL, G_NAT, mode) for d in dz]

    def test_zero_height_rows_are_exactly_zero(self):
        # the formulas alone would give -0.0 here (a height of -0.0)
        phases = itf.cow_phases(1.0, 0.5, np.array([-0.0, 0.1]), 1.0, 0.1)
        for mode in itf.COW_MODES:
            assert phases[mode][0] == 0.0 and np.copysign(1.0, phases[mode][0]) == 1.0

    @pytest.mark.parametrize("args, named", [
        ((1.0, 0.5, np.nan, 1.0, 0.1), r"dz=nan"),
        ((10.0, 0.5, 0.1, np.array([1.0, 1e308, 1e307]), 1.0), r"ell=1e\+308"),
        ((1.0, 0.5, np.array([0.0, 1e200]), 1.0, np.array([1.0, 1e200])), r"dz=1e\+200")],
        ids=["nan_height", "overflowing_ell", "overflowing_height"])
    def test_non_finite_phase_is_domain_error(self, args, named):
        with pytest.raises(DomainError, match=r"phase is not finite.*" + named):
            itf.cow_phases(*args, modes=("standard",))
        with pytest.raises(DomainError, match=named):
            itf.cow_phases(*args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["mass", "v1", "dz", "ell", "g"])
    def test_non_finite_input_is_refused_naming_it(self, name, bad):
        # mpmath would carry it into an inf or nan phase, and a zero height's
        # exact 0 would hide it on either path
        for dz in (0.1, 0.0):
            args = dict(mass=1.0, v1=0.5, dz=dz, ell=1.0, g=0.1)
            args[name] = bad
            for dps in (None, 30):
                with pytest.raises(DomainError, match=rf"\b{name}={bad!r}"):
                    itf.cow_phase(**args, dps=dps)

    def test_array_guard_names_first_offending_row(self):
        with pytest.raises(DomainError, match=r"v1=1\.5"):
            itf.cow_phases(1.0, np.array([0.5, 1.5, 2.0]), 0.1, 1.0, 0.1)


BENCH = dict(mass=1.0, v1=0.3, dz=0.05, ell=2.0, g=0.4)


def cow_arm(model, mass, legs):
    """The ledgers of an arm's straight legs, each a coordinate velocity and a
    coordinate duration, the first starting at the origin and each next one
    where the last ended, and the arm's ledger: the last leg's, with the
    internal phases of all legs summed."""
    start, ledgers = np.zeros(4), []
    for velocity, duration in legs:
        v = np.asarray(velocity)
        wl = worldline_from_coordinate_path(model, lambda t, s=start: s[1:] + v * (t - s[0]),
                                            lambda t: v, start[0], start[0] + duration)
        ledgers.append(itf.arm_phase(wl, kind="fermion", mass=mass))
        start = ledgers[-1].event.coords
    return ledgers, replace(ledgers[-1], theta_int=sum(leg.theta_int for leg in ledgers))


def cow_rectangle(mass, v1, dz, ell, g):
    """The rectangle on the Rindler chart as two arms of straight legs: the
    lower arm runs at z = 0, climbs and leaves at dz; the upper arm makes the
    same climb first, then runs at dz.  Both end on a leg at dz with the speed
    v2 energy conservation gives there, so their wavevectors match; the lower
    arm's last leg ends as the upper arm ends.  Returns (lower legs, lower arm,
    upper legs, upper arm)."""
    model = make_builtin_model("rindler", [g])
    v2 = float(rindler_speed_at_height(v1, dz, g))
    climb = ((0.0, 0.0, v1), dz / v1)
    lower, lower_arm = cow_arm(model, mass, [((v1, 0.0, 0.0), ell / v1), climb,
                                             ((v2, 0.0, 0.0), ell / v2 - ell / v1)])
    upper, upper_arm = cow_arm(model, mass, [climb, ((v2, 0.0, 0.0), ell / v2)])
    return lower, lower_arm, upper, upper_arm


class TestCowAssembly:
    # relativistic parameters: internal phases are O(10), so the leg
    # assembly resolves the COW phase in double precision
    CASES = [tuple(BENCH.values()), (3.0, 0.6, 0.2, 1.0, 0.3)]

    def test_leg_assembly_matches_exact_formula(self):
        for mass, v1, dz, ell, g in self.CASES:
            lower, lower_arm, upper, upper_arm = cow_rectangle(mass, v1, dz, ell, g)
            assert lower_arm.theta_int == sum(leg.theta_int for leg in lower)
            # both arms close at one time and height; they differ only along x
            x_lower, x_upper = lower_arm.event.coords, upper_arm.event.coords
            assert x_lower[[0, 2, 3]] == pytest.approx(x_upper[[0, 2, 3]], rel=1e-14)
            # the chart is static and x-invariant: the two climbs cancel
            assert lower[1].theta_int == pytest.approx(upper[0].theta_int, rel=1e-12)
            dtheta = (itf.displacement_phase(upper_arm.k_lower, x_lower, x_upper)
                      + upper_arm.theta_int - lower_arm.theta_int)
            assert dtheta == pytest.approx(
                itf.cow_phase(mass, v1, dz, ell, g, mode="exact"), rel=1e-12)

    def test_phase_difference_operation_reproduces_exact(self):
        for mass, v1, dz, ell, g in self.CASES:
            lower, lower_arm, upper, upper_arm = cow_rectangle(mass, v1, dz, ell, g)
            # k_t = m gamma1 on the leg at z = 0 and on the leg at dz: v2
            # conserves energy, so the wavevector check passes
            assert upper[-1].k_lower[0] == pytest.approx(lower[0].k_lower[0], rel=1e-14)
            dtheta = itf.phase_difference(lower_arm, upper_arm)
            assert dtheta == pytest.approx(
                itf.cow_phase(mass, v1, dz, ell, g, mode="exact"), rel=1e-12)
