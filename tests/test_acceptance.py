"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one line ``ACCEPTANCE <n>: PASS|FAIL  <summary>``; run with
``pytest tests/test_acceptance.py -s`` to see them all.
"""

import time

import mpmath as mp
import numpy as np

from quline import composite as cp
from quline import fermion as fm
from quline import interferometry as itf
from quline import measurement as ms
from quline import photon as ph
from quline.fermion import FermionState
from quline.geometry import make_builtin_model
from quline.spin_algebra import (PAULI, sigma_identity_check,
                                 velocity_inner_product_matrix)
from quline.units import C_SI, HBAR_SI
from quline.worldline import (circular_worldline, integrate_null_geodesic,
                              integrate_timelike, static_worldline)

from oracles import random_local_lorentz

FLAT = make_builtin_model("minkowski", [])

NEUTRON_MASS_SI = 1.67492749804e-27
M_NAT = NEUTRON_MASS_SI * C_SI / HBAR_SI
V1_NAT = 2200.0 / C_SI
DZ, ELL = 0.02, 0.10
G_NAT = 9.8 / C_SI**2


def _report(number, summary, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number}: {status}  {summary}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def schwarzschild_ray(span=22.0, tol=1e-13):
    model = make_builtin_model("schwarzschild", [1.0])
    x0 = np.array([0.0, 15.0, np.pi / 2, 0.0])
    k_coord = np.array([0.0, -0.35, 0.0, 0.03])
    g = model.metric(x0)
    k_coord[0] = np.sqrt(-(g[1, 1] * k_coord[1] ** 2 + g[3, 3] * k_coord[3] ** 2)
                         / g[0, 0])
    k0 = model.inverse_tetrad(x0) @ k_coord
    return model, integrate_null_geodesic(model, x0, k0, span=span, tol=tol)


def test_criterion_1_cow_standard_limit():
    start = time.perf_counter()
    value = itf.cow_phase(M_NAT, V1_NAT, DZ, ELL, G_NAT, "standard")
    expected = NEUTRON_MASS_SI * DZ * ELL * 9.8 / (HBAR_SI * 2200.0)
    rel = abs(value - expected) / expected
    elapsed = time.perf_counter() - start
    _report(1, "COW standard limit reproduces m dz l g / (hbar v1)",
            rel < 1e-12 and elapsed < 1.0,
            f"rel err {rel:.2e}, {elapsed:.3f} s")


def test_criterion_2_cow_limit_ladder():
    start = time.perf_counter()
    # documented scaling powers in dz over four decades:
    #   |exact - weak_field|      ~ dz^2   (dropped metric-factor corrections)
    #   |weak_field - nonrel_g2|  ~ dz^1   ((gamma1 - 1) x relativistic term)
    #   |nonrel_g2 - standard|    ~ dz^2   (x^2/2 term)
    expected_slopes = {"exact-weak_field": 2.0, "weak_field-nonrel_g2": 1.0,
                       "nonrel_g2-standard": 2.0}
    heights = np.geomspace(2e-5, 2e-1, 9)
    diffs = {k: [] for k in expected_slopes}
    with mp.workdps(60):
        for dz in heights:
            vals = {m: itf.cow_phase(M_NAT, V1_NAT, float(dz), ELL, G_NAT, m,
                                     dps=60) for m in itf.COW_MODES}
            diffs["exact-weak_field"].append(abs(vals["exact"] - vals["weak_field"]))
            diffs["weak_field-nonrel_g2"].append(
                abs(vals["weak_field"] - vals["nonrel_g2"]))
            diffs["nonrel_g2-standard"].append(
                abs(vals["nonrel_g2"] - vals["standard"]))
    ok = True
    details = []
    logh = np.log(heights.astype(float))
    for key, series in diffs.items():
        logd = np.log(np.array([float(v) for v in series]))
        slope = np.polyfit(logh, logd, 1)[0]
        details.append(f"{key}: slope {slope:.3f}")
        ok = ok and abs(slope - expected_slopes[key]) < 0.1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(2, "COW limit ladder scales at the predicted powers", ok,
            "; ".join(details) + f", {elapsed:.2f} s")


def test_criterion_3_unitarity():
    start = time.perf_counter()
    model = make_builtin_model("rindler", [0.5])
    wl = static_worldline(model, [0, 0, 0.4], span=1000.0)
    st = FermionState([0.6, 0.8j], wl.start_event, wl.velocity(0.0))
    res = fm.transport(st, wl, tol=1e-12)
    fermion_drift = res.norm_drift
    t_fermion = time.perf_counter() - start

    start2 = time.perf_counter()
    _, ray = schwarzschild_ray()
    ar = ph.adaptation_rotation(ray.velocity(0.0))
    pol0 = ar.diad_inv @ np.array([0.6, 0.8j])
    pst = ph.PhotonState(pol0, ray.start_event, ray.velocity(0.0))
    pres = ph.transport(pst, ray, tol=1e-13)
    photon_drift = pres.norm_drift
    t_photon = time.perf_counter() - start2
    ok = (fermion_drift < 1e-9 and photon_drift < 1e-9
          and t_fermion < 10.0 and t_photon < 10.0)
    _report(3, "unitarity over Rindler static (tau = 1e3) and Schwarzschild ray",
            ok, f"fermion drift {fermion_drift:.2e} ({t_fermion:.2f} s), "
                f"photon drift {photon_drift:.2e} ({t_photon:.2f} s)")


def test_criterion_4_covariant_vs_rest_frame():
    beta = 0.6
    gamma = 1.25
    worst = 0.0
    # flat circular orbit
    wl_c = circular_worldline(FLAT, radius=1.0, beta=beta, revolutions=1.0)
    rng = np.random.default_rng(11)
    psi0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    st = FermionState(psi0, wl_c.start_event, wl_c.velocity(0.0)).normalized()
    res_cov = fm.transport(st, wl_c, tol=1e-12)
    res_rest = fm.transport_rest_frame(fm.to_rest_frame(st), wl_c, tol=1e-12)
    for i in range(0, len(res_cov.params), 20):
        worst = max(worst, np.abs(fm.to_rest_frame(res_cov.states[i]).psi_tilde
                                  - res_rest.states[i].psi_tilde).max())
    # Rindler horizontal leg
    model = make_builtin_model("rindler", [0.4])
    from quline.worldline import AnalyticWorldline
    f = 1 + 0.5 * 0.4
    v = 0.5
    gam = 1.0 / np.sqrt(f * f - v * v)
    u_tet = np.array([gam * f, gam * v, 0.0, 0.0])
    wl_r = AnalyticWorldline(
        model, (0.0, 8.0),
        lambda tau: np.array([gam * tau, v * gam * tau, 0.0, 0.5]),
        lambda tau: u_tet.copy(),
        lambda tau: gam * model.connection([gam * tau, v * gam * tau, 0, 0.5])[0] @ u_tet)
    st_r = FermionState(psi0, wl_r.start_event, u_tet).normalized()
    res_cov_r = fm.transport(st_r, wl_r, tol=1e-12)
    res_rest_r = fm.transport_rest_frame(fm.to_rest_frame(st_r), wl_r, tol=1e-12)
    for i in range(0, len(res_cov_r.params), 20):
        worst = max(worst, np.abs(fm.to_rest_frame(res_cov_r.states[i]).psi_tilde
                                  - res_rest_r.states[i].psi_tilde).max())
    # Thomas angle per revolution: rigid rotation of the rest-frame spin's
    # xy-projection, retrograde for a counterclockwise orbit
    st_x = FermionState(np.array([1.0, 1.0]) / np.sqrt(2), wl_c.start_event,
                        wl_c.velocity(0.0)).normalized()
    rf_in = fm.to_rest_frame(st_x)
    out = fm.to_rest_frame(fm.transport(st_x, wl_c, tol=1e-13).final)
    bloch = lambda p: np.array([(p.conj() @ PAULI[i + 1] @ p).real for i in range(3)])
    b_in, b_out = bloch(rf_in.psi_tilde), bloch(out.psi_tilde)
    angle = -(np.arctan2(b_out[1], b_out[0]) - np.arctan2(b_in[1], b_in[0]))
    thomas_rel = abs(angle - 2 * np.pi * (gamma - 1)) / (2 * np.pi * (gamma - 1))
    ok = worst < 1e-8 and thomas_rel < 1e-6
    _report(4, "covariant vs rest-frame transport agree; Thomas angle exact",
            ok, f"max spinor dev {worst:.2e}, Thomas rel err {thomas_rel:.2e}")


def test_criterion_5_photon_wigner_consistency():
    model, ray = schwarzschild_ray()
    lams, angles = ph.wigner_rotation(ray, tol=1e-12)
    jones0 = np.array([0.8, -0.6j])
    st = ph.PhotonState(ph.adaptation_rotation(ray.velocity(0.0)).diad_inv @ jones0,
                        ray.start_event, ray.velocity(0.0))
    res = ph.transport(st, ray, tol=1e-13, n_samples=len(lams))
    worst = 0.0
    helicity_drift = 0.0
    h0 = ph.helicity_content(jones0)
    for i in range(0, len(lams), 10):
        _, jones = ph.adapt(res.states[i])
        expect = ph.jones_rotation(angles[i]) @ jones0
        worst = max(worst, np.abs(jones - expect).max())
        helicity_drift = max(helicity_drift, abs(ph.helicity_content(jones) - h0))
    ok = worst < 1e-8 and helicity_drift < 1e-9
    _report(5, "adapted-angle Wigner rotation matches 4-vector transport",
            ok, f"max Jones dev {worst:.2e}, helicity drift {helicity_drift:.2e}")


def test_criterion_6_gauge_and_frame_invariance():
    rng = np.random.default_rng(21)
    k = np.array([1.0, 0.3, 0.2, np.sqrt(1 - 0.09 - 0.04)])
    ev = FLAT.event(0, 0, 0, 0)
    st_p = ph.jones_to_state([0.6, 0.8j], k, ev)
    pol = ms.linear_polarizer(0.7, k)
    _, jones0 = ph.adapt(st_p)
    p0 = ms.polarizer_probability(st_p, pol)

    g = 1 / np.sqrt(1 - 0.25)
    u_f = np.array([g, 0.5 * g, 0, 0])
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    st_f = FermionState(psi, ev, u_f).normalized()
    m_rest = np.array([0.0, 0.0, 0.6, 0.8])
    setup = ms.SternGerlachSetup(m_rest, [1, 0, 0, 0], u_f)
    obs, _ = ms.spin_operator(setup)
    e0 = ms.expectation(st_f, obs)
    _, _, probs0 = ms.measure_spin(st_f, setup, rng=0)

    worst_gauge = 0.0
    for _ in range(100):
        ups = rng.standard_normal() + 1j * rng.standard_normal()
        shifted = st_p.gauge_shift(ups)
        kappa = rng.standard_normal() + 1j * rng.standard_normal()
        pol2 = ms.PolarizerVector.__new__(ms.PolarizerVector)
        object.__setattr__(pol2, "vector", pol.vector + kappa * k.astype(complex))
        object.__setattr__(pol2, "wavevector", k)
        _, jones = ph.adapt(shifted)
        worst_gauge = max(worst_gauge,
                          abs(ms.polarizer_probability(shifted, pol2) - p0),
                          np.abs(jones - jones0).max())

    worst_frame = 0.0
    for _ in range(100):
        lam = random_local_lorentz(rng)
        # photon probability
        k2 = lam.matrix @ k
        st2 = ph.PhotonState(lam.matrix @ st_p.pol, ev, k2)
        pol2 = ms.PolarizerVector(lam.matrix @ pol.vector, k2)
        worst_frame = max(worst_frame,
                          abs(ms.polarizer_probability(st2, pol2) - p0))
        # fermion expectation and outcome probabilities
        setup2 = ms.SternGerlachSetup(lam.matrix @ setup.orientation,
                                      lam.matrix @ setup.apparatus_velocity,
                                      lam.matrix @ setup.particle_velocity)
        st_f2 = FermionState(lam.half @ st_f.psi, ev, lam.matrix @ st_f.velocity)
        obs2, _ = ms.spin_operator(setup2)
        _, _, probs2 = ms.measure_spin(st_f2, setup2, rng=0)
        worst_frame = max(worst_frame, abs(ms.expectation(st_f2, obs2) - e0),
                          abs(probs2[+1] - probs0[+1]))
    ok = worst_gauge < 1e-12 and worst_frame < 1e-12
    _report(6, "100 gauge shifts and 100 local Lorentz moves leave outputs fixed",
            ok, f"gauge dev {worst_gauge:.2e}, frame dev {worst_frame:.2e}")


def test_criterion_7_algebraic_identity_suite():
    start = time.perf_counter()
    residuals = sigma_identity_check()
    elapsed = time.perf_counter() - start
    worst = max(residuals.values())
    ok = worst < 1e-13 and elapsed < 1.0
    _report(7, "sigma identities and so(1,3) brackets hold entrywise", ok,
            f"max residual {worst:.2e}, {elapsed:.2f} s")


def test_criterion_8_stern_gerlach():
    # comoving limit: |n - m| linear in beta
    m = np.array([0.0, 0.6, 0.0, 0.8])
    betas = [1e-1, 1e-2, 1e-3, 1e-4]
    errs = []
    for b in betas:
        g = 1 / np.sqrt(1 - b * b)
        u = g * np.array([1.0, b * 0.8, 0.0, b * 0.6])
        n = ms.SternGerlachSetup(m, [1, 0, 0, 0], u).projectors.axis
        errs.append(np.abs(n - m).max())
    slopes = np.diff(np.log(errs)) / np.diff(np.log(betas))
    slope_ok = np.all(np.abs(slopes - 1.0) < 0.1)

    rng = np.random.default_rng(31)
    eig_worst = 0.0
    for _ in range(100):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        beta = rng.uniform(0, 0.8) * rng.standard_normal(3)
        beta /= max(1.0, np.linalg.norm(beta) / 0.8)
        g = 1 / np.sqrt(1 - beta @ beta)
        u = g * np.array([1, *beta])
        setup = ms.SternGerlachSetup([0.0, *d], [1, 0, 0, 0], u)
        obs, _ = ms.spin_operator(setup)
        vals = np.sort(np.linalg.eigvals(obs.operator).real)
        eig_worst = max(eig_worst, np.abs(vals - [-1.0, 1.0]).max())

    stats_worst = 0.0
    ev = FLAT.event(0, 0, 0, 0)
    for _ in range(100):
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        st = FermionState(psi, ev, [1, 0, 0, 0]).normalized()
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        setup = ms.SternGerlachSetup([0.0, *d], [1, 0, 0, 0], [1, 0, 0, 0])
        _, _, probs = ms.measure_spin(st, setup, rng=0)
        nsig = np.einsum("i,iab->ab", d, PAULI[1:])
        vals, vecs = np.linalg.eigh(nsig)
        p_plus = abs(vecs[:, np.argmax(vals)].conj() @ st.psi) ** 2
        stats_worst = max(stats_worst, abs(probs[+1] - p_plus))
    ok = slope_ok and eig_worst < 1e-12 and stats_worst < 1e-12
    _report(8, "Stern-Gerlach: comoving limit, spectrum, cos^2(theta/2) statistics",
            ok, f"slopes {np.round(slopes, 3).tolist()}, eig dev {eig_worst:.2e}, "
                f"stats dev {stats_worst:.2e}")


def test_criterion_9_teleportation():
    model = make_builtin_model("schwarzschild", [1.0])
    rng = np.random.default_rng(41)

    def orbit(r0, span):
        x0 = np.array([0.0, r0, np.pi / 2, 0.0])
        omg = np.sqrt(1.0 / r0**3)
        u_coord = np.array([1.0, 0.0, 0.0, omg])
        u_coord = u_coord / np.sqrt(u_coord @ model.metric(x0) @ u_coord)
        u0 = model.inverse_tetrad(x0) @ u_coord
        return integrate_timelike(model, None, x0, u0, span=span, tol=1e-12)

    legs = [static_worldline(model, [8.0, np.pi / 2, 0.3], span=6.0),
            orbit(10.0, 12.0), orbit(14.0, 10.0)]
    fields = []
    for wl in legs:
        metric = velocity_inner_product_matrix(wl.velocity(0.0))
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = a / np.sqrt(np.real(a.conj() @ metric @ a))
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = b - (a.conj() @ metric @ b) * a
        b = b / np.sqrt(np.real(b.conj() @ metric @ b))
        pair = (FermionState(a, wl.start_event, wl.velocity(0.0)),
                FermionState(b, wl.start_event, wl.velocity(0.0)))
        fields.append(cp.make_basis_pair_field(pair, wl, tol=1e-13))

    worst = 0.0
    for _ in range(100):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alpha, beta = z / np.linalg.norm(z)
        for outcome in cp.BELL_OUTCOMES:
            res = cp.teleport(alpha, beta, fields, forced_outcome=outcome)
            worst = max(worst, abs(res.fidelity - 1.0))

    # negative control: corrections applied in the untransported basis
    control = [cp.teleport(0.6, 0.8, fields, forced_outcome=o,
                           correct_in_transported_basis=False).bob_state
               for o in cp.BELL_OUTCOMES]
    dists = []
    for i in range(4):
        for j in range(i + 1, 4):
            ov = abs(control[i].inner(control[j]))
            dists.append(np.sqrt(max(0.0, 1.0 - ov * ov)))
    ok = worst < 1e-9 and max(dists) > 1e-3
    _report(9, "teleportation fidelity 1 on curved legs; wrong-basis control detected",
            ok, f"max fidelity dev {worst:.2e}, control distance {max(dists):.3f}")


def test_criterion_10_endpoint_slide_invariance():
    rng = np.random.default_rng(51)
    # fermion arms: common velocity, flat space
    mass = 1.7
    g = 1 / np.sqrt(1 - 0.45**2)
    u0 = g * np.array([1.0, 0.45, 0.0, 0.0])
    wl1 = integrate_timelike(FLAT, None, np.zeros(4), u0, span=4.0, tol=1e-13)
    wl2 = integrate_timelike(FLAT, None, np.array([0.0, -0.2, 0.1, 0.0]), u0,
                             span=4.0, tol=1e-13)
    a1 = itf.arm_phase(wl1, kind="fermion", mass=mass, end_param=3.0, arm_id="1")
    a2 = itf.arm_phase(wl2, kind="fermion", mass=mass, end_param=3.0, arm_id="2")
    base_f = itf.phase_difference(a1, a2)
    worst_f = 0.0
    for _ in range(50):
        moved = itf.phase_difference(
            itf.slide_endpoint(a1, rng.uniform(-0.5, 0.5)),
            itf.slide_endpoint(a2, rng.uniform(-0.5, 0.5)))
        worst_f = max(worst_f, abs(moved - base_f))

    # photon arms: same Schwarzschild ray geometry, small recombination region
    model, ray1 = schwarzschild_ray(span=8.0)
    _, ray2 = schwarzschild_ray(span=8.0)
    p1 = itf.arm_phase(ray1, kind="photon", end_param=6.0, arm_id="p1")
    p2 = itf.arm_phase(ray2, kind="photon", end_param=6.0, arm_id="p2")
    base_p = itf.phase_difference(p1, p2)
    worst_p = 0.0
    for _ in range(50):
        moved = itf.phase_difference(
            itf.slide_endpoint(p1, rng.uniform(-1e-3, 1e-3)),
            itf.slide_endpoint(p2, rng.uniform(-1e-3, 1e-3)), match_tol=1e-4)
        worst_p = max(worst_p, abs(moved - base_p))
    ok = worst_f < 1e-9 and worst_p < 1e-9
    _report(10, "phase difference invariant under admissible endpoint slides",
            ok, f"fermion dev {worst_f:.2e}, photon dev {worst_p:.2e}")
