"""The transport kernel's generators and reads on whole arrays give the bytes
of the forms they replaced, which are kept here as references: the complex
einsum over L^{IJ}, eta @ pulled, np.cross, the per-read Lagrange weights,
the per-read (and per-interval) product against a gathered G and a read's
half-step product taken one read at a time.  A spin state's inner-product
matrix, its realization's ``metrics`` at its one label, gives the bytes of
``velocity_inner_product_matrix``, the one-label form it replaced.  Every
comparison is of uint64 views, so a signed zero or a last bit counts.

The last test reruns this file in fresh child processes under another
OpenBLAS kernel and with numpy's AVX-512 dispatch switched off."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quline import fermion as fm
from quline import worldline as wld
from quline.geometry import _parallel_generator
from quline.spin_algebra import (ETA, ETA_ROWS, GENERATORS, PAULI, generator_contraction,
                                 velocity_inner_product_matrix)
from quline.worldline import NODES, SUBNODES

from test_transport_kernel import matrix_first_half_steps

EM = wld.constant_magnetic_field([0.2, 0.0, 0.9])


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(bits(got), bits(want))


def einsum_contraction(coeffs):
    return np.einsum("...ij,ijab->...ab", coeffs, GENERATORS)


def reference_covariant(em, charge_to_mass, x, u, a, xdot, pulled):
    coeffs = 0.5 * (ETA @ pulled) + fm._outer(u @ ETA, a @ ETA)
    if em is not None and charge_to_mass != 0.0:
        coeffs = coeffs - 0.5 * charge_to_mass * fm._rest_frame_magnetic(u, em.tensor(x))
    return 1j * einsum_contraction(coeffs)


def reference_wigner(u, du, omega_pull):
    gamma = u[..., 0, None]
    beta = u[..., 1:] / gamma
    dbeta = (du[..., 1:] * u[..., :1] - u[..., 1:] * du[..., :1]) / u[..., :1] ** 2
    thomas_vec = np.cross(beta, dbeta)
    gamma = gamma[..., None]
    gen = 1j * gamma * gamma / (2.0 * (gamma + 1.0)) * np.einsum(
        "...k,kab->...ab", thomas_vec, PAULI[1:])
    w = np.zeros(np.shape(omega_pull))
    w[..., 1:, 1:] = (0.5 * omega_pull[..., 1:, 1:]
                      + gamma * fm._outer(beta, omega_pull[..., 0, 1:])
                      + gamma * gamma / (gamma + 1.0)
                      * fm._outer((omega_pull[..., 1:, 1:] @ beta[..., None])[..., 0], beta))
    return gen + 1j * einsum_contraction(w)


def reference_lagrange(t, nodes=NODES, barycentric=wld._NODE_WEIGHTS):
    gap = t[..., None] - nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = barycentric / gap
        weights /= weights.sum(axis=-1, keepdims=True)
    hit = gap == 0
    if not hit.any():
        return weights
    return np.where(hit.any(axis=-1, keepdims=True), hit, weights)


def reference_interpolate(g, weights):
    return (weights @ g.reshape(len(g), len(NODES), 4)).reshape(len(g), weights.shape[-2], 2, 2)


def signed_entries(rng, shape):
    """Normal entries scaled by 1e-8 to 1e8, a tenth of them 0.0 and a tenth -0.0."""
    c = rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
    pick = rng.random(shape)
    c[pick < 0.1] = 0.0
    c[(pick >= 0.1) & (pick < 0.2)] = -0.0
    return c


def kinematics(rng, shape):
    """(x, u, a, xdot, pulled) with unit timelike u, signed zeros among the
    spatial velocities, and signed entries elsewhere."""
    u = np.clip(signed_entries(rng, shape + (4,)), -3.0, 3.0)
    u[..., 0] = np.sqrt(1.0 + (u[..., 1:] ** 2).sum(axis=-1))
    x = rng.normal(size=shape + (4,))
    return x, u, signed_entries(rng, shape + (4,)), x, signed_entries(rng, shape + (4, 4))


SHAPES = [(), (1,), (9,), (517,)]


@pytest.mark.parametrize("shape", SHAPES)
def test_contraction_is_the_einsum_over_l(shape):
    rng = np.random.default_rng(len(shape) + sum(shape))
    for _ in range(20):
        c = signed_entries(rng, shape + (4, 4))
        assert_same_bits(generator_contraction(c), einsum_contraction(c))
        assert_same_bits(generator_contraction(ETA_ROWS * c), einsum_contraction(ETA @ c))


@pytest.mark.parametrize("shape", SHAPES)
def test_generators_are_the_replaced_forms(shape):
    """The parallel, covariant (with and without a field) and rest-frame
    generators, and the Wigner generator itself, against the forms with
    eta @ pulled, np.cross and the complex einsum."""
    rng = np.random.default_rng(7 + sum(shape))
    for _ in range(10):
        x, u, a, xdot, pulled = kinematics(rng, shape)
        assert_same_bits(_parallel_generator(x, u, a, xdot, pulled),
                         0.5j * einsum_contraction(ETA @ pulled))
        for em, q in ((None, 0.0), (EM, 1.3)):
            assert_same_bits(fm._covariant_generator(em, q, x, u, a, xdot, pulled),
                             reference_covariant(em, q, x, u, a, xdot, pulled))
        udot = a - (pulled @ u[..., None])[..., 0]
        assert_same_bits(fm._rest_frame_generator(x, u, a, xdot, pulled),
                         reference_wigner(u, udot, ETA @ pulled))
        du = signed_entries(rng, shape + (4,))
        assert_same_bits(fm._wigner_generator(u, du, pulled), reference_wigner(u, du, pulled))


def test_lagrange_constants_are_the_reference_ones():
    assert_same_bits(wld._AT_SUBNODES, reference_lagrange(SUBNODES[None])[0])
    check = reference_lagrange(wld.GAUSS_NODES[::2])
    check[:, 1:-1] -= reference_lagrange(wld.GAUSS_NODES[::2], NODES[1:-1],
                                         wld._barycentric(NODES[1:-1]))
    assert_same_bits(wld._READ_CHECK, check)


@pytest.mark.parametrize("n", [1, 2, 199, 4097])
@pytest.mark.parametrize("intervals", ["one", "many"])
def test_node_first_reads_repeat_the_per_read_arithmetic(n, intervals):
    """The reads' node-first weights at the six half-step nodes and their
    one product per interval, stacked over intervals with as many reads,
    against the per-read weights and products over a gathered G, on random
    complex G; a third of the reads are at 0 or 1, where the half-step nodes
    fall exactly on nodes (hits)."""
    rng = np.random.default_rng(n)
    k = 1 if intervals == "one" else max(2, n // 3)
    g = rng.normal(size=(k, 9, 2, 2)) + 1j * rng.normal(size=(k, 9, 2, 2))
    held = rng.integers(0, k, n)
    theta = rng.uniform(0.0, 1.0, n)
    theta[:n // 3] = rng.integers(0, 2, n // 3)
    order, got = wld._interpolate_reads(g, held, theta)
    np.testing.assert_array_equal(np.sort(order), np.arange(n))
    assert np.all(np.diff(np.bincount(held)[held[order]]) >= 0)     # fewer reads first
    want = reference_interpolate(g[held[order]],
                                 reference_lagrange(theta[order, None] * SUBNODES[:6]))
    assert_same_bits(got, want)


@pytest.mark.parametrize("n", [1, 2, 199, 4097])
@pytest.mark.parametrize("special", ["none", "zero", "too_large"])
def test_half_step_reads_repeat_the_per_read_arithmetic(n, special):
    """A read's map, the product of its two half steps, on an entry-first
    (2, 2, n) stack of reads against one read at a time in the (n, 2, 2)
    layout, on random traceless G at the six half-step nodes, with one
    read's G zero (s = 0 in the closed-form exp) or too large to
    exponentiate."""
    rng = np.random.default_rng(n)
    g = rng.normal(size=(n, 6, 2, 2)) + 1j * rng.normal(size=(n, 6, 2, 2))
    g[..., 1, 1] = -g[..., 0, 0]
    h = rng.uniform(0.01, 0.5, n)
    if special == "zero":
        g[n // 2] = 0.0
    elif special == "too_large":
        g[n // 2] *= 1e200
    reads = wld._half_steps(g, h)[0]
    assert reads.shape == (2, 2, n)
    assert_same_bits(np.ascontiguousarray(np.moveaxis(reads, -1, 0)),
                     matrix_first_half_steps(g, h))


@pytest.mark.parametrize("n", [1, 2, 61, 1000])
def test_node_products_repeat_the_per_interval_arithmetic(n):
    """A round's interpolant at SUBNODES and read check, one product over all
    intervals' G node by node, against one product per interval."""
    rng = np.random.default_rng(n)
    g = rng.normal(size=(n, 9, 2, 2)) + 1j * rng.normal(size=(n, 9, 2, 2))
    g[n // 2] = g[n // 2, 4]       # a constant G: its check is exactly 0
    at_subnodes, misread = wld._node_products(g)
    assert_same_bits(np.ascontiguousarray(at_subnodes),
                     reference_interpolate(g, wld._AT_SUBNODES[None]))
    change = (g - g[:, 4:5]).reshape(n, len(NODES), 4)
    assert_same_bits(misread, np.abs(wld._READ_CHECK @ change).max(axis=(1, 2)))
    assert misread[n // 2] == 0.0


def test_one_label_metrics_are_the_velocity_inner_product_matrix():
    """``FermionState.metrics(u[None])[0]``, the matrix a spin state's slot
    forms, against ``velocity_inner_product_matrix(u)`` on fixed velocities:
    at rest, boosted along each axis and both ways, with -0.0 components,
    and seeded ones with signed zeros among their spatial parts."""
    fixed = [[1.0, 0.0, 0.0, 0.0], [1.0, -0.0, -0.0, -0.0], [1.25, 0.0, 0.75, 0.0],
             [1.25, -0.75, -0.0, 0.0], [1.25, 0.0, 0.0, -0.75], [1.0 + 1e-12, 0.0, 0.0, 0.0],
             [np.sqrt(1.0 + 3e6 ** 2 * 3), 3e6, -3e6, 3e6]]
    seeded = kinematics(np.random.default_rng(3), (500,))[1]
    for u in np.concatenate([fixed, seeded]):
        assert_same_bits(fm.FermionState.metrics(u[None])[0], velocity_inner_product_matrix(u))


def avx512_targets():
    """numpy's AVX-512 dispatch targets on this build (X86_V4, AVX512_ICL, ...)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:         # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return [t for t in __cpu_dispatch__ if t.startswith(("AVX512", "X86_V4"))]


@pytest.mark.parametrize("setting", ["OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"])
def test_byte_checks_hold_under_other_kernels(setting):
    """This file's byte checks, rerun in a fresh child process under the
    Haswell OpenBLAS kernel, then with numpy's AVX-512 dispatch off: each new
    form repeats the replaced one under the same kernels.  Only the child's
    environment is set."""
    env = dict(os.environ)
    if setting == "OPENBLAS_CORETYPE":
        env[setting] = "Haswell"
    else:
        targets = avx512_targets()
        if not targets:
            pytest.skip("this numpy dispatches no AVX-512 target")
        env[setting] = " ".join(targets)
    src = str(Path(wld.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run(
        [sys.executable, "-W", "error::ImportWarning", "-m", "pytest", "-q",
         "-p", "no:cacheprovider", "-k", "not other_kernels", __file__],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    assert " passed" in run.stdout and "failed" not in run.stdout
