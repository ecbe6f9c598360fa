"""Every quline name the benchmark tracer (``bench/spans.py``) wraps must
exist, or ``bench/run.py --trace 1`` stops with AttributeError."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module, attr", spans.FUNCTIONS)
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, method, span", spans.METHODS)
def test_traced_method_exists(module, cls, method, span):
    assert callable(vars(getattr(importlib.import_module(module), cls))[method])


def test_tracer_reads_transport_audits():
    # the tracer records these two audits from every transport result, the
    # fermion one from covariant and rest-frame transports alike
    from quline import fermion, photon
    from quline.geometry import make_builtin_model
    from quline.worldline import TransportResult, integrate_null_geodesic, static_worldline

    flat = make_builtin_model("minkowski", [])
    line = static_worldline(flat, [0.0, 0.0, 0.0], span=1.0)
    spinor = fermion.FermionState([1.0, 0.0], line.start_event, line.velocity(0.0))
    ray = integrate_null_geodesic(flat, [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0])
    pol = photon.PhotonState([0.0, 1.0, 0.0, 0.0], ray.start_event, ray.velocity(0.0))
    results = [fermion.transport(spinor, line, n_samples=5),
               fermion.transport_rest_frame(fermion.RestFrameState([1.0, 0.0]), line,
                                            n_samples=5),
               photon.transport(pol, ray, n_samples=5)]
    assert all(type(result) is TransportResult for result in results)
    tracer = spans.Tracer()
    tracer._after_fermion(results[0])
    tracer._after_fermion(results[1])
    tracer._after_photon(results[2])
    assert set(tracer.maxima) == {"fermion.norm_drift", "photon.transversality_drift"}
