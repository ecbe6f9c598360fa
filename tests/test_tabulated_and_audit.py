import json

import numpy as np
import pytest

from quline import cli
from quline.errors import QulineError
from quline.geometry import (TabulatedModel, connection_finite_difference,
                             make_builtin_model)
from quline.spin_algebra import ETA


class TestTabulatedModel:
    def build_rindler_table(self, g_acc=0.3, nz=41):
        zs = np.linspace(-0.5, 2.0, nz)
        axes = [np.array([0.0]), np.array([0.0]), np.array([0.0]), zs]
        tetrads = np.empty((1, 1, 1, nz, 4, 4))
        for i, z in enumerate(zs):
            tetrads[0, 0, 0, i] = np.diag([1.0 / (1.0 + z * g_acc), 1, 1, 1])
        return TabulatedModel(axes, tetrads)

    def test_interpolated_tetrad_close_to_analytic(self):
        g_acc = 0.3
        model = self.build_rindler_table(g_acc)
        exact = make_builtin_model("rindler", [g_acc])
        for z in (0.0, 0.31, 1.27):
            c = np.array([0.0, 0.0, 0.0, z])
            # linear interpolation of a smooth tetrad: grid-spacing^2 accuracy
            assert np.abs(model.tetrad(c) - exact.tetrad(c)).max() < 2e-3
            e = model.tetrad(c)
            assert np.abs(e.T @ model.metric(c) @ e - ETA).max() < 1e-12

    def test_connection_is_finite_difference(self):
        model = self.build_rindler_table()
        c = np.array([0.0, 0.0, 0.0, 0.4])
        w = model.connection(c)
        w2 = connection_finite_difference(model, c)
        assert np.abs(w - w2).max() == 0.0
        low = np.einsum("ik,nkj->nij", ETA, w)
        assert np.abs(low + low.transpose(0, 2, 1)).max() < 1e-8

    def test_domain_bounds(self):
        from quline.errors import DomainError
        model = self.build_rindler_table()
        with pytest.raises(DomainError):
            model.check_domain(np.array([0.0, 0.0, 0.0, 5.0]))

    def test_stencil_leaving_domain_raises(self):
        from quline.errors import DomainError
        model = self.build_rindler_table()
        edge = np.array([0.0, 0.0, 0.0, 2.0 - 0.5 * model.fd_step])
        model.check_domain(edge)
        with pytest.raises(DomainError, match="stencil"):
            connection_finite_difference(model, edge)
        with pytest.raises(DomainError):
            model.connection(edge)

    def test_tetrads_match_pointwise_tetrad(self):
        rng = np.random.default_rng(3)
        xs, zs = np.linspace(-1.0, 1.0, 5), np.linspace(0.0, 2.0, 7)
        table = rng.normal(size=(1, len(xs), 1, len(zs), 4, 4)) + 3.0 * np.eye(4)
        model = TabulatedModel([[0.0], xs, [0.0], zs], table)
        points = np.column_stack([rng.uniform(-5, 5, 20), rng.uniform(-1, 1, 20),
                                  rng.uniform(-5, 5, 20), rng.uniform(0, 2, 20)])
        np.testing.assert_allclose(model.tetrads(points),
                                   np.array([model.tetrad(p) for p in points]),
                                   rtol=1e-15, atol=1e-15)
        const = TabulatedModel([[0.0]] * 4, table[:, :1, :, :1])
        np.testing.assert_array_equal(const.tetrads(points[:3]),
                                      np.array([const.tetrad(p) for p in points[:3]]))

    @pytest.mark.parametrize("entry, value", [((3, 3), 0.0), ((1, 2), np.nan)])
    def test_singular_or_non_finite_node_tetrad_is_refused(self, entry, value):
        table = np.tile(np.eye(4), (1, 1, 1, 3, 1, 1))
        table[0, 0, 0, 2][entry] = value
        with pytest.raises(QulineError, match=r"node \(0, 0, 0, 2\) is singular or not finite"):
            TabulatedModel([[0.0], [0.0], [0.0], [0.0, 1.0, 2.0]], table)

    def test_scenario_tabulated_model(self, tmp_path):
        zs = [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
        tetrads = [[[[np.diag([1.0 / (1.0 + z * 0.3), 1, 1, 1]).tolist()
                      for z in zs]]]]
        import yaml
        scenario = {
            "version": 1,
            "model": {"family": "tabulated",
                      "params": {"axes": [[0.0], [0.0], [0.0], zs],
                                 "tetrads": tetrads}},
            "worldlines": {"rest": {"type": "static", "position": [0, 0, 0.5],
                                    "span": 0.5}},
            "qubits": {"q0": {"kind": "fermion", "worldline": "rest",
                              "mass": 1000.0}},
            "schedule": [{"op": "transport", "qubit": "q0", "worldline": "rest"}],
        }
        f = tmp_path / "tab.scenario"
        f.write_text(yaml.safe_dump(scenario))
        assert cli.main(["--out-dir", str(tmp_path), "validate", str(f)]) == cli.EXIT_OK
        assert cli.main(["--out-dir", str(tmp_path), "run", str(f)]) == cli.EXIT_OK


class TestAuditViolation:
    def test_run_exits_nonzero_on_tolerance_violation(self, tmp_path):
        import yaml
        scenario = {
            "version": 1,
            "model": {"family": "minkowski"},
            "worldlines": {"orbit": {"type": "circular", "radius": 0.5,
                                     "beta": 0.9, "revolutions": 20}},
            "qubits": {"q0": {"kind": "fermion", "worldline": "orbit",
                              "mass": 1000.0}},
            "schedule": [{"op": "transport", "qubit": "q0", "worldline": "orbit",
                          "tolerance": 3e-4}],
            "output": {"json": "loose.json"},
        }
        f = tmp_path / "loose.scenario"
        f.write_text(yaml.safe_dump(scenario))
        code = cli.main(["--out-dir", str(tmp_path), "run", str(f)])
        assert code == cli.EXIT_TOLERANCE
        report = json.loads((tmp_path / "loose.json").read_text())
        assert "norm_drift" in report["invariant_audit"]["violations"]
        assert report["invariant_audit"]["norm_drift"] > 1e-9
