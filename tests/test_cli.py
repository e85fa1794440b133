import json
import math
import os

import numpy as np
import pytest

from ggflow import cli
from ggflow.cli import main


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


SYSTEM_3 = {
    "pi": [1 / 3, 1 / 3, 1 / 3],
    "kappa": [
        [0.0, 0.6, 0.3],
        [0.6, 0.0, 0.45],
        [0.3, 0.45, 0.0],
    ],
}


class TestCheckScenario:
    def test_check_passes(self, tmp_path, capsys):
        assert main(["check", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema"] == "ggflow/1"
        assert all(entry["passed"] for entry in report["checks"].values())


class TestEvolveScenario:
    def test_reports_and_artifacts(self, tmp_path):
        cfg = {
            "system": SYSTEM_3,
            "dissipation": {"family": "cosh"},
            "entropy": {"family": "boltzmann"},
            "u0": [2.0, 0.6, 0.4],
            "T": 1.0,
            "dt": 1e-3,
        }
        rc = main(["evolve", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert abs(report["edb"]["deficit"]) < 1e-4
        assert (tmp_path / "out" / "trajectory.csv").exists()
        assert (tmp_path / "out" / "fluxes.csv").exists()

    def test_negative_dt_is_config_error(self, tmp_path, capsys):
        cfg = {
            "system": SYSTEM_3,
            "u0": [1.0, 1.0, 1.0],
            "T": 1.0,
            "dt": -0.1,
        }
        rc = main(["evolve", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "dt" in capsys.readouterr().err

    def test_missing_config_is_error(self, tmp_path):
        assert main(["evolve", "--config", str(tmp_path / "nope.json")]) == 2


class TestDVTScenario:
    def test_runs_and_reports_value(self, tmp_path):
        cfg = {
            "system": {"pi": [0.5, 0.5], "kappa": [[0.0, 1.0], [1.0, 0.0]]},
            "dissipation": {"family": "constant_alpha", "params": {}},
            "rho0": [0.8, 0.2],
            "rho1": [0.5, 0.5],
            "tau": 1.0,
        }
        rc = main(["dvt", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert abs(report["value"] - 0.09) < 1e-4


class TestJKOScenario:
    def test_convergence_table(self, tmp_path):
        cfg = {
            "system": SYSTEM_3,
            "rho0": [0.6, 0.2, 0.2],
            "T": 0.4,
            "tau_list": [0.2, 0.1],
        }
        rc = main(["jko", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["convergence_table"]) == 2
        gaps = [row["sup_tv_gap"] for row in report["convergence_table"]]
        assert gaps[1] <= gaps[0]


class TestLDPScenario:
    def test_deterministic_reports(self, tmp_path):
        cfg = {
            "system": SYSTEM_3,
            "n": 300,
            "T": 1.0,
            "seed": 5,
            "bins": 20,
        }
        path = write_config(tmp_path, cfg)
        assert main(["ldp", "--config", path, "--out", str(tmp_path / "a")]) == 0
        assert main(["ldp", "--config", path, "--out", str(tmp_path / "b")]) == 0
        ra = (tmp_path / "a" / "report.json").read_bytes()
        rb = (tmp_path / "b" / "report.json").read_bytes()
        assert ra == rb
        ea = (tmp_path / "a" / "events.csv").read_bytes()
        eb = (tmp_path / "b" / "events.csv").read_bytes()
        assert ea == eb

    def test_seed_flag_overrides(self, tmp_path):
        cfg = {"system": SYSTEM_3, "n": 100, "T": 0.5, "seed": 5, "bins": 10}
        path = write_config(tmp_path, cfg)
        assert main(["ldp", "--config", path, "--seed", "6",
                     "--out", str(tmp_path / "c")]) == 0
        report = json.loads((tmp_path / "c" / "report.json").read_text())
        assert report["seed"] == 6

    @pytest.mark.parametrize("field, value", [
        ("n", 0), ("n", "abc"), ("n", 2.5), ("bins", 0), ("bins", "ten"),
        ("bins", True), ("seed", "abc"), ("seed", 1.5),
        ("rho0", [0.5, 0.5]), ("rho0", [1.0, -1.0, 1.0]), ("rho0", [1.0, float("nan"), 0.0]),
        ("rho0", [0.0, 0.0, 0.0]), ("rho0", "abc"),
    ])
    def test_bad_field_is_config_error(self, tmp_path, capsys, field, value):
        cfg = {"system": SYSTEM_3, "n": 50, "T": 0.5, "seed": 5, "bins": 10, field: value}
        path = write_config(tmp_path, cfg)
        assert main(["ldp", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert repr(field) in capsys.readouterr().err

    def test_counting_identity_reports_its_residual(self, tmp_path):
        cfg = {"system": SYSTEM_3, "n": 200, "T": 1.0, "seed": 3, "bins": 7,
               "rho0": [3.0, 1.0, 0.0]}
        assert main(["ldp", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 0
        entry = json.loads((tmp_path / "out" / "report.json").read_text())["checks"][
            "counting_identity"]
        assert entry["passed"] and 0.0 <= entry["value"] <= 1e-12


def _rowwise_csv(header, rows):
    # the per-row formatting the column writer replaced
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


class TestCSVWriter:
    @pytest.mark.parametrize("n_rows", [0, 1, 7, 23])
    def test_columns_match_rowwise_formatting(self, tmp_path, monkeypatch, n_rows):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 5)
        specials = [0.1, -0.0, 1e-300, 1 / 3, math.inf, math.nan, -math.inf, 2.0]
        floats = [specials[k % len(specials)] * (1 + k) for k in range(n_rows)]
        ints = [(-1) ** k * 10 ** (k % 12) for k in range(n_rows)]
        path = tmp_path / "out.csv"
        cli._write_csv(str(path), ["x", "k", "y"],
                       [np.array(floats), np.array(ints, dtype=np.int64), floats[::-1]])
        rows = [(float(a), int(b), float(c)) for a, b, c in zip(floats, ints, floats[::-1])]
        assert path.read_text() == _rowwise_csv(["x", "k", "y"], rows)
