"""The command-line interface: CSV loading, subcommands, exit codes."""

import json

import numpy as np
import pytest

from modesig import GeneratorSpec, ModeTestConfig, generate, run_mode_test
from modesig.cli import load_csv, main


@pytest.fixture
def spec_file(tmp_path):
    def write(payload):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(payload))
        return str(p)
    return write


class TestLoadCsv:
    def test_single_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("0\n1\n2\n")
        x = load_csv(str(p))
        assert x.shape == (3, 1)
        assert np.array_equal(x, [[0.0], [1.0], [2.0]])

    def test_two_columns(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("1,2\n3,4\n")
        assert np.array_equal(load_csv(str(p)), [[1.0, 2.0], [3.0, 4.0]])

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,2\n\n3,4\n\n")
        assert load_csv(str(p)).shape == (2, 2)

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n1,2\n")
        assert np.array_equal(load_csv(str(p), has_header=True), [[1.0, 2.0]])

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged row 2"):
            load_csv(str(p))

    def test_non_numeric_cell_located(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_csv(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_csv(str(p))


class TestSimulate:
    def test_writes_csv(self, tmp_path, spec_file):
        spec = spec_file({"n": 25, "seed": 4, "mean": [1.0, 2.0]})
        out = tmp_path / "sample.csv"
        rc = main(["simulate", "--family", "gaussian", "--spec", spec, "--out", str(out)])
        assert rc == 0
        x = load_csv(str(out))
        expected = generate(GeneratorSpec(family="gaussian", n=25, seed=4,
                                          params={"mean": [1.0, 2.0]}))
        assert np.array_equal(x, expected)  # .17g round-trips exactly

    def test_byte_identical_reruns(self, tmp_path, spec_file):
        spec = spec_file({"n": 30, "seed": 7, "radius": 3.0, "noise": 0.2})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--family", "ring", "--spec", spec, "--out", str(a)]) == 0
        assert main(["simulate", "--family", "ring", "--spec", spec, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_default(self, capsys, spec_file):
        spec = spec_file({"n": 3, "seed": 0})
        assert main(["simulate", "--family", "gaussian", "--spec", spec]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3

    def test_bad_spec_key(self, spec_file, capsys):
        spec = spec_file({"n": 5, "radius": -2.0})
        rc = main(["simulate", "--family", "ring", "--spec", spec])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_mixture_without_means(self, spec_file, capsys):
        rc = main(["simulate", "--family", "mixture", "--spec", spec_file({"n": 10})])
        assert rc == 2
        assert "error: mixture spec must contain 'means'" in capsys.readouterr().err


class TestTestCommand:
    def test_matches_library_run(self, tmp_path, spec_file):
        spec = spec_file({"n": 300, "seed": 2,
                          "means": [[-5.0], [5.0]], "cov_diags": [[1.0], [1.0]]})
        out = tmp_path / "res"
        rc = main(["test", "--family", "mixture", "--spec", spec,
                   "--h", "1.0", "--B", "100", "--seed", "5", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())

        data = generate(GeneratorSpec(
            family="mixture", n=300, seed=2,
            params={"means": [[-5.0], [5.0]], "cov_diags": [[1.0], [1.0]]},
        ))
        ref = run_mode_test(data, ModeTestConfig(h=1.0, B=100, split_seed=5, boot_seed=5))
        assert len(doc["candidates"]) == ref.k
        for c, cand in zip(doc["candidates"], ref.candidates):
            assert c["location"] == [float(v) for v in cand.location]
        for p, port in zip(doc["portraits"], ref.portraits):
            assert p["significant"] == port.significant
            assert p["c_interval"] == [float(v) for v in port.c_interval]

    def test_rerun_byte_identical(self, tmp_path, spec_file):
        spec = spec_file({"n": 150, "seed": 3, "means": [[-4.0], [4.0]]})
        o1, o2 = tmp_path / "r1", tmp_path / "r2"
        args = ["test", "--family", "mixture", "--spec", spec,
                "--h", "1.0", "--B", "80"]
        assert main(args + ["--out", str(o1)]) == 0
        assert main(args + ["--out", str(o2)]) == 0
        assert (o1 / "report.json").read_bytes() == (o2 / "report.json").read_bytes()

    def test_csv_input(self, tmp_path):
        data = np.random.default_rng(0).normal(size=(120, 1))
        csv = tmp_path / "pts.csv"
        csv.write_text("\n".join(format(v, ".17g") for v in data[:, 0]) + "\n")
        out = tmp_path / "res"
        rc = main(["test", "--input", str(csv), "--h", "1.0", "--B", "60",
                   "--out", str(out), "--no-plots"])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["candidates"]) >= 1
        assert not (out / "eigenportrait.svg").exists()

    def test_both_sources_rejected(self, tmp_path, spec_file, capsys):
        csv = tmp_path / "x.csv"
        csv.write_text("0\n1\n")
        spec = spec_file({"n": 5})
        rc = main(["test", "--input", str(csv), "--family", "gaussian",
                   "--spec", spec, "--h", "1.0"])
        assert rc == 2
        assert "exactly one data source" in capsys.readouterr().err

    def test_no_source_rejected(self, capsys):
        rc = main(["test", "--h", "1.0"])
        assert rc == 2
        assert "exactly one data source" in capsys.readouterr().err

    def test_family_without_spec_rejected(self, capsys):
        rc = main(["test", "--family", "gaussian", "--h", "1.0"])
        assert rc == 2

    def test_degenerate_bandwidth_rejected(self, tmp_path, capsys):
        csv = tmp_path / "pts.csv"
        data = np.random.default_rng(0).normal(size=(600, 2))
        csv.write_text("\n".join(",".join(format(v, ".17g") for v in row) for row in data) + "\n")
        rc = main(["test", "--input", str(csv), "--h", "1e-200", "--B", "20",
                   "--out", str(tmp_path / "res"), "--no-plots"])
        assert rc == 2
        assert "error: bandwidth 1e-200 is out of range" in capsys.readouterr().err

    def test_missing_input_file(self, capsys):
        rc = main(["test", "--input", "/nonexistent/pts.csv", "--h", "1.0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestPersistCommand:
    def test_writes_diagram(self, tmp_path, spec_file):
        spec = spec_file({"n": 200, "seed": 1, "means": [[-5.0], [5.0]]})
        out = tmp_path / "res"
        rc = main(["persist", "--family", "mixture", "--spec", spec,
                   "--h", "0.8", "--B", "100", "--grid-res", "64", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["persistence"]["band"] > 0
        pairs = np.asarray(doc["persistence"]["pairs"])
        retained = np.sum(pairs[:, 1] - pairs[:, 0] > 2 * doc["persistence"]["band"])
        assert retained == 2
        assert (out / "persistence.svg").exists()

    def test_zero_replicates_rejected(self, spec_file, capsys):
        spec = spec_file({"n": 50, "seed": 1, "means": [[0.0]]})
        rc = main(["persist", "--family", "mixture", "--spec", spec,
                   "--h", "0.8", "--B", "0", "--grid-res", "16"])
        assert rc == 2
        assert "error: B must be >= 1" in capsys.readouterr().err


class TestBandwidthCommand:
    def test_explicit_grid(self, tmp_path, spec_file):
        spec = spec_file({"n": 260, "seed": 6, "means": [[-5.0], [5.0]]})
        out = tmp_path / "res"
        rc = main(["bandwidth", "--family", "mixture", "--spec", spec,
                   "--grid-min", "0.4", "--grid-max", "2.5", "--grid-count", "6",
                   "--B", "100", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["scan"]["h"]) == 6
        assert doc["scan"]["h_hat"] in doc["scan"]["h"]
        i = doc["scan"]["h"].index(doc["scan"]["h_hat"])
        assert doc["scan"]["N"][i] == max(doc["scan"]["N"])
        # the best run's portraits are included alongside the curve
        assert len(doc["portraits"]) == doc["scan"]["k"][i]
        assert (out / "bandwidth.svg").exists()

    def test_half_grid_rejected(self, spec_file, capsys):
        spec = spec_file({"n": 50, "seed": 0, "means": [[0.0]]})
        rc = main(["bandwidth", "--family", "mixture", "--spec", spec,
                   "--grid-min", "0.4"])
        assert rc == 2
        assert "together" in capsys.readouterr().err

    def test_reversed_ends_echo_the_scanned_grid(self, tmp_path, spec_file):
        spec = spec_file({"n": 120, "seed": 6, "means": [[-5.0], [5.0]]})
        out = tmp_path / "res"
        rc = main(["bandwidth", "--family", "mixture", "--spec", spec,
                   "--grid-min", "3", "--grid-max", "0.5", "--grid-count", "3",
                   "--B", "40", "--out", str(out), "--no-plots"])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        h = doc["scan"]["h"]
        assert h == sorted(h) and h[0] == 0.5
        assert (doc["config"]["grid_min"], doc["config"]["grid_max"]) == (h[0], h[-1])
        assert doc["config"]["grid_count"] == 3
