"""JSON document assembly (shortest round-trip floats) and the SVG figures."""

import json

import numpy as np
import pytest

from modesig import (
    BandwidthScan,
    GeneratorSpec,
    ModeTestConfig,
    PersistenceDiagram,
    build_document,
    dumps_json,
    emit_report,
    generate,
    run_mode_test,
    scan,
)
from modesig.report import bandwidth_svg, eigenportrait_svg, persistence_svg


@pytest.fixture(scope="module")
def trimodal_report():
    data = generate(GeneratorSpec(
        family="mixture", n=600, seed=0,
        params={"means": [[-6.0], [0.0], [6.0]], "cov_diags": [[1.0], [1.0], [1.0]]},
    ))
    return run_mode_test(data, ModeTestConfig(h=1.5, B=150))


@pytest.fixture(scope="module")
def planar_report():
    data = generate(GeneratorSpec(
        family="mixture", n=800, seed=1,
        params={"means": [[-4.0, -4.0], [4.0, -4.0], [-4.0, 4.0], [4.0, 4.0]]},
    ))
    return run_mode_test(data, ModeTestConfig(h=1.0, B=120))


class TestJson:
    def test_roundtrip_exact(self, trimodal_report):
        doc = build_document(config={"h": 1.5, "alpha": 0.1}, report=trimodal_report)
        assert json.loads(dumps_json(doc)) == doc

    def test_shortest_roundtrip_floats(self):
        text = dumps_json({"x": 1.0 / 3.0, "one": 1.0})
        # the exact token, not a prefix of a longer one
        assert json.loads(text, parse_float=str)["x"] == "0.3333333333333333"
        assert json.loads(text)["x"] == 1.0 / 3.0
        # an integer-valued float stays a float
        assert isinstance(json.loads(text)["one"], float)

    def test_numpy_scalars_accepted(self):
        doc = {"a": np.float64(0.5), "b": np.int64(3), "c": [np.float64(1.5)],
               "d": np.float32(0.25), "e": np.bool_(True)}
        parsed = json.loads(dumps_json(doc))
        assert parsed == {"a": 0.5, "b": 3, "c": [1.5], "d": 0.25, "e": True}

    def test_booleans_and_null(self):
        text = dumps_json({"t": True, "f": False, "n": None})
        parsed = json.loads(text)
        assert parsed == {"t": True, "f": False, "n": None}
        # bools must not have decayed to 0/1
        assert "true" in text and "false" in text

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            dumps_json({"x": float("nan")})
        with pytest.raises(ValueError, match="finite"):
            dumps_json({"x": float("inf")})

    def test_document_sections(self, trimodal_report):
        doc = build_document(config={"h": 1.5}, report=trimodal_report)
        assert doc["schema"] == 1
        assert doc["scan"] is None and doc["persistence"] is None
        assert len(doc["candidates"]) == trimodal_report.k
        assert len(doc["portraits"]) == trimodal_report.k
        for c in doc["candidates"]:
            assert set(c) == {"location", "density", "basin_size"}
        for p in doc["portraits"]:
            assert set(p) == {"gamma_rectangles", "c_interval", "significant", "grad_norm"}
            assert p["c_interval"] == p["gamma_rectangles"][0]

    def test_empty_document(self):
        doc = build_document()
        assert doc["candidates"] == [] and doc["portraits"] == []
        assert json.loads(dumps_json(doc)) == doc


class TestEigenportraitSvg:
    def test_one_panel_per_mode(self, planar_report):
        svg = eigenportrait_svg(planar_report)
        assert svg.count('class="panel"') == planar_report.k == 4
        # two eigenvalue intervals per panel in d = 2
        assert svg.count('class="interval"') == 8

    def test_valid_xml(self, trimodal_report):
        import xml.etree.ElementTree as ET
        ET.fromstring(eigenportrait_svg(trimodal_report))


class TestPersistenceSvg:
    def test_band_and_pairs(self):
        diag = PersistenceDiagram(
            pairs=np.array([[0.0, 1.0], [0.1, 0.3], [0.05, 0.12]]), band=0.05,
        )
        svg = persistence_svg(diag)
        assert svg.count('class="band"') == 1
        assert svg.count('class="pair') == 3
        assert svg.count('class="pair significant"') == 2

    def test_valid_xml(self):
        import xml.etree.ElementTree as ET
        diag = PersistenceDiagram(pairs=np.array([[0.0, 1.0]]), band=0.1)
        ET.fromstring(persistence_svg(diag))


class TestBandwidthSvg:
    def make_scan(self):
        return BandwidthScan(
            grid=np.array([0.2, 0.5, 1.0, 2.0]),
            candidate_counts=np.array([6, 3, 2, 1]),
            significant_counts=np.array([0, 2, 2, 1]),
            h_hat=0.5,
            m=2,
            reports=(),
        )

    def test_curves_and_marker(self):
        svg = bandwidth_svg(self.make_scan())
        assert svg.count('class="k-curve"') == 1
        assert svg.count('class="n-curve"') == 1
        assert svg.count('class="h-hat"') == 1

    def test_valid_xml(self):
        import xml.etree.ElementTree as ET
        ET.fromstring(bandwidth_svg(self.make_scan()))


class TestEmit:
    def test_full_set_of_paths(self, tmp_path, trimodal_report):
        data = generate(GeneratorSpec(family="gaussian", n=200, seed=3))
        res = scan(data, grid=np.array([0.5, 1.0]), cfg=ModeTestConfig(h=1.0, B=50))
        diag = PersistenceDiagram(pairs=np.array([[0.0, 1.0]]), band=0.1)
        paths = emit_report(
            tmp_path / "out", config={"h": 1.5}, report=trimodal_report,
            scan=res, diagram=diag,
        )
        names = sorted(p.rsplit("/", 1)[-1] for p in paths)
        assert names == ["bandwidth.svg", "eigenportrait.svg", "persistence.svg", "report.json"]
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["scan"]["h_hat"] == res.h_hat
        assert doc["persistence"]["band"] == 0.1

    def test_json_only_when_plots_disabled(self, tmp_path, trimodal_report):
        paths = emit_report(tmp_path / "o2", report=trimodal_report, emit_plots=False)
        assert len(paths) == 1 and paths[0].endswith("report.json")

    def test_zero_candidate_run_still_valid(self, tmp_path):
        from modesig import MeanShiftOptions
        data = generate(GeneratorSpec(family="gaussian", n=40, seed=4))
        rep = run_mode_test(
            data,
            ModeTestConfig(h=1.0, B=20, mean_shift=MeanShiftOptions(max_iter=2)),
        )
        assert rep.k == 0
        paths = emit_report(tmp_path / "o3", report=rep)
        doc = json.loads((tmp_path / "o3" / "report.json").read_text())
        assert doc["candidates"] == [] and doc["portraits"] == []
        svg = (tmp_path / "o3" / "eigenportrait.svg").read_text()
        assert "no candidate" in svg
