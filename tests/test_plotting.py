"""Tests for the sweep-aware plotting module (``btbx-repro plot``)."""

from __future__ import annotations

import pathlib
import xml.etree.ElementTree as ElementTree

import pytest

from repro.analysis import plotting

REPO_ROOT = pathlib.Path(__file__).parent.parent
SMOKE_CSV = REPO_ROOT / "results" / "shared_footprint_smoke.csv"
COMMITTED_FIGURE = REPO_ROOT / "results" / "shared_footprint_smoke_shared_services_btb_mpki.svg"


def _tiny_csv(tmp_path) -> str:
    path = tmp_path / "sweep.csv"
    path.write_text(
        "preset,axis,axis_value,style,asid_mode,cache_mode,config,tenant,btb_mpki,ipc\n"
        "demo,quantum,1024,BTB-X,flush,shared,BTB-X/flush,(aggregate),10.5,1.1\n"
        "demo,quantum,1024,BTB-X,flush,shared,BTB-X/flush,t0,12.0,0.9\n"
        "demo,quantum,2048,BTB-X,flush,shared,BTB-X/flush,(aggregate),8.25,1.2\n"
        "demo,quantum,1024,BTB-X,tagged,shared,BTB-X/tagged,(aggregate),6.0,1.3\n"
        "demo,quantum,2048,BTB-X,tagged,shared,BTB-X/tagged,(aggregate),5.5,1.35\n",
        encoding="utf-8",
    )
    return str(path)


class TestEverySweepPlots:
    """``plot`` renders the ``--csv`` output of each of the four sweeps."""

    @pytest.mark.parametrize(
        "argv,figure",
        [
            (["scenarios", "--preset", "solo_baseline", "--quanta", "1024,4096",
              "--tenant-counts", "1", "--styles", "btbx", "--asid-modes", "flush,tagged"],
             "quantum_solo_baseline_btb_mpki"),
            (["shared", "--fractions", "0.5,1", "--styles", "rbtb",
              "--asid-modes", "flush,tagged"],
             "shared_services_btb_mpki"),
            (["caches", "--preset", "solo_baseline", "--quanta", "1024,4096",
              "--tenant-counts", "1", "--cache-modes", "flush,tagged"],
             "quantum_solo_baseline_l1i_mpki"),
            (["tenants", "--tenant-counts", "4,8", "--asid-modes", "flush,partitioned",
              "--cache-modes", "shared"],
             "gen_tenants_2023_btb_mpki"),
        ],
        ids=["scenarios", "shared", "caches", "tenants"],
    )
    def test_sweep_csv_renders(self, argv, figure, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "smoke")
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep"] + argv + ["--csv", str(csv_path)]) == 0
        figures = plotting.plot_csv(str(csv_path))
        by_name = {pathlib.Path(p).name: pathlib.Path(p) for p in figures}
        assert f"sweep_{figure}.svg" in by_name, sorted(by_name)
        text = by_name[f"sweep_{figure}.svg"].read_text(encoding="utf-8")
        assert ElementTree.fromstring(text).tag.endswith("svg")
        assert text.count("<polyline") == 2  # one series per swept mode

    def test_x_axis_and_series_come_from_the_rows(self, tmp_path):
        (figure,) = [
            p for p in plotting.plot_csv(_tiny_csv(tmp_path))
            if p.endswith("btb_mpki.svg")
        ]
        text = pathlib.Path(figure).read_text(encoding="utf-8")
        assert ">quantum</text>" in text
        assert ">demo: btb_mpki</text>" in text

    def test_csv_without_row_columns_raises(self, tmp_path):
        bogus = tmp_path / "bogus.csv"
        bogus.write_text("foo,bar\n1,2\n", encoding="utf-8")
        with pytest.raises(plotting.PlotSchemaError, match="unrecognised"):
            plotting.plot_csv(str(bogus))


class TestSvgRendering:
    def test_plot_csv_writes_valid_svg_per_metric(self, tmp_path):
        figures = plotting.plot_csv(_tiny_csv(tmp_path))
        assert len(figures) == 2  # btb_mpki + ipc
        for figure in figures:
            root = ElementTree.parse(figure).getroot()
            assert root.tag.endswith("svg")
            text = pathlib.Path(figure).read_text(encoding="utf-8")
            assert "polyline" in text
            # Per-tenant rows are not plotted; only aggregates become series.
            assert "BTB-X/flush" in text and "BTB-X/tagged" in text
            assert "t0" not in text

    def test_output_is_deterministic(self, tmp_path):
        csv_path = _tiny_csv(tmp_path)
        first = [pathlib.Path(p).read_text() for p in plotting.plot_csv(csv_path)]
        second = [pathlib.Path(p).read_text() for p in plotting.plot_csv(csv_path)]
        assert first == second

    def test_out_dir_is_respected(self, tmp_path):
        out = tmp_path / "figures"
        figures = plotting.plot_csv(_tiny_csv(tmp_path), out_dir=str(out))
        assert all(pathlib.Path(p).parent == out for p in figures)

    def test_empty_csv_raises_schema_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(plotting.PlotSchemaError):
            plotting.plot_csv(str(empty))


class TestCommittedFigure:
    """The committed smoke figure must stay in lockstep with its CSV."""

    def test_committed_figure_matches_its_csv(self, tmp_path):
        assert SMOKE_CSV.exists() and COMMITTED_FIGURE.exists()
        figures = plotting.plot_csv(str(SMOKE_CSV), out_dir=str(tmp_path))
        regenerated = {pathlib.Path(p).name: pathlib.Path(p).read_text() for p in figures}
        assert COMMITTED_FIGURE.name in regenerated
        assert COMMITTED_FIGURE.read_text() == regenerated[COMMITTED_FIGURE.name], (
            "results/shared_footprint_smoke_*.svg drifted from its CSV; "
            "regenerate it with 'btbx-repro plot results/shared_footprint_smoke.csv'"
        )

    def test_committed_figure_is_valid_svg(self):
        root = ElementTree.parse(COMMITTED_FIGURE).getroot()
        assert root.tag.endswith("svg")

