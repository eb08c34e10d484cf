"""CSV schema, number formatting, and SVG plot structure."""

import xml.etree.ElementTree as ET

import pytest

from etlab.experiments import SweepResult, SweepRow
from etlab.output import CSV_HEADER, emit_csv, emit_plot, format_number, parse_csv

SVG_NS = "{http://www.w3.org/2000/svg}"


def row(g, scenario, p, se=0.0, method="lindblad"):
    return SweepRow(
        gamma_over_omega=g, scenario=scenario, probability=p, stderr=se, method=method
    )


class TestFormatNumber:
    def test_decimal_not_scientific(self):
        assert "e" not in format_number(2.5e-5)
        assert format_number(2.5e-5) == "0.00002500000000"

    def test_ten_significant_digits(self):
        assert format_number(0.01) == "0.01000000000"
        assert format_number(1.0) == "1.000000000"
        assert format_number(0.123456789123) == "0.1234567891"

    def test_zero(self):
        assert float(format_number(0.0)) == 0.0


class TestEmitCsv:
    def test_empty_result_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(SweepResult(rows=()), path)
        assert path.read_text(encoding="utf-8") == ",".join(CSV_HEADER) + "\n"

    def test_single_row_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(SweepResult(rows=(row(0.01, "single", 0.95),)), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[1] == "0.01000000000,single,0.9500000000,0.000000000,lindblad"

    def test_lf_newlines(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv(SweepResult(rows=(row(0.01, "a", 0.5),)), path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_rows_sorted_by_scenario_then_gamma(self, tmp_path):
        rows = (row(0.1, "b", 0.1), row(0.01, "a", 0.2), row(0.05, "a", 0.3))
        path = tmp_path / "sorted.csv"
        emit_csv(SweepResult(rows=rows), path)
        lines = path.read_text().splitlines()[1:]
        keys = [(l.split(",")[1], float(l.split(",")[0])) for l in lines]
        assert keys == sorted(keys)

    def test_parse_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            parse_csv(path)

    def test_unwritable_path_reports_location(self):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv(SweepResult(rows=()), "/no/such/dir/out.csv")


def four_scenario_result(with_stderr):
    rows = []
    for label in ("alpha", "beta", "gamma", "delta"):
        for g in (0.0, 0.05, 0.1):
            rows.append(row(g, label, 1 - g, 0.01 if with_stderr else 0.0, "mc"))
    return SweepResult(rows=tuple(rows))


class TestEmitPlot:
    def test_four_curves_with_matching_legend(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_plot(four_scenario_result(with_stderr=True), path)
        root = ET.parse(path).getroot()
        curves = [el for el in root.iter(f"{SVG_NS}polyline") if el.get("class") == "curve"]
        assert len(curves) == 4
        legend = [el.text for el in root.iter(f"{SVG_NS}text") if el.get("class") == "legend-label"]
        assert sorted(legend) == ["alpha", "beta", "delta", "gamma"]
        assert sorted(c.get("data-scenario") for c in curves) == sorted(legend)

    def test_errorbars_present_when_stderr_positive(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_plot(four_scenario_result(with_stderr=True), path)
        root = ET.parse(path).getroot()
        bars = [el for el in root.iter(f"{SVG_NS}line") if el.get("class") == "errorbar"]
        assert len(bars) == 12

    def test_no_errorbars_when_stderr_zero(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_plot(four_scenario_result(with_stderr=False), path)
        root = ET.parse(path).getroot()
        bars = [el for el in root.iter(f"{SVG_NS}line") if el.get("class") == "errorbar"]
        assert bars == []

    def test_axis_ranges(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_plot(four_scenario_result(with_stderr=False), path)
        root = ET.parse(path).getroot()
        assert float(root.get("data-xmin")) == 0.0
        assert float(root.get("data-xmax")) == pytest.approx(0.1)
        assert float(root.get("data-ymin")) == 0.0
        assert float(root.get("data-ymax")) == 1.0

    def test_standalone_svg(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_plot(four_scenario_result(with_stderr=True), path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<?xml")
        assert 'xmlns="http://www.w3.org/2000/svg"' in text
        assert "href" not in text  # no external references

    def test_label_with_markup_characters_round_trips(self, tmp_path):
        # a quote used to end the data-scenario attribute early
        label = 'a"b<&'
        path = tmp_path / "plot.svg"
        emit_plot(SweepResult(rows=(row(0.0, label, 0.9), row(0.1, label, 0.8))), path)
        root = ET.parse(path).getroot()
        curves = [el for el in root.iter(f"{SVG_NS}polyline") if el.get("class") == "curve"]
        legend = [el.text for el in root.iter(f"{SVG_NS}text") if el.get("class") == "legend-label"]
        assert [c.get("data-scenario") for c in curves] == [label]
        assert legend == [label]

    def test_empty_result_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            emit_plot(SweepResult(rows=()), tmp_path / "x.svg")
