"""Unit tests for run-report building, validation, and rendering."""

import json

import pytest

from repro import observe
from repro.observe import (
    ReportSchemaError,
    SCHEMA_ID,
    Tracer,
    build_report,
    flatten_phases,
    format_tree,
    validate_report,
)
from repro.observe.report import main as report_main


def make_tracer() -> Tracer:
    tracer = Tracer()
    with observe.tracing(tracer):
        with observe.span("synthesize"):
            with observe.span("collapse"):
                observe.add("nodes_built", 42)
            with observe.span("map"):
                for _ in range(3):
                    with observe.span("imodec"):
                        observe.add("iterations", 2)
        with observe.span("verify"):
            pass
    return tracer


class TestBuildReport:
    def test_round_trip_validates(self):
        report = build_report(make_tracer(), meta={"circuit": "rd53", "k": 4})
        assert validate_report(report) is report
        # and survives JSON serialization unchanged
        reparsed = json.loads(json.dumps(report))
        assert validate_report(reparsed) == report

    def test_schema_and_totals(self):
        report = build_report(make_tracer())
        assert report["schema"] == SCHEMA_ID
        top_names = [s["name"] for s in report["spans"]]
        assert top_names == ["synthesize", "verify"]
        assert report["total_seconds"] == pytest.approx(
            sum(s["seconds"] for s in report["spans"])
        )

    def test_aggregated_span_carries_calls_and_counters(self):
        report = build_report(make_tracer())
        synth = report["spans"][0]
        imodec = synth["children"][1]["children"][0]
        assert imodec["name"] == "imodec"
        assert imodec["calls"] == 3
        assert imodec["counters"]["iterations"] == 6


class TestValidateReport:
    def test_rejects_wrong_schema_id(self):
        report = build_report(make_tracer())
        report["schema"] = "something-else/9"
        with pytest.raises(ReportSchemaError, match=r"\$\.schema"):
            validate_report(report)

    def test_rejects_missing_keys(self):
        report = build_report(make_tracer())
        del report["total_seconds"]
        with pytest.raises(ReportSchemaError, match="missing keys"):
            validate_report(report)

    def test_rejects_negative_seconds(self):
        report = build_report(make_tracer())
        report["spans"][0]["seconds"] = -1.0
        with pytest.raises(ReportSchemaError, match="non-negative"):
            validate_report(report)

    def test_rejects_unknown_span_keys(self):
        report = build_report(make_tracer())
        report["spans"][0]["extra"] = 1
        with pytest.raises(ReportSchemaError, match="unknown keys"):
            validate_report(report)

    def test_rejects_non_numeric_counter(self):
        report = build_report(make_tracer())
        report["spans"][0]["counters"]["bad"] = "fast"
        with pytest.raises(ReportSchemaError, match="must be a number"):
            validate_report(report)

    def test_rejects_duplicate_sibling_names(self):
        report = build_report(make_tracer())
        synth = report["spans"][0]
        synth["children"].append(dict(synth["children"][0]))
        with pytest.raises(ReportSchemaError, match="distinct names"):
            validate_report(report)

    def test_rejects_non_scalar_meta(self):
        report = build_report(make_tracer(), meta={"nested": {"no": 1}})
        with pytest.raises(ReportSchemaError, match=r"\$\.meta"):
            validate_report(report)

    def test_error_names_the_offending_path(self):
        report = build_report(make_tracer())
        report["spans"][0]["children"][0]["calls"] = 0
        with pytest.raises(ReportSchemaError, match="synthesize/collapse"):
            validate_report(report)


class TestRendering:
    def test_format_tree_indents_by_depth(self):
        text = format_tree(make_tracer())
        lines = text.splitlines()
        assert lines[0].startswith("total:")
        assert any(line.startswith("  synthesize:") for line in lines)
        assert any(line.startswith("    collapse:") for line in lines)
        assert "x3" in text  # aggregated imodec span shows its call count

    def test_flatten_phases_uses_slash_paths(self):
        flat = flatten_phases(build_report(make_tracer()))
        assert set(flat) == {
            "synthesize",
            "synthesize/collapse",
            "synthesize/map",
            "synthesize/map/imodec",
            "verify",
        }
        assert all(seconds >= 0 for seconds in flat.values())


class TestCliValidator:
    def test_valid_file_passes(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(build_report(make_tracer())))
        assert report_main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_file_fails(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"schema": "nope"}))
        assert report_main([str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_no_arguments_is_usage_error(self, capsys):
        assert report_main([]) == 2
        assert "usage" in capsys.readouterr().err


class TestEngineSection:
    def test_engine_section_round_trips(self):
        engine = {
            "executor": "process", "workers": 2, "tasks_total": 10,
            "tasks_decompose": 3, "tasks_emit_lut": 5, "tasks_shannon": 0,
            "tasks_compose": 2, "queue_depth_max": 4, "tasks_offloaded": 10,
        }
        report = build_report(make_tracer(), engine=engine)
        assert validate_report(report) is report
        assert report["engine"] == engine
        assert json.loads(json.dumps(report))["engine"] == engine

    def test_engine_section_omitted_when_not_given(self):
        report = build_report(make_tracer())
        assert "engine" not in report
        validate_report(report)

    def test_v1_reports_still_validate(self):
        report = build_report(make_tracer())
        report["schema"] = "repro-run-report/1"
        assert validate_report(report) is report

    def test_engine_on_v1_rejected(self):
        report = build_report(make_tracer(), engine={"executor": "serial"})
        report["schema"] = "repro-run-report/1"
        with pytest.raises(ReportSchemaError, match=r"\$\.engine"):
            validate_report(report)

    def test_non_flat_engine_rejected(self):
        report = build_report(make_tracer(), engine={"nested": {"a": 1}})
        with pytest.raises(ReportSchemaError, match=r"\$\.engine"):
            validate_report(report)

    def test_from_engine_stats_as_dict(self):
        from repro.engine import EngineStats

        report = build_report(make_tracer(), engine=EngineStats().as_dict())
        validate_report(report)
        assert report["engine"]["executor"] == "serial"


class TestTargetSection:
    SECTION = {
        "name": "xc3000-clb",
        "k": 5,
        "cache_hits": 2,
        "luts": 23,
        "units": 20,
        "unit_name": "XC3000 CLB",
        "race_winners": {"ladder-peel": 4},
    }

    def test_target_section_round_trips(self):
        report = build_report(make_tracer(), target=self.SECTION)
        assert validate_report(report) is report
        assert report["target"] == self.SECTION
        assert json.loads(json.dumps(report))["target"] == self.SECTION

    def test_target_section_omitted_when_not_given(self):
        report = build_report(make_tracer())
        assert "target" not in report
        validate_report(report)

    def test_target_requires_schema_v4(self):
        report = build_report(make_tracer(), target=self.SECTION)
        report["schema"] = "repro-run-report/3"
        with pytest.raises(ReportSchemaError, match=r"\$\.target"):
            validate_report(report)

    def test_target_needs_a_name(self):
        report = build_report(make_tracer(), target={"k": 5})
        with pytest.raises(ReportSchemaError, match="'name'"):
            validate_report(report)
        report = build_report(make_tracer(), target={"name": ""})
        with pytest.raises(ReportSchemaError, match="'name'"):
            validate_report(report)

    def test_non_scalar_target_entry_rejected(self):
        section = dict(self.SECTION, extra={"nested": 1})
        report = build_report(make_tracer(), target=section)
        with pytest.raises(ReportSchemaError, match="scalar"):
            validate_report(report)

    @pytest.mark.parametrize(
        "winners", [["ladder-peel"], {"ladder-peel": -1},
                    {"ladder-peel": True}, {"ladder-peel": "four"}]
    )
    def test_malformed_race_winners_rejected(self, winners):
        report = build_report(
            make_tracer(), target={"name": "x", "race_winners": winners}
        )
        with pytest.raises(ReportSchemaError, match="race_winners"):
            validate_report(report)

    def test_failures_on_v2_rejected(self):
        report = build_report(make_tracer())
        report["failures"] = [{"kind": "retry"}]
        report["schema"] = "repro-run-report/2"
        with pytest.raises(ReportSchemaError, match=r"\$\.failures"):
            validate_report(report)

    def test_from_targets_report_section(self):
        from repro.targets import report_section

        report = build_report(
            make_tracer(),
            target=report_section(
                "lut-4", 4, race_winners={"flat-ladder": 1}
            ),
        )
        validate_report(report)
