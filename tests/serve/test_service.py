"""ExtractionService: endpoint handlers, envelopes, cache economics."""

import warnings

import pytest

from repro.constants import GHz
from repro.errors import ServeError
from repro.serve import ExtractionService
from repro.serve.cache import result_key
from repro.telemetry import metrics_meter
from repro.telemetry.registry import TABLE_LOOKUP

KIT_FREQUENCY = GHz(3.2)  # matches the conftest kit build


class TestConstruction:
    def test_loads_kit_once_and_fingerprints_it(self, service, kit_root):
        assert len(service.kit_sha) == 64
        assert service.library.root == kit_root

    def test_default_frequency_is_the_kits(self, service):
        assert service.frequency == pytest.approx(KIT_FREQUENCY)

    def test_missing_kit_raises(self, tmp_path):
        from repro.errors import TableError

        with pytest.raises(TableError):
            ExtractionService(tmp_path / "nowhere")

    def test_endpoints_registered(self, service):
        assert service.endpoints == ["extract", "lookup", "skew"]


class TestDispatch:
    def test_unknown_endpoint_404(self, service):
        with pytest.raises(ServeError) as excinfo:
            service.handle("nope", {})
        assert excinfo.value.status == 404

    def test_non_object_payload_rejected(self, service):
        with pytest.raises(ServeError):
            service.handle("extract", [1, 2, 3])

    def test_envelope_shape(self, service):
        envelope = service.handle("extract", {"root_length_um": 1500.0})
        assert envelope["endpoint"] == "extract"
        assert envelope["cache"]["hit"] is False
        assert envelope["cache"]["key"] == result_key(
            service.kit_sha, "extract", {"root_length_um": 1500.0})
        assert envelope["result"]["num_segments"] == 2

    def test_repeat_request_hits_cache(self, service):
        request = {"root_length_um": 1500.0}
        first = service.handle("extract", request)
        second = service.handle("extract", request)
        assert not first["cache"]["hit"]
        assert second["cache"]["hit"]
        assert second["result"] == first["result"]

    def test_key_order_equivalent_requests_share_entry(self, service):
        first = service.handle(
            "extract", {"root_length_um": 1500.0, "levels": 2})
        second = service.handle(
            "extract", {"levels": 2, "root_length_um": 1500.0})
        assert second["cache"]["hit"]
        assert second["cache"]["key"] == first["cache"]["key"]

    def test_cached_request_is_solver_free(self, service):
        request = {"root_length_um": 3000.0, "levels": 2}
        service.handle("extract", request)
        with metrics_meter() as meter:
            envelope = service.handle("extract", request)
        assert envelope["cache"]["hit"]
        assert meter.total == 0, meter.counts

    def test_warm_kit_extract_is_solver_free_even_cold_cache(self, service):
        # the acceptance economics: tables answer everything, the cache
        # only removes the spline+netlist work
        with metrics_meter() as meter:
            envelope = service.handle(
                "extract", {"root_length_um": 2000.0, "levels": 3})
        assert not envelope["cache"]["hit"]
        assert meter.total == 0, meter.counts

    def test_registered_custom_endpoint_is_served(self, service):
        service.register("echo", lambda payload: {"got": payload})
        envelope = service.handle("echo", {"x": 1})
        assert envelope["result"] == {"got": {"x": 1}}
        assert service.handle("echo", {"x": 1})["cache"]["hit"]

    def test_uncacheable_endpoint_has_no_cache_block(self, service):
        service.register("now", lambda payload: {"t": 0}, cacheable=False)
        envelope = service.handle("now", {})
        assert "cache" not in envelope


class TestExtract:
    def test_single_level_summary(self, service):
        # levels=1 is the minimal net: the H's two root arms
        result = service.handle(
            "extract", {"root_length_um": 6000.0})["result"]
        assert result["num_segments"] == 2
        assert result["num_sinks"] == 2
        for segment in result["segments"]:
            assert segment["length_um"] == pytest.approx(6000.0)
            assert segment["resistance_ohm"] > 0.0
            assert segment["inductance_h"] > 0.0
            assert segment["capacitance_f"] > 0.0
        assert result["tables"]["inductance"]
        assert result["tables"]["resistance"]

    def test_tree_has_structure(self, service):
        result = service.handle(
            "extract", {"root_length_um": 3000.0, "levels": 2})["result"]
        assert result["num_segments"] == 6
        assert result["num_sinks"] == 4
        assert len(result["netlist"]["sink_nodes"]) == 4

    def test_out_of_grid_segments_are_named(self, service):
        # the kit's lengths stop at 6000 um; 1e5 um arms are 16x past it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = service.handle(
                "extract", {"root_length_um": 1e5, "levels": 2})["result"]
        assert result["extrapolated_segments"] == [
            "s_L", "s_LL", "s_LR", "s_R", "s_RL", "s_RR"]

    def test_in_grid_tree_has_no_extrapolated_segments(self, service):
        result = service.handle(
            "extract", {"root_length_um": 3000.0, "levels": 2})["result"]
        assert result["extrapolated_segments"] == []

    def test_lint_report_attached_and_clean(self, service):
        result = service.handle(
            "extract", {"root_length_um": 1500.0, "levels": 2})["result"]
        assert result["health"]["clean"] is True

    def test_lint_can_be_skipped(self, service):
        result = service.handle(
            "extract", {"root_length_um": 1500.0, "lint": False})["result"]
        assert "health" not in result

    def test_spice_format(self, service):
        result = service.handle(
            "extract",
            {"root_length_um": 1500.0, "format": "spice"})["result"]
        assert ".end" in result["spice"].lower()
        assert ".tran" in result["spice"].lower()

    def test_rc_only(self, service):
        result = service.handle(
            "extract",
            {"root_length_um": 1500.0, "include_inductance": False},
        )["result"]
        assert result["netlist"]["includes_inductance"] is False

    def test_missing_root_length_rejected(self, service):
        with pytest.raises(ServeError, match="root_length_um"):
            service.handle("extract", {})

    def test_non_numeric_field_rejected(self, service):
        with pytest.raises(ServeError, match="must be a number"):
            service.handle("extract", {"root_length_um": "long"})

    def test_non_finite_field_rejected(self, service):
        with pytest.raises(ServeError, match="finite"):
            service.handle("extract", {"root_length_um": float("nan")})

    def test_overflowing_extraction_rejected(self, service):
        # Finite input whose spline extrapolation overflows to NaN R/L:
        # a 400, never a 200 body that is not valid JSON.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ServeError, match="extraction failed") as exc:
                service.handle(
                    "extract", {"root_length_um": 1e300, "levels": 2})
        assert exc.value.status == 400
        assert "finite" in str(exc.value)

    def test_exact_lookup_count(self, service):
        # 14 segments of 3 distinct lengths (4000, 2000, 1000 um); the
        # kit has loop L and R tables, C is closed-form.  The segments
        # report looks up every segment, the netlist each distinct one.
        request = {"root_length_um": 4000.0, "levels": 3}
        with metrics_meter() as meter:
            result = service.handle("extract", request)["result"]
        assert result["num_segments"] == len(result["segments"]) == 14
        assert len({s["length_um"] for s in result["segments"]}) == 3
        assert not result["tables"]["capacitance"]
        assert meter.delta.counter(TABLE_LOOKUP) == 2 * 14 + 2 * 3

    def test_bad_format_rejected(self, service):
        with pytest.raises(ServeError, match="format"):
            service.handle(
                "extract", {"root_length_um": 100.0, "format": "vhdl"})

    def test_unknown_config_field_rejected(self, service):
        with pytest.raises(ServeError, match="unknown config field"):
            service.handle("extract", {
                "root_length_um": 100.0, "config": {"widthh_um": 3.0}})

    def test_invalid_geometry_rejected(self, service):
        with pytest.raises(ServeError, match="invalid config"):
            service.handle("extract", {
                "root_length_um": 100.0,
                "config": {"signal_width_um": -4.0},
            })

    def test_levels_bounds_enforced(self, service):
        with pytest.raises(ServeError, match="levels"):
            service.handle("extract", {"root_length_um": 100.0, "levels": 0})

    def test_custom_frequency_respected(self, service):
        result = service.handle("extract", {
            "root_length_um": 1500.0, "frequency_ghz": 3.2})["result"]
        assert result["frequency_ghz"] == pytest.approx(3.2)


class TestLookup:
    def test_interior_lookup(self, service):
        result = service.handle("lookup", {
            "quantity": "loop_inductance",
            "point": {"width_um": 10.0, "length_um": 2000.0},
        })["result"]
        assert result["value"] > 0.0
        assert result["quantity"] == "loop_inductance"
        assert result["coverage"]["overall"] in ("interior", "edge")
        assert result["coverage"]["in_range"] is True
        assert result["domain"]["width"]["min_um"] == pytest.approx(6.0)
        assert result["domain"]["length"]["max_um"] == pytest.approx(6000.0)

    def test_extrapolated_lookup_is_flagged(self, service):
        from repro.errors import ExtrapolationWarning

        with pytest.warns(ExtrapolationWarning):
            result = service.handle("lookup", {
                "quantity": "loop_inductance",
                "point": {"width_um": 10.0, "length_um": 9000.0},
            })["result"]
        assert result["coverage"]["overall"] == "extrapolated"
        assert result["coverage"]["in_range"] is False
        assert result["coverage"]["axes"]["length"] == "high"

    def test_resistance_table_reachable(self, service):
        result = service.handle("lookup", {
            "quantity": "loop_resistance",
            "frequency_ghz": KIT_FREQUENCY / 1e9,
            "point": {"width_um": 10.0, "length_um": 2000.0},
        })["result"]
        assert result["value"] > 0.0

    def test_missing_table_404(self, service):
        with pytest.raises(ServeError) as excinfo:
            service.handle("lookup", {
                "quantity": "loop_inductance",
                "frequency_ghz": 99.0,
                "point": {"width_um": 10.0, "length_um": 2000.0},
            })
        assert excinfo.value.status == 404

    def test_missing_axis_rejected(self, service):
        with pytest.raises(ServeError, match="length_um"):
            service.handle("lookup", {
                "quantity": "loop_inductance",
                "point": {"width_um": 10.0},
            })

    def test_unknown_axis_rejected(self, service):
        with pytest.raises(ServeError, match="unknown axis"):
            service.handle("lookup", {
                "quantity": "loop_inductance",
                "point": {"width_um": 10.0, "length_um": 2000.0,
                          "depth_um": 1.0},
            })

    def test_missing_point_rejected(self, service):
        with pytest.raises(ServeError, match="point"):
            service.handle("lookup", {"quantity": "loop_inductance"})


class TestSkew:
    def test_skew_summary(self, service):
        result = service.handle("skew", {
            "levels": 2, "root_length_um": 2000.0,
            "t_stop_ps": 1500.0, "dt_ps": 1.0,
        })["result"]
        assert result["num_sinks"] == 4
        assert result["rc_skew_ps"] > 0.0
        assert result["rlc_skew_ps"] > 0.0
        assert len(result["delays_ps"]["rc"]) == 4
        assert len(result["delays_ps"]["rlc"]) == 4

    def test_bad_timestep_rejected(self, service):
        with pytest.raises(ServeError, match="t_stop_ps"):
            service.handle("skew", {"t_stop_ps": 1.0, "dt_ps": 2.0})


class TestHealthAndMetrics:
    def test_health_payload(self, service):
        service.handle("extract", {"root_length_um": 1500.0})
        service.handle("extract", {"root_length_um": 1500.0})
        health = service.health()
        assert health["status"] == "ok"
        assert health["kit"]["manifest_sha"] == service.kit_sha
        assert health["kit"]["tables"] == 2
        assert health["frequency_ghz"] == pytest.approx(
            KIT_FREQUENCY / 1e9)
        assert health["uptime_seconds"] >= 0.0
        assert health["inflight"] == 0
        assert health["cache"]["hits"] == 1
        assert health["endpoints"] == ["extract", "lookup", "skew"]
        from repro.version import get_version

        assert health["version"] == get_version()

    def test_health_reports_draining(self, service):
        service.limiter.start_draining()
        assert service.health()["status"] == "draining"

    def test_metrics_text_exposes_serve_families(self, service):
        service.handle("extract", {"root_length_um": 1500.0})
        text = service.metrics_text()
        assert "# TYPE repro_serve_request counter" in text
        assert "# HELP repro_serve_request " in text
        assert "repro_serve_request_extract" in text
        assert "repro_serve_latency_seconds_count" in text

    def test_serve_counters_are_observational(self, service):
        # serve_* counters must never count as solver work
        with metrics_meter() as meter:
            service.handle("extract", {"root_length_um": 1500.0})
        assert meter.total == 0, meter.counts
