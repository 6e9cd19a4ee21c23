"""The extraction service: kit loaded once, requests answered forever.

:class:`ExtractionService` is the daemon's brain, deliberately separate
from HTTP plumbing (:mod:`repro.serve.server`) so tests and the load
driver can call :meth:`handle` in-process.  At construction it opens a
characterization-library kit (:class:`~repro.library.store.
TableLibrary`), fingerprints its manifest (sha256 of the manifest
bytes -- the kit identity every cache key embeds), and wires up the
result cache, the request coalescer and the admission limiter.

Three JSON endpoints mirror the paper's flow:

* ``extract`` -- geometry + frequency -> per-segment RLC and a full
  cascaded netlist (optionally rendered as a SPICE deck and linted via
  :mod:`repro.circuit.lint`), naming the segments whose values came
  from extrapolating the loop L / R tables;
* ``lookup`` -- one raw table lookup with the PR-4 coverage
  classification (interior / edge / extrapolated, per axis);
* ``skew`` -- an H-tree configuration -> RC-vs-RLC skew summary.

Every request runs under a ``serve.<endpoint>`` tracer span, ticks
``serve_request`` (+ per-endpoint tag) and feeds the
``serve_latency_seconds`` histogram, so ``repro report`` renders server
runs exactly like builds.  Responses to the compute endpoints are
content-addressed in the :class:`~repro.serve.cache.ResultCache`; a
repeated identical request against the same kit performs **zero**
solver work -- not even a spline evaluation.

Geometry units on the wire are the CLI's human units (um, GHz, ps);
returned electrical values are SI.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.clocktree.buffers import ClockBuffer
from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.clocktree.extractor import ClocktreeRLCExtractor
from repro.clocktree.htree import HTree
from repro.constants import GHz, ps, um
from repro.core.frequency import significant_frequency
from repro.errors import ReproError, ServeError, TableError
from repro.library.store import TableLibrary, _sha256_text, open_library
from repro.quality.coverage import POINT_EXTRAPOLATED
from repro.serve.batching import RequestCoalescer
from repro.serve.cache import ResultCache, result_key
from repro.serve.limits import ConcurrencyLimiter
from repro.serve.requestlog import RequestRecord, RequestRing
from repro.telemetry import prometheus_text
from repro.telemetry.logs import correlation_ids, get_logger
from repro.telemetry.registry import (
    SERVE_LATENCY,
    SERVE_REQUEST,
    get_registry,
)
from repro.telemetry.slo import SLOMonitor
from repro.telemetry.spans import span
from repro.version import get_version

__all__ = ["ExtractionService", "DEFAULT_BUFFER"]

#: The strong-driver regime every experiment calibrates against
#: (15 ohm, 50 ps edges -> significant frequency 6.4 GHz).
DEFAULT_BUFFER = ClockBuffer(
    drive_resistance=15.0, input_capacitance=30e-15,
    supply=1.8, rise_time=50e-12,
)

_CONFIG_FIELDS_UM = (
    "signal_width", "ground_width", "spacing", "thickness", "height_below",
)


def _require_dict(payload: Any) -> dict:
    if payload is None:
        return {}
    if not isinstance(payload, dict):
        raise ServeError("request body must be a JSON object")
    return payload


def _number(payload: dict, key: str, default: Optional[float] = None,
            required: bool = False) -> Optional[float]:
    """A finite float field of *payload* (or *default*)."""
    value = payload.get(key, None)
    if value is None:
        if required:
            raise ServeError(f"missing required field {key!r}")
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServeError(f"field {key!r} must be a number")
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ServeError(f"field {key!r} must be finite")
    return value


def _integer(payload: dict, key: str, default: int,
             minimum: int = 1, maximum: int = 64) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(f"field {key!r} must be an integer")
    if not minimum <= value <= maximum:
        raise ServeError(
            f"field {key!r} must be in [{minimum}, {maximum}]"
        )
    return value


def _boolean(payload: dict, key: str, default: bool) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise ServeError(f"field {key!r} must be a boolean")
    return value


class _Endpoint:
    """One registered endpoint: handler plus cacheability."""

    __slots__ = ("fn", "cacheable")

    def __init__(self, fn: Callable[[dict], dict], cacheable: bool):
        self.fn = fn
        self.cacheable = cacheable


class ExtractionService:
    """A loaded kit plus the request machinery around it.

    Parameters
    ----------
    library:
        Characterization-library root (or an open
        :class:`~repro.library.store.TableLibrary`).  Loaded once; the
        manifest sha becomes part of every result-cache key.
    config:
        Default wire configuration for requests that don't carry one
        (the CLI's standard CPW geometry when omitted).
    frequency:
        Default extraction frequency [Hz] (defaults to the significant
        frequency of the default buffer's 50 ps edge: 6.4 GHz).
    cache_size / compute_width / max_inflight:
        Result-cache bound, coalescer gate width and admission ceiling.
    disk_memo:
        Optional path to a persistent Lp memo shard
        (:class:`~repro.peec.diskmemo.DiskMemoShard`): warmed into the
        process-wide memo at startup so the daemon's first extraction
        after a restart reuses every Hoer-Love value previous builds or
        daemon runs computed.
    """

    def __init__(
        self,
        library: Union[str, TableLibrary],
        config: Optional[CoplanarWaveguideConfig] = None,
        frequency: Optional[float] = None,
        cache_size: int = ResultCache.DEFAULT_CAPACITY,
        compute_width: int = 1,
        max_inflight: int = 8,
        disk_memo: Optional[str] = None,
        slo: Optional[SLOMonitor] = None,
    ):
        self.library = open_library(library, create=False)
        self.disk_memo = disk_memo
        self.disk_memo_entries = 0
        if disk_memo is not None:
            from repro.peec.diskmemo import warm_lp_memo

            self.disk_memo_entries = warm_lp_memo(disk_memo)
        self.kit_sha = _sha256_text(self.library.manifest_path.read_text())
        self.config = config if config is not None else (
            CoplanarWaveguideConfig(
                signal_width=um(10), ground_width=um(5), spacing=um(1),
                thickness=um(2), height_below=um(2),
            )
        )
        if frequency is not None:
            self.frequency = frequency
        else:
            # Default to the kit's own characterized frequency so the
            # extractor's frequency-matched table queries hit; only an
            # empty kit falls back to the default buffer's significant
            # frequency.
            self.frequency = self._kit_frequency() or (
                significant_frequency(DEFAULT_BUFFER.rise_time)
            )
        self.cache = ResultCache(cache_size)
        self.coalescer = RequestCoalescer(compute_width)
        self.limiter = ConcurrencyLimiter(max_inflight)
        #: Rolling SLO monitor (injectable for fault-injection tests).
        self.slo = slo if slo is not None else SLOMonitor()
        #: Debug ring of recent + slowest requests (``/debug/requests``).
        self.requests = RequestRing()
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        self._extractors: Dict[Tuple[object, float], ClocktreeRLCExtractor] = {}
        self._extractors_lock = threading.Lock()
        self._endpoints: Dict[str, _Endpoint] = {}
        self.register("extract", self._extract)
        self.register("lookup", self._lookup)
        self.register("skew", self._skew)
        get_logger("repro.serve").info(
            "service_ready",
            kit_sha=self.kit_sha[:12],
            tables=len(self.library),
            frequency_ghz=round(self.frequency / 1e9, 3),
            max_inflight=max_inflight,
            disk_memo_entries=self.disk_memo_entries,
        )

    def _kit_frequency(self) -> Optional[float]:
        """The characterization frequency of the kit's loop tables."""
        for entry in self.library.entries():
            if entry.quantity == "loop_inductance" and entry.frequency:
                return float(entry.frequency)
        return None

    # ------------------------------------------------------------------
    # registration & dispatch
    # ------------------------------------------------------------------
    def register(self, name: str, fn: Callable[[dict], dict],
                 cacheable: bool = True) -> None:
        """Register (or replace) a POST endpoint handler.

        The hook the bus/crosstalk endpoints of the related RC/RLC work
        will use; tests also register synthetic endpoints through it.
        """
        self._endpoints[name] = _Endpoint(fn, cacheable)

    @property
    def endpoints(self) -> List[str]:
        """Registered endpoint names, sorted."""
        return sorted(self._endpoints)

    def handle(self, endpoint: str, payload: Optional[dict]) -> dict:
        """Serve one request; the single entry point for all transports.

        Returns the response envelope ``{"endpoint", "cache", "result",
        "request_id"?}``.  Raises :class:`ServeError` (with an HTTP
        status) on bad input.  Every finished request -- success or
        failure -- feeds the SLO monitor once and leaves a record (with
        its span tree) in the ``/debug/requests`` ring.
        """
        entry = self._endpoints.get(endpoint)
        if entry is None:
            raise ServeError(f"unknown endpoint {endpoint!r}", status=404)
        payload = _require_dict(payload)
        registry = get_registry()
        registry.inc(SERVE_REQUEST)
        registry.inc(f"{SERVE_REQUEST}.{endpoint}")
        t0 = time.perf_counter()
        status = 200
        hit: Optional[bool] = None
        error: Optional[str] = None
        sp = None
        try:
            with span(f"serve.{endpoint}") as sp:
                if not entry.cacheable:
                    return self._envelope(endpoint, entry.fn(payload))
                try:
                    key = result_key(self.kit_sha, endpoint, payload)
                except TableError as exc:
                    raise ServeError(f"uncacheable request: {exc}") from None
                cached = self.cache.get(key)
                if cached is not None:
                    hit = True
                    return self._envelope(endpoint, cached, hit=True, key=key)

                def compute() -> dict:
                    result = entry.fn(payload)
                    self.cache.put(key, result)
                    return result

                result = self.coalescer.run(key, compute)
                hit = False
                return self._envelope(endpoint, result, hit=False, key=key)
        except ServeError as exc:
            status, error = exc.status, str(exc)
            raise
        except ReproError as exc:
            status, error = 400, str(exc)
            raise
        except Exception as exc:
            status, error = 500, f"{type(exc).__name__}: {exc}"
            raise
        finally:
            latency = time.perf_counter() - t0
            registry.observe(SERVE_LATENCY, latency)
            # One SLO observation per handled request: 5xx counts
            # against availability, 4xx is the caller's fault and only
            # counts against the latency SLI via its duration.
            self.slo.observe(endpoint, latency, ok=status < 500)
            self.requests.add(RequestRecord(
                request_id=correlation_ids().get("request_id", ""),
                endpoint=endpoint,
                status=status,
                latency=latency,
                cache_hit=hit,
                error=error,
                spans=sp.to_dict() if sp is not None else None,
            ))

    def observe_rejection(self, endpoint: str) -> None:
        """Count an admission rejection (429/503) against the SLO.

        Rejected requests never reach :meth:`handle`, so the transport
        feeds them here -- each request hits the monitor exactly once.
        """
        self.slo.observe(endpoint, 0.0, ok=False)

    @staticmethod
    def _envelope(endpoint: str, result: dict, hit: Optional[bool] = None,
                  key: Optional[str] = None) -> dict:
        envelope: Dict[str, Any] = {"endpoint": endpoint, "result": result}
        if key is not None:
            envelope["cache"] = {"hit": bool(hit), "key": key}
        request_id = correlation_ids().get("request_id")
        if request_id:
            envelope["request_id"] = request_id
        return envelope

    # ------------------------------------------------------------------
    # request parsing
    # ------------------------------------------------------------------
    def _config_from(self, payload: dict) -> CoplanarWaveguideConfig:
        raw = payload.get("config")
        if raw is None:
            return self.config
        raw = _require_dict(raw)
        unknown = set(raw) - {f + "_um" for f in _CONFIG_FIELDS_UM}
        if unknown:
            raise ServeError(
                f"unknown config field(s): {', '.join(sorted(unknown))}"
            )
        kwargs = {}
        for name in _CONFIG_FIELDS_UM:
            value = _number(raw, name + "_um")
            kwargs[name] = um(value) if value is not None else getattr(
                self.config, name
            )
        try:
            return CoplanarWaveguideConfig(**kwargs)
        except ReproError as exc:
            raise ServeError(f"invalid config: {exc}") from None

    def _buffer_from(self, payload: dict) -> ClockBuffer:
        raw = _require_dict(payload.get("buffer"))
        try:
            return ClockBuffer(
                drive_resistance=_number(
                    raw, "drive_resistance_ohm",
                    DEFAULT_BUFFER.drive_resistance),
                input_capacitance=_number(
                    raw, "input_capacitance_ff",
                    DEFAULT_BUFFER.input_capacitance * 1e15) * 1e-15,
                supply=_number(raw, "supply_v", DEFAULT_BUFFER.supply),
                rise_time=ps(_number(
                    raw, "rise_time_ps", DEFAULT_BUFFER.rise_time * 1e12)),
            )
        except ReproError as exc:
            raise ServeError(f"invalid buffer: {exc}") from None

    def _frequency_from(self, payload: dict) -> float:
        value = _number(payload, "frequency_ghz")
        if value is None:
            return self.frequency
        if value <= 0.0:
            raise ServeError("frequency_ghz must be positive")
        return GHz(value)

    def _extractor_for(
        self, config: CoplanarWaveguideConfig, frequency: float
    ) -> ClocktreeRLCExtractor:
        """A (memoized) library-backed extractor for one family."""
        key = (config, frequency)
        with self._extractors_lock:
            extractor = self._extractors.get(key)
        if extractor is None:
            extractor = ClocktreeRLCExtractor(
                config, frequency=frequency, library=self.library,
            )
            with self._extractors_lock:
                extractor = self._extractors.setdefault(key, extractor)
        return extractor

    # ------------------------------------------------------------------
    # endpoint: extract
    # ------------------------------------------------------------------
    @staticmethod
    def _extrapolated_segments(
        extractor: ClocktreeRLCExtractor, segments: List[Any]
    ) -> List[str]:
        """Sorted names of the segments whose (width, length) falls
        outside the inductance or resistance table's axes."""
        tables = [t for t in (extractor.inductance_table,
                              extractor.resistance_table) if t is not None]
        width = extractor.config.signal_width
        outside = {
            length for length in {s.length for s in segments}
            if any(t.classify(width=width, length=length)
                   == POINT_EXTRAPOLATED for t in tables)
        }
        return sorted(s.name for s in segments if s.length in outside)

    def _extract(self, payload: dict) -> dict:
        config = self._config_from(payload)
        buffer = self._buffer_from(payload)
        frequency = self._frequency_from(payload)
        root_length = _number(payload, "root_length_um", required=True)
        if root_length <= 0.0:
            raise ServeError("root_length_um must be positive")
        levels = _integer(payload, "levels", 1, minimum=1, maximum=8)
        sections = _integer(payload, "sections", 4, minimum=1, maximum=64)
        include_l = _boolean(payload, "include_inductance", True)
        lint = _boolean(payload, "lint", True)
        fmt = payload.get("format", "summary")
        if fmt not in ("summary", "spice"):
            raise ServeError('format must be "summary" or "spice"')
        sink_cap_ff = _number(payload, "sink_capacitance_ff", 50.0)
        if sink_cap_ff < 0.0:
            raise ServeError("sink_capacitance_ff must be >= 0")

        try:
            htree = HTree.generate(
                levels=levels, root_length=um(root_length), config=config,
                buffer=buffer, sink_capacitance=sink_cap_ff * 1e-15,
            )
            extractor = self._extractor_for(config, frequency)
            segments = [
                (segment, extractor.segment_rlc_for(segment))
                for segment in htree.segments
            ]
            netlist = extractor.build_netlist(
                htree, include_inductance=include_l, sections=sections,
                lint=lint,
            )
        except ServeError:
            raise
        except ReproError as exc:
            raise ServeError(f"extraction failed: {exc}") from None

        result: Dict[str, Any] = {
            "frequency_ghz": frequency / 1e9,
            "levels": levels,
            "num_segments": len(segments),
            "num_sinks": len(netlist.sink_nodes),
            "tables": {
                "inductance": extractor.inductance_table is not None,
                "resistance": extractor.resistance_table is not None,
                "capacitance": extractor.capacitance_table is not None,
            },
            "extrapolated_segments": self._extrapolated_segments(
                extractor, [segment for segment, _ in segments]),
            "segments": [
                {
                    "name": segment.name,
                    "length_um": segment.length * 1e6,
                    "resistance_ohm": rlc.resistance,
                    "inductance_h": rlc.inductance,
                    "capacitance_f": rlc.capacitance,
                }
                for segment, rlc in segments
            ],
            "netlist": {
                "elements": len(netlist.circuit.elements),
                "includes_inductance": netlist.includes_inductance,
                "sink_nodes": dict(sorted(netlist.sink_nodes.items())),
            },
        }
        if lint and netlist.health is not None:
            result["health"] = netlist.health.to_dict()
        if fmt == "spice":
            from repro.circuit.spice_export import to_spice

            result["spice"] = to_spice(
                netlist.circuit,
                title=f"repro serve extract ({'rlc' if include_l else 'rc'})",
                analyses=("tran 0.5p 3n",),
                probes=sorted(netlist.sink_nodes.values()),
            )
        return result

    # ------------------------------------------------------------------
    # endpoint: lookup
    # ------------------------------------------------------------------
    def _lookup(self, payload: dict) -> dict:
        quantity = payload.get("quantity", "loop_inductance")
        if not isinstance(quantity, str):
            raise ServeError("quantity must be a string")
        criteria: Dict[str, Any] = {"quantity": quantity}
        layer = payload.get("layer")
        if layer is not None:
            if not isinstance(layer, str):
                raise ServeError("layer must be a string")
            criteria["layer"] = layer
        frequency = _number(payload, "frequency_ghz")
        if frequency is not None:
            criteria["frequency"] = GHz(frequency)
        table = self.library.get_one(**criteria)
        if table is None:
            raise ServeError(
                f"kit has no table matching {criteria}", status=404
            )
        point_raw = _require_dict(payload.get("point"))
        if not point_raw:
            raise ServeError('missing required field "point"')
        coords: Dict[str, float] = {}
        for axis in table.axis_names:
            value = _number(point_raw, f"{axis}_um")
            if value is None:
                raise ServeError(
                    f'point is missing axis "{axis}_um" '
                    f"(table axes: {', '.join(table.axis_names)})"
                )
            coords[axis] = um(value)
        extras = set(point_raw) - {f"{a}_um" for a in table.axis_names}
        if extras:
            raise ServeError(
                f"point has unknown axis field(s): {', '.join(sorted(extras))}"
            )

        from repro.quality.coverage import classify_point
        from repro.tables.lookup import timed_lookup

        ordered = [coords[a] for a in table.axis_names]
        overall, per_axis = classify_point(table.axes, ordered)
        value = timed_lookup(table, **coords)
        return {
            "table": table.name,
            "quantity": table.quantity,
            "value": value,
            "coverage": {
                "overall": overall,
                "in_range": table.in_range(**coords),
                "axes": {
                    name: kind
                    for name, kind in zip(table.axis_names, per_axis)
                },
            },
            "domain": {
                name: {
                    "min_um": float(axis[0]) * 1e6,
                    "max_um": float(axis[-1]) * 1e6,
                    "points": int(len(axis)),
                }
                for name, axis in zip(table.axis_names, table.axes)
            },
        }

    # ------------------------------------------------------------------
    # endpoint: skew
    # ------------------------------------------------------------------
    def _skew(self, payload: dict) -> dict:
        from repro.experiments.htree_skew import run_htree_skew

        config = self._config_from(payload)
        buffer = self._buffer_from(payload)
        levels = _integer(payload, "levels", 2, minimum=1, maximum=6)
        root_length = _number(payload, "root_length_um", 4000.0)
        if root_length <= 0.0:
            raise ServeError("root_length_um must be positive")
        asymmetry = _number(payload, "asymmetry", 1.5)
        if asymmetry <= 0.0:
            raise ServeError("asymmetry must be positive")
        t_stop = ps(_number(payload, "t_stop_ps", 3000.0))
        dt = ps(_number(payload, "dt_ps", 0.5))
        if dt <= 0.0 or t_stop <= dt:
            raise ServeError("need t_stop_ps > dt_ps > 0")
        stretched = "s_" + "L" * levels
        try:
            htree = HTree.generate(
                levels=levels, root_length=um(root_length), config=config,
                buffer=buffer, sink_capacitance=50e-15,
                branch_scale={stretched: asymmetry},
            )
            extractor = self._extractor_for(
                config, self._frequency_from(payload)
            )
            outcome = run_htree_skew(
                htree=htree, extractor=extractor, t_stop=t_stop, dt=dt,
            )
        except ServeError:
            raise
        except ReproError as exc:
            raise ServeError(f"skew analysis failed: {exc}") from None
        comparison = outcome.comparison
        return {
            "levels": levels,
            "num_sinks": htree.num_sinks,
            "asymmetry": asymmetry,
            "rc_skew_ps": outcome.rc_skew * 1e12,
            "rlc_skew_ps": outcome.rlc_skew * 1e12,
            "skew_discrepancy_percent": outcome.skew_discrepancy_percent,
            "delay_discrepancy_percent": outcome.delay_discrepancy_percent,
            "delays_ps": {
                "rc": {s: d * 1e12
                       for s, d in sorted(comparison.rc.delays.items())},
                "rlc": {s: d * 1e12
                        for s, d in sorted(comparison.rlc.delays.items())},
            },
        }

    # ------------------------------------------------------------------
    # health & metrics
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The ``/healthz`` payload: identity, uptime, load, cache."""
        return {
            "status": "draining" if self.limiter.draining else "ok",
            "version": get_version(),
            "kit": {
                "root": str(self.library.root),
                "manifest_sha": self.kit_sha,
                "tables": len(self.library),
            },
            "frequency_ghz": self.frequency / 1e9,
            "uptime_seconds": time.monotonic() - self._started_mono,
            "started_at": self.started_at,
            "inflight": self.limiter.inflight,
            "max_inflight": self.limiter.max_inflight,
            "rejected": self.limiter.rejected,
            "cache": self.cache.stats(),
            "coalesced": self.coalescer.coalesced,
            "disk_memo": {
                "path": self.disk_memo,
                "warmed_entries": self.disk_memo_entries,
            },
            "endpoints": self.endpoints,
            "slo": self.slo.summary(),
        }

    def metrics_text(self) -> str:
        """The ``/metrics`` payload: the live registry as Prometheus text."""
        # Refresh the slo_* gauges first so scrapes see current burn rates.
        self.slo.export_gauges()
        return prometheus_text(get_registry().snapshot())

    # ------------------------------------------------------------------
    # statusz
    # ------------------------------------------------------------------
    def statusz_data(self) -> dict:
        """Everything the ``/statusz`` page renders, as one dict."""
        from repro.telemetry.logs import recent_logs

        return {
            "health": self.health(),
            "requests": self.requests.to_dict(include_spans=False),
            "recent_errors": recent_logs(limit=10, min_level="warning"),
        }

    def statusz_html(self) -> str:
        """A human-readable single-page status report (``GET /statusz``)."""
        import html as _html

        data = self.statusz_data()
        health = data["health"]
        slo = health.get("slo", {})
        status = health.get("status", "?")
        slo_status = slo.get("status", "ok")
        badge = {"ok": "#2e7d32", "warn": "#f9a825", "page": "#c62828"}.get(
            slo_status, "#555"
        )

        def esc(value: object) -> str:
            return _html.escape(str(value))

        lines: List[str] = [
            "<!doctype html><html><head><meta charset='utf-8'>",
            "<title>repro serve statusz</title>",
            "<style>body{font-family:monospace;margin:2em;}"
            "table{border-collapse:collapse;margin:0.5em 0;}"
            "td,th{border:1px solid #ccc;padding:2px 8px;text-align:left;}"
            "h2{margin-top:1.2em;}</style></head><body>",
            f"<h1>repro serve &mdash; {esc(status)} "
            f"<span style='color:{badge}'>[slo: {esc(slo_status)}]</span></h1>",
            "<h2>identity</h2><table>",
            f"<tr><th>version</th><td>{esc(health.get('version'))}</td></tr>",
            f"<tr><th>kit sha</th>"
            f"<td>{esc(health['kit']['manifest_sha'][:16])}</td></tr>",
            f"<tr><th>tables</th><td>{esc(health['kit']['tables'])}</td></tr>",
            f"<tr><th>uptime</th>"
            f"<td>{health['uptime_seconds']:.1f} s</td></tr>",
            f"<tr><th>inflight</th><td>{esc(health['inflight'])} / "
            f"{esc(health['max_inflight'])}</td></tr>",
            f"<tr><th>rejected</th><td>{esc(health['rejected'])}</td></tr>",
            "</table>",
        ]

        cache = health.get("cache", {})
        lines.append("<h2>cache</h2><table>")
        for key in sorted(cache):
            lines.append(
                f"<tr><th>{esc(key)}</th><td>{esc(cache[key])}</td></tr>"
            )
        lines.append("</table>")

        lines.append("<h2>slo</h2><table>"
                     "<tr><th>endpoint</th><th>sli</th><th>status</th>"
                     "<th>burn</th><th>windows (bad/total)</th></tr>")
        for endpoint in sorted(slo.get("endpoints", {})):
            slis = slo["endpoints"][endpoint].get("slis", {})
            for sli in sorted(slis):
                info = slis[sli]
                windows = " ".join(
                    f"{w['bad']}/{w['total']}@{w['window_seconds']}s"
                    for w in info.get("windows", [])
                )
                lines.append(
                    f"<tr><td>{esc(endpoint)}</td><td>{esc(sli)}</td>"
                    f"<td>{esc(info.get('status'))}</td>"
                    f"<td>{esc(info.get('burn_rate'))}</td>"
                    f"<td>{esc(windows)}</td></tr>"
                )
        lines.append("</table>")

        lines.append("<h2>slowest requests</h2><table>"
                     "<tr><th>request id</th><th>endpoint</th>"
                     "<th>status</th><th>latency</th><th>cache</th></tr>")
        for record in data["requests"]["slowest"]:
            lines.append(
                f"<tr><td>{esc(record.get('request_id'))}</td>"
                f"<td>{esc(record.get('endpoint'))}</td>"
                f"<td>{esc(record.get('status'))}</td>"
                f"<td>{record.get('latency_ms')} ms</td>"
                f"<td>{esc(record.get('cache_hit', '-'))}</td></tr>"
            )
        lines.append("</table>")

        lines.append("<h2>recent warnings/errors</h2><pre>")
        for record in data["recent_errors"]:
            lines.append(esc(_json_line(record)))
        lines.append("</pre></body></html>")
        return "\n".join(lines)

    def slo_summary(self) -> dict:
        """The SLO summary (for reports and shutdown logging)."""
        return self.slo.summary()


def _json_line(record: dict) -> str:
    import json

    return json.dumps(record, sort_keys=True, default=str)
