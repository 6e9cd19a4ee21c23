"""The four workloads of the paper-flow benchmark.

Each workload turns a seed into its inputs, knows how to set itself up
(timed, repeated by the harness), how to run one op, how to check what
the ops produced, and how to replay its first ops for the overhead
measurements of a traced run.  The harness in ``run.py`` owns the
clock; nothing here measures time except set-up.

* ``kit-cold``    -- serial cold characterization of the standard CPW
  family into an empty library (PEEC loop L/R + 2-D total C).
* ``skew-paper``  -- RC-vs-RLC skew of small asymmetric H-trees from a
  warm kit (the ``run_htree_skew`` flow; dense MNA decks).
* ``skew-chip``   -- the same flow on level-6 trees whose RLC deck goes
  sparse while the RC deck stays dense.
* ``serve-mixed`` -- closed loop of 2 connections against a ``repro
  serve`` daemon: repeated hot /extract bodies, fresh /extract bodies
  and fresh /lookup requests.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.clocktree.configs import CoplanarWaveguideConfig
from repro.clocktree.extractor import ClocktreeRLCExtractor
from repro.constants import ps, um
from repro.core.frequency import significant_frequency
from repro.experiments.htree_skew import default_htree, run_htree_skew
from repro.library import LoopTableJob, TableLibrary, build_library
from repro.library.jobs import TotalCapacitanceJob
from repro.peec.kernel import lp_memo_cache
from repro.telemetry.registry import TABLE_LOOKUP_EXTRAPOLATED

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: The standard CPW family every experiment uses (10 um signal, 5 um
#: grounds, 1 um spacing) and the paper's 15 ohm / 50 ps buffer edge.
CONFIG = CoplanarWaveguideConfig(
    signal_width=um(10), ground_width=um(5), spacing=um(1),
    thickness=um(2), height_below=um(2),
)
FREQUENCY = significant_frequency(ps(50))

#: What a fresh interpreter imports before it can run any workload.
IMPORTS = "import repro.library, repro.experiments.htree_skew, repro.serve"

Check = Tuple[str, bool, str]


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_import() -> float:
    """Wall seconds for a fresh interpreter to import the layers."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], env=child_env(),
                   check=True, timeout=120)
    return time.perf_counter() - t0


def _jitter(rng: random.Random, values, spread: float = 0.02):
    """Seeded +-spread relative jitter that keeps the axis sorted."""
    return tuple(um(v * (1.0 + rng.uniform(-spread, spread)))
                 for v in values)


def kit_jobs(rng: random.Random, tiny: bool) -> list:
    """Loop L/R over (width, length) and total C over (width, spacing).

    The length axis spans every segment the skew and serve workloads
    extract, so no lookup extrapolates.  The kit is kept small (about
    0.4 s to build) so a run holds enough builds for a steady median.
    """
    if tiny:
        widths, n_lengths = (8.0, 12.0), 5
        cap_widths, spacings, grid = (8.0, 12.0), (0.5, 2.0), (32, 24)
    else:
        widths, n_lengths = (8.0, 10.0, 12.0), 7
        cap_widths, spacings, grid = (8.0, 12.0), (0.5, 2.0), (48, 36)
    lengths = [100.0 * (160.0 ** (k / (n_lengths - 1)))
               for k in range(n_lengths)]  # 100 .. 16000 um, log-spaced
    return [
        LoopTableJob(config=CONFIG, frequency=FREQUENCY,
                     widths=_jitter(rng, widths),
                     lengths=_jitter(rng, lengths)),
        TotalCapacitanceJob(config=CONFIG, widths=_jitter(rng, cap_widths),
                            spacings=_jitter(rng, spacings),
                            nx=grid[0], nz=grid[1]),
    ]


def table_fingerprint(root: Path) -> Dict[str, bytes]:
    """Name -> raw axis + value bytes of every table in a library."""
    lib = TableLibrary(root, create=False)
    out = {}
    for entry in lib.entries():
        table = lib.get(entry.key)
        out[entry.name] = b"".join(
            [a.tobytes() for a in table.axes] + [table.values.tobytes()])
    return out


class Workload:
    """Interface the harness drives."""

    name = ""
    clients = 1
    #: Ops per overhead replay (None: sized from the measured op time).
    replay_count: Optional[int] = None

    def __init__(self, seed: int, workdir: Path, tiny: bool, traced: bool):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.traced = traced
        self.rng = random.Random(seed)
        self._dirs = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{stem}{self._dirs}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> float:
        """One timed set-up; the harness repeats it and keeps the last."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed preparation after set-up (cache warming)."""

    def run_op(self, index: int, client: int, recorder=None) -> None:
        raise NotImplementedError

    def checks(self, ok_ops: List[int], counters: Dict[str, int]) -> Tuple[
            List[Check], List[int]]:
        """(global checks, indices of ops whose output failed a check)."""
        return [], []

    def replay(self, count: int) -> float:
        """Re-run ops 0..count-1 from fresh state; total op seconds."""
        t0 = time.perf_counter()
        for index in range(count):
            self.run_op(index, 0)
        return time.perf_counter() - t0

    def extra_rss_mb(self) -> float:
        return 0.0

    def close(self) -> None:
        """Stop everything the workload started."""


# ----------------------------------------------------------------------
class KitCold(Workload):
    """Serial cold characterization: the only workload where the peec,
    rc and tables builders and the library store do the work."""

    name = "kit-cold"

    def __init__(self, *args):
        super().__init__(*args)
        self.jobs = kit_jobs(self.rng, self.tiny)
        self.kits: Dict[int, Path] = {}

    def setup(self) -> float:
        return timed_import()

    def run_op(self, index: int, client: int, recorder=None) -> None:
        # Cold: an empty library and an empty Lp memo, no disk memo.
        lp_memo_cache().clear()
        root = self.fresh_dir("kit")
        build_library(root, self.jobs, parallel=False)
        self.kits[index] = root

    def checks(self, ok_ops, counters):
        bad = []
        reference = None
        for index in ok_ops:
            root = self.kits[index]
            if TableLibrary(root, create=False).verify():
                bad.append(index)
                continue
            tables = table_fingerprint(root)
            if reference is None:
                reference = tables
            elif tables != reference:
                bad.append(index)
            shutil.rmtree(root)
        checks = [("tables bitwise-equal across ops and verify() clean",
                   not bad, f"{len(bad)} op(s) differ or fail verify")]
        return checks, bad


# ----------------------------------------------------------------------
class _Skew(Workload):
    """Shared skew flow: warm kit, RC + RLC transient per tree."""

    steps = 0
    tiny_steps = 0
    dt = ps(0.5)

    def __init__(self, *args):
        super().__init__(*args)
        self.jobs = kit_jobs(self.rng, self.tiny)
        self.trees = [default_htree(levels=levels, root_length=um(root),
                                    asymmetry=asym)
                      for levels, root, asym in self.tree_specs()]
        self.t_stop = (self.tiny_steps if self.tiny else self.steps) * self.dt
        self.extractor: Optional[ClocktreeRLCExtractor] = None
        self.skews: Dict[int, Tuple[float, float]] = {}

    def tree_specs(self) -> List[Tuple[int, float, float]]:
        raise NotImplementedError

    def setup(self) -> float:
        seconds = timed_import()
        kit = self.fresh_dir("kit")
        t0 = time.perf_counter()
        build_library(kit, self.jobs, parallel=False)
        self.extractor = ClocktreeRLCExtractor(CONFIG, frequency=FREQUENCY,
                                               library=kit)
        return seconds + time.perf_counter() - t0

    def _skew(self, index: int) -> Tuple[float, float]:
        outcome = run_htree_skew(self.trees[index % len(self.trees)],
                                 self.extractor, t_stop=self.t_stop,
                                 dt=self.dt)
        return outcome.rc_skew, outcome.rlc_skew

    def run_op(self, index: int, client: int, recorder=None) -> None:
        self.skews[index] = self._skew(index)

    def checks(self, ok_ops, counters):
        # A traced run checks that the wrapped flow computed what the
        # plain one does; a plain run only re-checks determinism, once.
        first = ok_ops[:3 if self.traced else 1]
        bad = [i for i in first if self._skew(i) != self.skews[i]]
        paper = run_htree_skew(default_htree(), self.extractor)
        extrapolated = counters.get(TABLE_LOOKUP_EXTRAPOLATED, 0)
        checks = [
            (f"first {len(first)} tree(s) bitwise-equal to run_htree_skew",
             bool(first) and not bad, f"{len(bad)} differ"),
            ("paper-default tree RC-vs-RLC skew discrepancy > 10 %",
             paper.skew_discrepancy_percent > 10.0,
             f"{paper.skew_discrepancy_percent:.2f} %"),
            ("no extrapolated table lookups", extrapolated == 0,
             f"{extrapolated} extrapolated"),
        ]
        return checks, bad


class SkewPaper(_Skew):
    """Paper-scale trees (81-405 unknowns, all dense MNA): the per-step
    solve dominates, lookups are few, no field solves run."""

    name = "skew-paper"
    steps = 6000
    tiny_steps = 2000  # 1 ns: level-2 sinks cross well before

    def tree_specs(self):
        # Levels cycle 3,2,3,4,3 so any prefix of ops has the same mix;
        # level 3 holds the median and the tail quantile.
        pattern = (2, 2) if self.tiny else (3, 2, 3, 4, 3)
        return [(pattern[k % len(pattern)], self.rng.uniform(2000, 6000),
                 self.rng.uniform(1.1, 2.0)) for k in range(60)]


class SkewChip(_Skew):
    """Level-6 trees: the RLC deck (1701 unknowns) goes sparse while the
    RC deck (693) stays dense; many more lookups and a larger lint."""

    name = "skew-chip"
    steps = tiny_steps = 1300  # 650 ps: the slowest sink crosses at 546

    def tree_specs(self):
        levels = 3 if self.tiny else 6
        return [(levels, 8000.0, self.rng.uniform(1.1, 2.0))
                for _ in range(8)]


# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_healthy(port: int, proc: Optional[subprocess.Popen],
                  timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    url = f"http://127.0.0.1:{port}/healthz"
    while time.monotonic() < deadline:
        if proc is not None and proc.poll() is not None:
            raise RuntimeError(f"daemon exited with code {proc.returncode}")
        try:
            with urllib.request.urlopen(url, timeout=1.0) as resp:
                if resp.status == 200:
                    return
        except OSError:  # not listening yet
            pass
        time.sleep(0.01)
    raise RuntimeError("daemon did not become healthy")


def _peak_rss_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class ServeMixed(Workload):
    """The only workload through serve (HTTP, result cache, coalescer);
    its 40 % misses keep it from timing a dict lookup."""

    name = "serve-mixed"
    clients = 2
    # Replays call handle() in-process, without the HTTP round trip.
    replay_count = 200
    block = (["hot"] * 6) + (["extract"] * 3) + ["lookup"]

    def __init__(self, *args):
        super().__init__(*args)
        self.max_levels = 2 if self.tiny else 4
        self.jobs = kit_jobs(self.rng, self.tiny)
        self.hot = [self._extract_body(self.rng, k)
                    for k in range(10 if self.tiny else 40)]
        self.proc: Optional[subprocess.Popen] = None
        self.server = None
        self.kit: Optional[Path] = None
        self.port = 0
        self.daemon_rss_mb = 0.0
        self._conns: Dict[int, http.client.HTTPConnection] = {}
        #: index -> cache hit, for every answered op.
        self.outcomes: Dict[int, bool] = {}
        self.results: Dict[int, dict] = {}

    # -- inputs --------------------------------------------------------
    def _extract_body(self, rng: random.Random, k: int) -> dict:
        # Levels cycle rather than being drawn, so every run holds the
        # same share of each tree size and the tail quantile stays put.
        return {"root_length_um": round(rng.uniform(1000.0, 6000.0), 3),
                "levels": 1 + k % self.max_levels}

    def _lookup_body(self, rng: random.Random) -> dict:
        if rng.random() < 0.5:
            return {"quantity": rng.choice(["loop_inductance",
                                            "loop_resistance"]),
                    "point": {"width_um": round(rng.uniform(8.5, 11.5), 4),
                              "length_um": round(rng.uniform(150, 15000), 3)}}
        return {"quantity": "capacitance_per_length",
                "point": {"width_um": round(rng.uniform(8.5, 11.5), 4),
                          "spacing_um": round(rng.uniform(0.6, 1.9), 4)}}

    def request(self, index: int) -> Tuple[str, str, dict]:
        """(kind, endpoint, body) of op *index*; blocks of 10 hold 6 hot
        repeats, 3 fresh extracts and 1 fresh lookup in seeded order."""
        block, slot = divmod(index, len(self.block))
        rng = random.Random(f"{self.seed}:{block}")
        kinds = list(self.block)
        rng.shuffle(kinds)
        bodies = []
        fresh = block * self.block.count("extract")
        for kind in kinds:
            if kind == "hot":
                bodies.append(("extract", rng.choice(self.hot)))
            elif kind == "extract":
                bodies.append(("extract", self._extract_body(rng, fresh)))
                fresh += 1
            else:
                bodies.append(("lookup", self._lookup_body(rng)))
        endpoint, body = bodies[slot]
        return kinds[slot], endpoint, body

    # -- set-up --------------------------------------------------------
    def setup(self) -> float:
        self._stop()
        kit = self.fresh_dir("kit")
        t0 = time.perf_counter()
        build_library(kit, self.jobs, parallel=False)
        self.kit = kit
        if self.traced:
            # In-process server so the layer wrappers see the server side.
            from repro.serve import ExtractionService, start_server

            self.server = start_server(ExtractionService(kit))
            self.port = self.server.port
            _wait_healthy(self.port, None)
        else:
            self.port = _free_port()
            log = open(self.workdir / f"daemon{self._dirs}.log", "wb")
            with log:
                self.proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve",
                     "--library", str(kit), "--port", str(self.port),
                     "--log-level", "warning"],
                    cwd=self.workdir, env=child_env(),
                    stdout=log, stderr=subprocess.STDOUT)
            _wait_healthy(self.port, self.proc)
        return time.perf_counter() - t0

    def prepare(self) -> None:
        for body in self.hot:
            self._post(-1, "extract", body, None)
        self._close_conns()

    # -- ops -----------------------------------------------------------
    def _post(self, client: int, endpoint: str, body: dict,
              request_id: Optional[str]) -> dict:
        conn = self._conns.get(client)
        if conn is None:
            conn = self._conns[client] = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=60)
        headers = {"Content-Type": "application/json"}
        if request_id:
            headers["X-Request-Id"] = request_id
        conn.request("POST", "/" + endpoint, body=json.dumps(body),
                     headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"HTTP {resp.status}: {data[:200]!r}")
        return json.loads(data)

    def run_op(self, index: int, client: int, recorder=None) -> None:
        kind, endpoint, body = self.request(index)
        rid = f"bench-{index}"
        if recorder is not None:
            with recorder.span("serve.http", rid):
                envelope = self._post(client, endpoint, body, rid)
        else:
            envelope = self._post(client, endpoint, body, rid)
        self.outcomes[index] = bool(envelope["cache"]["hit"])
        if kind != "hot":
            self.results[index] = envelope["result"]

    def checks(self, ok_ops, counters):
        from repro.serve import ExtractionService

        # Every whole block of 10 ops holds 6 hot repeats, so exact hits
        # give a 60 % hit rate up to the last partial block.
        hit_rate = sum(self.outcomes[i] for i in ok_ops) / max(1, len(ok_ops))
        wrong_hits = [i for i in ok_ops
                      if self.outcomes[i] != (self.request(i)[0] == "hot")]
        local = ExtractionService(self.kit)
        misses = sorted(self.results)
        sampled = random.Random(self.seed).sample(misses, min(20, len(misses)))
        bad = []
        for index in sampled:
            _, endpoint, body = self.request(index)
            expected = json.loads(json.dumps(
                local.handle(endpoint, body)["result"]))
            if expected != self.results[index]:
                bad.append(index)
        checks = [
            ("cache hits are exactly the hot repeats (60 % of ops)",
             not wrong_hits,
             f"{len(wrong_hits)} mismatched, hit rate {hit_rate:.4f}"),
            ("sampled misses equal in-process handle()",
             bool(sampled) and not bad,
             f"{len(bad)} of {len(sampled)} differ"),
        ]
        return checks, bad

    def replay(self, count: int) -> float:
        from repro.serve import ExtractionService

        service = ExtractionService(self.kit)
        for body in self.hot:
            service.handle("extract", body)
        t0 = time.perf_counter()
        for index in range(count):
            _, endpoint, body = self.request(index)
            service.handle(endpoint, body)
        return time.perf_counter() - t0

    # -- teardown ------------------------------------------------------
    def _close_conns(self) -> None:
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()

    def _stop(self) -> None:
        self._close_conns()
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server = None
        if self.proc is not None:
            self.daemon_rss_mb = max(self.daemon_rss_mb,
                                     _peak_rss_mb(self.proc.pid))
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc = None

    def extra_rss_mb(self) -> float:
        if self.proc is not None:
            return max(self.daemon_rss_mb, _peak_rss_mb(self.proc.pid))
        return self.daemon_rss_mb

    def close(self) -> None:
        self._stop()


WORKLOADS = {cls.name: cls for cls in (KitCold, SkewPaper, SkewChip,
                                       ServeMixed)}
