"""Fast-path PEEC kernel: dedup assembly, memo cache, factor-once sweeps.

The contract under test is strict: the dedup assembly must reproduce the
naive full-broadcast assembly *bit-for-bit* (the Hoer-Love closed form
is catastrophically ill-conditioned in places, so any tolerance-based
"equivalence" would hide real divergence), and the factored frequency
solve must match the per-frequency LU reference to <= 1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.constants import um
from repro.errors import GeometryError, SolverError
from repro.geometry.primitives import Point3D, RectBar
from repro.peec.hoer_love import _bar_to_x_frame
from repro.peec.kernel import (
    DEDUP_MIN_FILAMENTS,
    ImpedanceFactorization,
    LpMemoCache,
    _pair_signatures,
    _unique_rows,
    assemble_partial_inductance_matrix,
    lp_memo_cache,
    lp_memo_disabled,
    signature_keys,
    signature_stats,
)
from repro.telemetry import (
    LP_DEDUP_BYPASS,
    LP_MEMO_HIT,
    LP_PAIR_EVAL,
    get_registry,
    metrics_meter,
)
from repro.peec.mesh import mesh_bar
from repro.peec.network import FilamentNetwork
from repro.peec.solver import Conductor, PartialInductanceSolver


def bar(y=0.0, w=um(2), t=um(1), l=um(500), axis="x", x=0.0, z=0.0):
    return RectBar(Point3D(x, y, z), l, w, t, axis)


def meshed_bars(n_width=4, n_thickness=2, grading=1.5, origin=Point3D(0, 0, 0)):
    parent = RectBar(origin, um(300), um(4), um(2), "x")
    return list(mesh_bar(parent, n_width=n_width, n_thickness=n_thickness,
                         grading=grading).filaments)


def naive(bars):
    with lp_memo_disabled():
        return assemble_partial_inductance_matrix(bars, method="naive")


def dedup(bars, memo=False):
    # dedup_min=1 forces the dedup path even on tiny fixtures, so these
    # tests always compare dedup-vs-naive (not bypass-vs-naive).
    return assemble_partial_inductance_matrix(
        bars, method="dedup", memo=memo, dedup_min=1
    )


class TestDedupMatchesNaiveBitwise:
    """Fast path == naive path, bit for bit, on every geometry class."""

    def test_uniform_mesh(self):
        bars = meshed_bars(grading=1.0)
        np.testing.assert_array_equal(dedup(bars), naive(bars))

    def test_graded_mesh(self):
        bars = meshed_bars(grading=1.5)
        np.testing.assert_array_equal(dedup(bars), naive(bars))

    def test_translated_mesh_far_from_origin(self):
        # Anchoring away from the origin exercises the re-anchoring
        # canonicalization where the raw closed form is ill-conditioned.
        bars = meshed_bars(origin=Point3D(um(3000), um(1000), um(2000)))
        np.testing.assert_array_equal(dedup(bars), naive(bars))

    def test_mixed_axes(self):
        bars = (meshed_bars()
                + [bar(axis="y", z=um(3)), bar(axis="y", z=um(6)),
                   bar(axis="z", y=um(9))])
        np.testing.assert_array_equal(dedup(bars), naive(bars))

    def test_coincident_bars(self):
        # Identical overlapping bars (mutual == self) are legal PEEC
        # input and the most degenerate signature class.
        bars = [bar(), bar(), bar(um(5))]
        np.testing.assert_array_equal(dedup(bars), naive(bars))

    def test_multiple_conductors(self):
        bars = (meshed_bars()
                + meshed_bars(origin=Point3D(0, um(10), 0))
                + meshed_bars(origin=Point3D(0, um(20), um(4))))
        np.testing.assert_array_equal(dedup(bars), naive(bars))

    def test_memoized_values_bitwise_identical(self):
        bars = meshed_bars()
        cache = LpMemoCache()
        first = dedup(bars, memo=cache)
        second = dedup(bars, memo=cache)  # fully cache-served
        np.testing.assert_array_equal(first, naive(bars))
        np.testing.assert_array_equal(second, first)
        assert cache.hits > 0

    def test_single_bar(self):
        bars = [bar()]
        np.testing.assert_array_equal(dedup(bars), naive(bars))

    def test_unknown_method_rejected(self):
        with pytest.raises(SolverError):
            assemble_partial_inductance_matrix([bar()], method="magic")

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            assemble_partial_inductance_matrix([])


class TestDedupProperties:
    # randomized micron-scale geometry, snapped to a 1 nm grid like a
    # real layout (exact ties between congruent pairs then survive)
    coords = st.integers(-20_000, 20_000).map(lambda n: n * 1e-9)
    dims = st.integers(200, 5_000).map(lambda n: n * 1e-9)
    lengths = st.integers(10_000, 500_000).map(lambda n: n * 1e-9)

    @given(data=st.data(), n=st.integers(2, 6))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_bar_sets_bitwise_equal(self, data, n):
        bars = []
        for _ in range(n):
            bars.append(RectBar(
                Point3D(data.draw(self.coords), data.draw(self.coords),
                        data.draw(self.coords)),
                data.draw(self.lengths), data.draw(self.dims),
                data.draw(self.dims),
                data.draw(st.sampled_from(["x", "y", "z"])),
            ))
        np.testing.assert_array_equal(dedup(bars), naive(bars))

    @given(data=st.data())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_duplicated_random_bar_appears_coincident(self, data):
        b = RectBar(
            Point3D(data.draw(self.coords), data.draw(self.coords),
                    data.draw(self.coords)),
            data.draw(self.lengths), data.draw(self.dims),
            data.draw(self.dims), "x",
        )
        shifted = RectBar(
            Point3D(b.origin.x, b.origin.y + data.draw(self.dims) + b.width,
                    b.origin.z),
            b.length, b.width, b.thickness, "x",
        )
        bars = [b, b, shifted]
        np.testing.assert_array_equal(dedup(bars), naive(bars))


def dyadic_array(nx=6, ny=4, pitch=2.0 ** -20, w=2.0 ** -21, t=2.0 ** -22):
    """Bar array on a dyadic pitch: offsets between cells are float-exact,
    so congruent pairs are bitwise congruent (pure kernel dedup, no mesh
    round-off in the way)."""
    return [
        RectBar(Point3D(0.0, i * pitch, j * pitch), 2.0 ** -12, w, t, "x")
        for i in range(nx) for j in range(ny)
    ]


class TestSignatureStatsAndCounters:
    def test_dyadic_array_dedups_by_relative_offset(self):
        bars = dyadic_array(nx=6, ny=4)
        stats = signature_stats(bars)
        n_pairs = len(bars) * (len(bars) + 1) // 2  # 300
        assert stats["pairs"] == n_pairs
        # identical cross-sections: a pair is determined by its grid
        # offset (di, dj) up to negation (bar swap) -> the 11*7 = 77
        # offsets collapse to (77 - 1) / 2 + 1 = 39 classes for 300 pairs
        assert stats["unique_signatures"] == 39
        assert stats["dedup_factor"] > 7.0

    def test_uniform_mesh_dedups(self):
        # mesh_bar boundaries carry cumsum round-off, so only a subset of
        # congruent pairs is bitwise congruent -- still a >3x reduction
        # at characterization-grade mesh density.
        parent = RectBar(Point3D(0, 0, 0), um(300), um(8), um(4), "x")
        bars = list(mesh_bar(parent, n_width=20, n_thickness=20).filaments)
        stats = signature_stats(bars)
        assert stats["pairs"] == 80200
        assert stats["dedup_factor"] > 3.0

    def test_pair_eval_counter_reduced_by_dedup(self):
        bars = dyadic_array(nx=6, ny=4)
        with lp_memo_disabled():
            with metrics_meter() as naive_meter:
                assemble_partial_inductance_matrix(bars, method="naive")
            with metrics_meter() as dedup_meter:
                assemble_partial_inductance_matrix(
                    bars, method="dedup", dedup_min=1
                )
        n = len(bars)
        assert naive_meter.counts[LP_PAIR_EVAL] == n * n
        assert dedup_meter.counts[LP_PAIR_EVAL] == 39
        np.testing.assert_array_equal(dedup(bars), naive(bars))

    def test_stats_empty_rejected(self):
        with pytest.raises(GeometryError):
            signature_stats([])


class TestDedupBypass:
    """Tiny memo-less assemblies skip dedup (it is a net loss there)."""

    def test_small_block_bypasses_without_memo(self):
        bars = meshed_bars()  # 8 filaments, below DEDUP_MIN_FILAMENTS
        assert len(bars) < DEDUP_MIN_FILAMENTS
        with lp_memo_disabled():
            with metrics_meter() as meter:
                got = assemble_partial_inductance_matrix(bars, method="dedup")
        assert meter.counts.get(LP_DEDUP_BYPASS, 0) == 1
        # the bypass evaluates the full n x n broadcast
        assert meter.counts[LP_PAIR_EVAL] == len(bars) ** 2
        np.testing.assert_array_equal(got, naive(bars))

    def test_memo_backed_block_never_bypasses(self):
        bars = meshed_bars()
        cache = LpMemoCache()
        with metrics_meter() as meter:
            assemble_partial_inductance_matrix(bars, memo=cache)
        assert meter.counts.get(LP_DEDUP_BYPASS, 0) == 0
        assert len(cache) > 0

    def test_large_block_dedups_without_memo(self):
        parent = RectBar(Point3D(0, 0, 0), um(300), um(8), um(4), "x")
        bars = list(mesh_bar(parent, n_width=8, n_thickness=4).filaments)
        assert len(bars) >= DEDUP_MIN_FILAMENTS
        with lp_memo_disabled():
            with metrics_meter() as meter:
                assemble_partial_inductance_matrix(bars, method="dedup")
        assert meter.counts.get(LP_DEDUP_BYPASS, 0) == 0
        assert meter.counts[LP_PAIR_EVAL] < len(bars) ** 2


class TestSignatureKeys:
    def test_matches_per_row_tobytes(self):
        rng = np.random.default_rng(5)
        signatures = rng.standard_normal((50, 9))
        assert signature_keys(signatures) == [
            row.tobytes() for row in signatures
        ]

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(6)
        wide = rng.standard_normal((20, 18))
        view = wide[:, ::2]  # non-contiguous (20, 9) view
        assert signature_keys(view) == [row.tobytes() for row in view]

    def test_empty(self):
        assert signature_keys(np.empty((0, 9))) == []


class TestUniqueRows:
    """The lexsort dedup returns exactly what ``np.unique(axis=0)`` does."""

    def _check(self, signatures):
        unique, inverse = _unique_rows(signatures)
        ref_unique, ref_inverse = np.unique(
            signatures, axis=0, return_inverse=True)
        assert unique.tobytes() == ref_unique.tobytes()
        np.testing.assert_array_equal(inverse, ref_inverse.reshape(-1))
        np.testing.assert_array_equal(unique[inverse], signatures)

    def test_random_rows_with_repeats(self):
        rng = np.random.default_rng(7)
        pool = rng.integers(-2, 3, size=(40, 9)).astype(float)
        self._check(pool[rng.integers(0, 40, size=500)])

    def test_mesh_pair_signatures(self):
        frames = np.array([_bar_to_x_frame(b) for b in meshed_bars(6, 3)])
        _, _, signatures = _pair_signatures(frames)
        self._check(signatures)

    def test_single_row(self):
        self._check(np.arange(9.0).reshape(1, 9))


class TestLpMemoCache:
    def test_lookup_store_roundtrip(self):
        cache = LpMemoCache(capacity=10)
        keys = [b"a", b"b", b"c"]
        found, missing = cache.lookup(keys)
        assert found == {} and missing == [0, 1, 2]
        cache.store(keys, [1.0, 2.0, 3.0])
        found, missing = cache.lookup([b"b", b"z", b"a"])
        assert found == {0: 2.0, 2: 1.0}
        assert missing == [1]

    def test_lru_eviction(self):
        cache = LpMemoCache(capacity=2)
        cache.store([b"a", b"b"], [1.0, 2.0])
        cache.lookup([b"a"])           # refresh 'a'
        cache.store([b"c"], [3.0])     # evicts LRU 'b'
        found, missing = cache.lookup([b"a", b"b", b"c"])
        assert set(found) == {0, 2}
        assert missing == [1]
        assert cache.evictions == 1

    def test_resize_shrinks(self):
        cache = LpMemoCache(capacity=8)
        cache.store([bytes([i]) for i in range(8)], list(range(8)))
        cache.resize(3)
        assert len(cache) == 3
        with pytest.raises(SolverError):
            cache.resize(0)

    def test_stats_and_hit_rate(self):
        cache = LpMemoCache()
        assert cache.hit_rate == 0.0
        cache.store([b"k"], [1.0])
        cache.lookup([b"k", b"m"])
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)
        cache.reset_stats()
        assert cache.hits == cache.misses == 0

    def test_invalid_capacity(self):
        with pytest.raises(SolverError):
            LpMemoCache(capacity=0)

    def test_global_cache_reused_across_assemblies(self):
        bars = meshed_bars(origin=Point3D(0, um(123), 0))
        lp_memo_cache().clear()
        assemble_partial_inductance_matrix(bars)
        with metrics_meter() as meter:
            assemble_partial_inductance_matrix(bars)
        assert meter.counts.get(LP_MEMO_HIT, 0) > 0
        assert get_registry().snapshot().memo_hit_rate > 0.0

    def test_disabled_context_bypasses_global(self):
        bars = [bar(), bar(um(7))]
        lp_memo_cache().clear()
        with lp_memo_disabled():
            assemble_partial_inductance_matrix(bars)
        assert len(lp_memo_cache()) == 0
        assemble_partial_inductance_matrix(bars)
        assert len(lp_memo_cache()) > 0


def reference_solve(resistances, lp, omega, rhs):
    z = np.diag(resistances).astype(complex) + 1j * omega * lp
    return np.linalg.solve(z, rhs)


class TestImpedanceFactorization:
    def setup_method(self):
        self.bars = meshed_bars(n_width=3, n_thickness=2)
        self.lp = naive(self.bars)
        rng = np.random.default_rng(7)
        self.r = rng.uniform(0.5, 5.0, len(self.bars))
        self.fact = ImpedanceFactorization(self.r, self.lp)

    def test_solve_matches_lu_across_frequencies(self):
        rng = np.random.default_rng(11)
        rhs = rng.standard_normal(self.fact.n)
        for f in [1e6, 1e8, 1e9, 1e10, 5e10]:
            omega = 2 * np.pi * f
            got = self.fact.solve(omega, rhs)
            want = reference_solve(self.r, self.lp, omega, rhs.astype(complex))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_zero_frequency_is_resistive(self):
        rhs = np.ones(self.fact.n)
        got = self.fact.solve(0.0, rhs)
        np.testing.assert_allclose(got.real, rhs / self.r, rtol=1e-12)
        np.testing.assert_allclose(got.imag, 0.0, atol=1e-25)

    def test_multi_rhs_stack(self):
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal((self.fact.n, 4))
        omega = 2 * np.pi * 2e9
        got = self.fact.solve(omega, rhs)
        want = reference_solve(self.r, self.lp, omega, rhs.astype(complex))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_reduced_admittance_matches_schur(self):
        p = np.zeros((self.fact.n, 2))
        p[: self.fact.n // 2, 0] = 1.0
        p[self.fact.n // 2:, 1] = 1.0
        omega = 2 * np.pi * 1e9
        got = self.fact.reduced_admittance(omega, p)
        z = np.diag(self.r).astype(complex) + 1j * omega * self.lp
        want = p.T @ np.linalg.solve(z, p.astype(complex))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_tau_nonnegative_and_sorted(self):
        assert np.all(self.fact.tau >= -1e-30)
        assert np.all(np.diff(self.fact.tau) >= 0)

    def test_validation(self):
        with pytest.raises(SolverError):
            ImpedanceFactorization(np.array([1.0, -1.0]), np.eye(2))
        with pytest.raises(SolverError):
            ImpedanceFactorization(np.ones(3), np.eye(2))
        with pytest.raises(SolverError):
            ImpedanceFactorization(np.ones(2), np.ones((2, 3)))
        with pytest.raises(SolverError):
            self.fact.modal_scale(-1.0)
        with pytest.raises(SolverError):
            self.fact.solve(1.0, np.ones(self.fact.n + 1))


class TestSolverFactoredReduction:
    """PartialInductanceSolver's cached-factorization frequency path."""

    def _solver(self):
        conds = [
            Conductor.from_bar("a", bar(0.0), n_width=3, n_thickness=2),
            Conductor.from_bar("b", bar(um(6)), n_width=3, n_thickness=2),
        ]
        return PartialInductanceSolver(conds)

    def test_impedance_matches_direct_schur(self):
        solver = self._solver()
        lp = solver.filament_lp_matrix()
        r = solver.filament_resistances()
        p = solver.incidence()
        for f in [1e8, 1e9, 1e10]:
            omega = 2 * np.pi * f
            z_fil = np.diag(r).astype(complex) + 1j * omega * lp
            want = np.linalg.inv(p.T @ np.linalg.solve(z_fil, p.astype(complex)))
            got = solver.conductor_impedance_matrix(f)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_sweep_matches_pointwise(self):
        solver = self._solver()
        freqs = [1e8, 1e9, 1e10]
        r_sweep, l_sweep = solver.effective_rl_sweep(freqs)
        assert r_sweep.shape == (3, 2, 2)
        for k, f in enumerate(freqs):
            r_pt, l_pt = solver.effective_rl(f)
            np.testing.assert_allclose(r_sweep[k], r_pt, rtol=1e-12)
            np.testing.assert_allclose(l_sweep[k], l_pt, rtol=1e-12)

    def test_sweep_validation(self):
        solver = self._solver()
        with pytest.raises(SolverError):
            solver.effective_rl_sweep([])
        with pytest.raises(SolverError):
            solver.effective_rl_sweep([1e9, 0.0])


class TestNetworkFactoredVsDirect:
    def _network(self):
        net = FilamentNetwork(ground="ret")
        net.add_conductor("sig", bar(0.0), "in", "far",
                          n_width=3, n_thickness=2)
        net.add_conductor("gnd", bar(um(8)), "ret", "far",
                          n_width=3, n_thickness=2)
        net.add_resistor("tie", "in", "mid", resistance=0.5)
        net.add_conductor("stub", bar(um(16)), "mid", "far")
        return net

    def test_factored_matches_direct(self):
        net = self._network()
        for f in [1e7, 1e9, 3e10]:
            fast = net.solve(f, {"in": 1.0 + 0.0j}, factored=True)
            slow = net.solve(f, {"in": 1.0 + 0.0j}, factored=False)
            for node in fast.node_voltages:
                assert fast.node_voltages[node] == pytest.approx(
                    slow.node_voltages[node], rel=1e-10, abs=1e-18)
            for name in fast.conductor_currents:
                assert fast.conductor_currents[name] == pytest.approx(
                    slow.conductor_currents[name], rel=1e-10, abs=1e-18)

    def test_solve_many_matches_individual(self):
        net = self._network()
        injections = [{"in": 1.0 + 0.0j}, {"mid": 1.0 + 0.0j},
                      {"in": 0.5 + 0.5j, "mid": -0.25 + 0.0j}]
        batch = net.solve_many(1e9, injections)
        assert len(batch) == 3
        for inj, sol in zip(injections, batch):
            single = net.solve(1e9, inj)
            for node in single.node_voltages:
                assert sol.node_voltages[node] == pytest.approx(
                    single.node_voltages[node], rel=1e-10, abs=1e-20)
            for name in single.conductor_currents:
                assert sol.conductor_currents[name] == pytest.approx(
                    single.conductor_currents[name], rel=1e-10, abs=1e-20)

    def test_solve_many_empty(self):
        net = self._network()
        assert net.solve_many(1e9, []) == []
