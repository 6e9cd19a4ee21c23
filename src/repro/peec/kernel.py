"""Fast-path PEEC kernel: dedup-aware assembly and factor-once sweeps.

The cold cost of table characterization is concentrated in two places:

1. **Assembly** -- filling the dense filament partial-inductance matrix
   costs one Hoer-Love closed-form evaluation (64 corner values of the
   primitive, evaluated stacked) per filament pair, O(n^2) of them.
   But the Neumann integral is symmetric and translation invariant: a
   pair is determined by its two cross-sections plus a relative
   offset.  On the regular / graded
   meshes produced by :func:`repro.peec.mesh.mesh_bar` and on
   strip-meshed ground planes, huge numbers of pairs are congruent.
   :func:`assemble_partial_inductance_matrix` canonicalizes every
   same-axis pair to a relative-geometry *signature*
   (:func:`repro.peec.hoer_love.canonical_pair_parameters`), evaluates
   one Hoer-Love call per bitwise-unique signature, and scatters the
   values back over the upper and (by exact symmetry) lower triangle.
   Because :func:`~repro.peec.hoer_love.mutual_inductance_batch` itself
   evaluates every pair in the same canonical frame with a per-pair
   scale, the dedup path reproduces the naive full-matrix path
   *bit-for-bit* -- no tolerance games, even where the closed form is
   badly conditioned.

2. **Frequency sweeps** -- ``Z(w) = diag(R) + j*w*Lp`` was LU-factored
   from scratch at every frequency.  :class:`ImpedanceFactorization`
   instead diagonalizes the symmetric-definite pencil ``(Lp, diag(R))``
   once: with ``S = R^{-1/2} Lp R^{-1/2} = V diag(tau) V^T`` and
   ``U = R^{-1/2} V``,

       ``Z(w)^{-1} = U diag(1 / (1 + j*w*tau)) U^T``

   for *every* frequency -- O(n^3) once, O(n^2) per frequency and per
   right-hand side.  The ``tau`` are the L/R modal time constants of the
   filament system, so the factorization doubles as a physical summary
   of the skin-effect dynamics.

3. **Memoization** -- signatures are content keys, so assembled values
   can be reused *across* solver instances.  :class:`LpMemoCache` is a
   process-wide LRU consulted by the dedup assembly; neighboring grid
   points of a table build share congruent sub-blocks (identical ground
   strips, shield traces, self terms) and hit the cache instead of
   re-integrating.  Hit/miss counters live in
   :mod:`repro.telemetry`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.errors import GeometryError, SolverError
from repro.geometry.primitives import RectBar
from repro.telemetry import (
    LP_DEDUP_BYPASS,
    LP_MEMO_HIT,
    LP_MEMO_MISS,
    LP_PAIR_EVAL,
    LP_PAIR_TOTAL,
    get_registry,
    span,
)
from repro.peec.hoer_love import (
    _bar_to_x_frame,
    canonical_pair_parameters,
    mutual_inductance_batch,
)

__all__ = [
    "DEDUP_MIN_FILAMENTS",
    "LpMemoCache",
    "ImpedanceFactorization",
    "assemble_partial_inductance_matrix",
    "signature_keys",
    "signature_stats",
    "lp_memo_cache",
    "lp_memo_disabled",
]

#: Below this many same-axis filaments (and without a memo cache to
#: feed) signature dedup costs more than it saves -- the unique-sort
#: plus scatter overhead exceeds the n^2 broadcast it avoids (BENCH
#: ``smoke.ratio_vs_naive`` measured 0.907 at n=18) -- so assembly falls
#: through to the direct batched call.  Memo-backed assemblies always
#: dedup: their values must land in the cache for cross-build reuse.
DEDUP_MIN_FILAMENTS = 32


# ----------------------------------------------------------------------
# memo cache
# ----------------------------------------------------------------------
class LpMemoCache:
    """Process-wide LRU of canonical pair signature -> Lp value [H].

    Keys are the raw bytes of the canonical 9-float signature (exact --
    no rounding), so a hit returns the bit-identical value a fresh
    evaluation would produce.  The cache is thread-safe and bounded:
    once *capacity* entries are stored, the least recently used are
    evicted.

    Statistics (``hits`` / ``misses`` / ``evictions``) accumulate per
    instance; the global instance additionally ticks the
    ``lp_memo_hit`` / ``lp_memo_miss`` counters in the
    :mod:`repro.telemetry` registry.
    """

    #: ~9 floats of key + 1 float of value per entry; the default bounds
    #: the cache around tens of MB.
    DEFAULT_CAPACITY = 200_000

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise SolverError("memo cache capacity must be >= 1")
        self._capacity = int(capacity)
        self._data: "OrderedDict[bytes, float]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @property
    def capacity(self) -> int:
        """Maximum number of cached pair values."""
        return self._capacity

    def resize(self, capacity: int) -> None:
        """Change the capacity, evicting LRU entries if shrinking."""
        if capacity < 1:
            raise SolverError("memo cache capacity must be >= 1")
        with self._lock:
            self._capacity = int(capacity)
            while len(self._data) > self._capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every cached value (statistics are kept)."""
        with self._lock:
            self._data.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    def lookup(self, keys: Sequence[bytes]) -> "tuple[Dict[int, float], List[int]]":
        """Split *keys* into ``(found, missing)``.

        Returns a dict mapping key index -> cached value, and the list
        of indices whose keys were absent.  Hit entries are refreshed in
        LRU order.
        """
        found: Dict[int, float] = {}
        missing: List[int] = []
        with self._lock:
            for i, key in enumerate(keys):
                value = self._data.get(key)
                if value is None:
                    missing.append(i)
                else:
                    self._data.move_to_end(key)
                    found[i] = value
            self.hits += len(found)
            self.misses += len(missing)
        registry = get_registry()
        if found:
            registry.inc(LP_MEMO_HIT, len(found))
        if missing:
            registry.inc(LP_MEMO_MISS, len(missing))
        return found, missing

    def store(self, keys: Sequence[bytes], values: Sequence[float]) -> None:
        """Insert freshly evaluated values, evicting LRU beyond capacity."""
        with self._lock:
            for key, value in zip(keys, values):
                self._data[key] = float(value)
                self._data.move_to_end(key)
            while len(self._data) > self._capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def items_snapshot(self) -> "List[tuple[bytes, float]]":
        """Entries in LRU -> MRU order (a consistent point-in-time copy)."""
        with self._lock:
            return list(self._data.items())


_GLOBAL_MEMO = LpMemoCache()
_MEMO_ENABLED = True


def lp_memo_cache() -> LpMemoCache:
    """The process-wide memo cache consulted by the dedup assembly."""
    return _GLOBAL_MEMO


@contextmanager
def lp_memo_disabled() -> Iterator[None]:
    """Context manager: bypass the global memo cache inside the block."""
    global _MEMO_ENABLED
    previous = _MEMO_ENABLED
    _MEMO_ENABLED = False
    try:
        yield
    finally:
        _MEMO_ENABLED = previous


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------
def _group_by_axis(bars: Sequence[RectBar]) -> Dict[str, List[int]]:
    groups: Dict[str, List[int]] = {}
    for i, bar in enumerate(bars):
        groups.setdefault(bar.axis, []).append(i)
    return groups


def _pair_signatures(frames: np.ndarray) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Upper-triangle indices and canonical (m, 9) signature rows.

    *frames* is the (n, 6) array of x-frame parameters
    ``(x0, l, y0, w, z0, t)``.  Signature columns are
    ``(l1, w1, t1, l2, w2, t2, ox, oy, oz)`` after orientation
    canonicalization -- exactly the quantities
    :func:`~repro.peec.hoer_love.mutual_inductance_batch` reduces a pair
    to internally, so signature-equal pairs evaluate bit-identically.
    """
    n = frames.shape[0]
    iu, ju = np.triu_indices(n)
    f1 = frames[iu]
    f2 = frames[ju]
    ox = f2[:, 0] - f1[:, 0] + 0.0
    oy = f2[:, 2] - f1[:, 2] + 0.0
    oz = f2[:, 4] - f1[:, 4] + 0.0
    columns = canonical_pair_parameters(
        f1[:, 1], f1[:, 3], f1[:, 5],
        f2[:, 1], f2[:, 3], f2[:, 5],
        ox, oy, oz,
    )
    return iu, ju, np.column_stack(columns)


def _unique_rows(signatures: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Lexicographically sorted unique rows and the inverse map.

    The result of ``np.unique(signatures, axis=0, return_inverse=True)``
    from one column ``lexsort``: ``np.unique`` sorts the rows as
    structured records, which costs more than evaluating the unique
    pairs once the Hoer-Love kernel is stacked.
    """
    m = signatures.shape[0]
    order = np.lexsort(signatures.T[::-1])
    ordered = signatures[order]
    first = np.empty(m, dtype=bool)
    first[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    inverse = np.empty(m, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _evaluate_signatures(signatures: np.ndarray) -> np.ndarray:
    """One Hoer-Love evaluation per canonical signature row."""
    if signatures.size == 0:
        return np.zeros(0)
    s = signatures
    zeros = np.zeros(s.shape[0])
    values = mutual_inductance_batch(
        zeros, s[:, 0], zeros, s[:, 1], zeros, s[:, 2],
        s[:, 6], s[:, 3], s[:, 7], s[:, 4], s[:, 8], s[:, 5],
    )
    return np.atleast_1d(np.asarray(values, dtype=float))


def signature_keys(signatures: np.ndarray) -> List[bytes]:
    """Memo keys (one ``bytes`` per row) for an (m, 9) signature array.

    Serializes the whole array in one ``tobytes`` pass and slices out the
    72-byte rows -- byte-identical to per-row ``row.tobytes()`` but
    without m separate numpy-scalar round trips, which dominated warm
    assembly at large unique-signature counts.
    """
    if signatures.size == 0:
        return []
    rows = np.ascontiguousarray(signatures)
    width = rows.shape[1] * rows.itemsize
    blob = rows.tobytes()
    return [blob[i * width:(i + 1) * width] for i in range(rows.shape[0])]


def _assemble_block_dedup(
    frames: np.ndarray,
    memo: Optional[LpMemoCache],
    dedup_min: Optional[int] = None,
) -> np.ndarray:
    """Dense Lp block for one same-axis filament group via signature dedup."""
    n = frames.shape[0]
    if dedup_min is None:
        dedup_min = DEDUP_MIN_FILAMENTS
    if memo is None and n < dedup_min:
        get_registry().inc(LP_DEDUP_BYPASS)
        return _assemble_block_naive(frames)
    iu, ju, signatures = _pair_signatures(frames)
    get_registry().inc(LP_PAIR_TOTAL, signatures.shape[0])
    unique, inverse = _unique_rows(signatures)
    values = np.empty(unique.shape[0])
    if memo is not None:
        keys = signature_keys(unique)
        found, missing = memo.lookup(keys)
        for i, value in found.items():
            values[i] = value
        if missing:
            fresh = _evaluate_signatures(unique[missing])
            get_registry().inc(LP_PAIR_EVAL, len(missing))
            values[missing] = fresh
            memo.store([keys[i] for i in missing], fresh)
    else:
        values[:] = _evaluate_signatures(unique)
        get_registry().inc(LP_PAIR_EVAL, unique.shape[0])
    block = np.empty((n, n))
    flat = values[inverse]
    block[iu, ju] = flat
    block[ju, iu] = flat
    return block


def _assemble_block_naive(frames: np.ndarray) -> np.ndarray:
    """Dense Lp block via one full n x n Hoer-Love broadcast (baseline)."""
    x0, length, y0, width, z0, thickness = frames.T
    registry = get_registry()
    registry.inc(LP_PAIR_TOTAL, frames.shape[0] * frames.shape[0])
    registry.inc(LP_PAIR_EVAL, frames.shape[0] * frames.shape[0])
    return mutual_inductance_batch(
        x0[:, None], length[:, None], y0[:, None],
        width[:, None], z0[:, None], thickness[:, None],
        x0[None, :], length[None, :], y0[None, :],
        width[None, :], z0[None, :], thickness[None, :],
    )


def assemble_partial_inductance_matrix(
    bars: Sequence[RectBar],
    method: str = "dedup",
    memo: Union[LpMemoCache, bool, None] = True,
    dedup_min: Optional[int] = None,
) -> np.ndarray:
    """Exact partial-inductance matrix [H] over a list of bars.

    Bars with different current axes are mutually orthogonal and get an
    exactly zero entry (the PEEC property the paper uses to ignore
    adjacent routing layers); each same-axis block is filled by the
    selected assembly strategy.

    Parameters
    ----------
    bars:
        The (meshed) conductor filaments.
    method:
        ``"dedup"`` (default) evaluates one Hoer-Love call per unique
        canonical pair signature of the upper triangle and mirrors /
        scatters the results; ``"naive"`` evaluates the full ``n x n``
        broadcast (the pre-kernel behavior, kept as the benchmark and
        golden-test baseline).  Both produce bit-identical matrices.
    memo:
        ``True`` consults the process-wide :func:`lp_memo_cache` (unless
        suspended by :func:`lp_memo_disabled`), ``False`` / ``None``
        skips memoization, and an explicit :class:`LpMemoCache` instance
        uses that cache (dedup method only).
    dedup_min:
        Same-axis blocks smaller than this fall back to the direct
        batched evaluation when no memo cache is in play (dedup is a net
        loss on tiny assemblies); defaults to
        :data:`DEDUP_MIN_FILAMENTS`.  Pass ``1`` to force dedup
        regardless of block size.
    """
    n = len(bars)
    if n == 0:
        raise GeometryError("need at least one bar")
    if method not in ("dedup", "naive"):
        raise SolverError(f"unknown assembly method {method!r}")
    if memo is True:
        cache: Optional[LpMemoCache] = _GLOBAL_MEMO if _MEMO_ENABLED else None
    elif memo is False or memo is None:
        cache = None
    else:
        cache = memo
    lp = np.zeros((n, n))
    with span("peec.assemble", filaments=n, method=method):
        for indices in _group_by_axis(bars).values():
            frames = np.array([_bar_to_x_frame(bars[i]) for i in indices])
            if method == "dedup":
                block = _assemble_block_dedup(frames, cache, dedup_min)
            else:
                block = _assemble_block_naive(frames)
            lp[np.ix_(indices, indices)] = block
    return lp


def signature_stats(bars: Sequence[RectBar]) -> Dict[str, float]:
    """Dedup accounting for a bar set (no kernel evaluations performed).

    Returns the same-axis pair count of the upper triangle, the number
    of bitwise-unique canonical signatures, and their ratio -- the
    evaluation-count reduction the dedup assembly achieves before the
    memo cache is even consulted.
    """
    if not bars:
        raise GeometryError("need at least one bar")
    total = 0
    unique_total = 0
    for indices in _group_by_axis(bars).values():
        frames = np.array([_bar_to_x_frame(bars[i]) for i in indices])
        _, _, signatures = _pair_signatures(frames)
        total += signatures.shape[0]
        unique_total += _unique_rows(signatures)[0].shape[0]
    return {
        "pairs": float(total),
        "unique_signatures": float(unique_total),
        "dedup_factor": total / unique_total if unique_total else 1.0,
    }


# ----------------------------------------------------------------------
# factor-once frequency sweeps
# ----------------------------------------------------------------------
class ImpedanceFactorization:
    """Factor-once representation of ``Z(w) = diag(R) + j*w*Lp``.

    Diagonalizes the symmetric matrix ``R^{-1/2} Lp R^{-1/2}`` once
    (O(n^3)), after which a solve against ``Z(w)`` at *any* frequency
    costs two dense mat-vecs and a diagonal scale (O(n^2) per right-hand
    side):

        ``Z(w)^{-1} b = U diag(1 / (1 + j*w*tau)) U^T b``

    with ``U = R^{-1/2} V``.  The eigenvalues ``tau`` are the modal L/R
    time constants of the filament system; they are non-negative for any
    physical (positive semi-definite) Lp, so ``1 + j*w*tau`` never
    vanishes and the factored solve is unconditionally stable.

    Parameters
    ----------
    resistances:
        Positive filament resistances [ohm] (the diagonal of R).
    lp:
        Symmetric filament partial-inductance matrix [H].  A tiny
        asymmetry from assembly is symmetrized away.
    """

    def __init__(self, resistances: np.ndarray, lp: np.ndarray):
        r = np.asarray(resistances, dtype=float).reshape(-1)
        lp = np.asarray(lp, dtype=float)
        if lp.ndim != 2 or lp.shape[0] != lp.shape[1]:
            raise SolverError(f"Lp must be square, got shape {lp.shape}")
        if r.shape[0] != lp.shape[0]:
            raise SolverError(
                f"{r.shape[0]} resistances for a {lp.shape[0]}-filament Lp"
            )
        if not np.all(r > 0.0):
            raise SolverError("filament resistances must be positive")
        self.resistances = r
        root_inv = 1.0 / np.sqrt(r)
        symmetric = root_inv[:, None] * (0.5 * (lp + lp.T)) * root_inv[None, :]
        try:
            with span("peec.factorize", n=int(r.shape[0])):
                tau, vectors = np.linalg.eigh(symmetric)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on
            # symmetric input converges in practice
            raise SolverError(f"impedance factorization failed: {exc}") from exc
        #: Modal L/R time constants [s], ascending.
        self.tau = tau
        #: ``U = R^{-1/2} V``: maps modal to filament coordinates.
        self.u = root_inv[:, None] * vectors

    @property
    def n(self) -> int:
        """Number of filaments."""
        return self.resistances.shape[0]

    def modal_scale(self, omega: float) -> np.ndarray:
        """``1 / (1 + j*omega*tau)`` -- the modal admittance weights."""
        if omega < 0.0:
            raise SolverError("angular frequency must be non-negative")
        return 1.0 / (1.0 + 1j * omega * self.tau)

    def solve(self, omega: float, rhs: np.ndarray) -> np.ndarray:
        """``Z(omega)^{-1} rhs`` for a vector or (n, k) stack of RHS."""
        b = np.asarray(rhs)
        if b.shape[0] != self.n:
            raise SolverError(
                f"rhs has leading dimension {b.shape[0]}, expected {self.n}"
            )
        scale = self.modal_scale(omega)
        projected = self.u.T @ b
        if b.ndim == 1:
            return self.u @ (scale * projected)
        return self.u @ (scale[:, None] * projected)

    def reduced_admittance(self, omega: float, p: np.ndarray) -> np.ndarray:
        """``P^T Z(omega)^{-1} P`` without forming ``Z^{-1}`` (Schur step)."""
        projected = np.asarray(p).T @ self.u  # (k, n)
        scale = self.modal_scale(omega)
        return (projected * scale[None, :]) @ projected.T
