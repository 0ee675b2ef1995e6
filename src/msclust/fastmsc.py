"""Incremental Medoid Silhouette optimization.

The key pieces:

* ``OptimizerState``: the medoids, the ``is_medoid`` mask that both scans
  read and every swap or removal updates, and the neighbor cache, on a
  matrix that the public caller has passed through ``check_matrix``.
  ``make_state`` alone allocates its arrays, and every later operation
  writes them in place. Every ``_rescan`` (after a swap or a removal) ends
  in ``_refresh_derived``, which alone derives the removal losses (the
  change in the silhouette sum if a medoid were deleted), or in the C
  ``rescan`` of ``_scan.c``, which derives them with the same bits.
  ``ams_sum`` sums 1 - r12, which is ``medoid_widths`` over the cache, as
  ``silhouette.medoid_result`` does. ``make_state`` also fixes which path
  scores the state for its whole life: C where ``core.compiled`` gave the
  library and the matrix is C-ordered float64, else numpy.
* ``block_totals``: the scan kernel. For a block of candidates it
  combines the removal losses, the shared gain of adding each candidate,
  and correction terms for points whose nearest or second-nearest
  medoid is replaced, in whole-array passes over the (candidate, point)
  pairs with d(o, j) < d3(o), in the cheapest numpy calls that give the
  same bits: an eager block or swap pays more for its 40-odd calls than
  for its arithmetic. A block holds at most ``core.SCAN_BUDGET``
  = 2**15 distances, so each of its temporaries is at most 256 KiB
  whatever n is. Together they exceed glibc's trim threshold (128 KiB,
  or twice the largest freed mmapped chunk once it adapts), so the heap
  a block frees would go back to the system and be faulted in again by
  the next block; ``cli.main`` raises both thresholds at start. On a C
  state a loop of ``_scan.c`` that allocates only its output computes the
  same bits, and the numpy body is its fallback and its reference.
* ``find_best_swap``: one O((n-k) n) pass, then one argmax. A fork and
  its pickle cost 4-5 ms, so ``workers`` split only a pass from
  2 * ``SHARE_DISTANCES`` distances (n near 1,450). Numpy scores a share
  in blocks; on a C state one ``best_swap`` call of ``_scan.c`` scores the
  share and returns its first best swap, and the first best over the
  shares in order is the pass's.
* ``_swap_if_sum_rises``: a scored swap is kept and counted only if the
  fresh ``ams_sum`` rises by more than ``EPS_GAIN`` (pammedsil's rule),
  else it is swapped back. The scan totals round differently, and from n
  near 2000 a swap for an exact duplicate (true gain 0) can score above
  ``EPS_GAIN``; keeping it would cycle.
* ``fastmsc``: steepest descent, each swap one ``update_caches_after_swap``
  call; identical to the naive pammedsil under the shared tie-breaks.
* ``fastermsc``: eager first-descent variant that applies every
  improving swap immediately while cycling over candidates, in blocks
  that give the swap sequence of scoring one candidate at a time
  (``_fastermsc_state``); on a C state ``eager_next`` of ``_scan.c`` runs
  the block loop and makes no block temporaries.

All delta values are gains in the unnormalized silhouette sum; division
by n happens only at reporting boundaries. The scalar per-point delta
they sum is ``msclust.oracle.swap_delta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_MAX_ITER,
    EPS_GAIN,
    ClusteringResult,
    NeighborCache,
    block_rows,
    check_integers,
    check_matrix,
    check_medoids,
    compiled,
    nearest_three_all,
    safe_ratio_arr,
    top3,
)
from .pool import run_shares
from .silhouette import medoid_result

SHARE_DISTANCES = 2**20
# the distances that eager_next scores before it returns, so that Python sees
# an interrupt within milliseconds
EAGER_DISTANCES = 2**22
# the fields of eager_next's state vector that Python reads or sets, and its
# return codes, as _scan.c numbers them
PASSES, CAP, KEPT, POSITION, CANDIDATE, SCORED = 6, 8, 10, 11, 12, 13
CONVERGED, OUT_OF_PASSES, IMPROVES, ONE_CANDIDATE, PAUSED = range(5)


@dataclass
class OptimizerState:
    """Mutable per-run state: medoids, neighbor cache and what is derived
    from the cache."""

    matrix: np.ndarray
    medoids: np.ndarray
    is_medoid: np.ndarray  # is_medoid[o] iff o is in medoids
    cache: NeighborCache
    # derived from the cache: per-medoid removal losses, and per-point ratio
    # vectors shared by every candidate scan of an iteration
    removal_loss: np.ndarray = field(repr=False)
    r12: np.ndarray = field(repr=False)
    r13: np.ndarray = field(repr=False)
    r23: np.ndarray = field(repr=False)
    work: np.ndarray = field(repr=False)  # 2 k + 1 doubles for the C rescan and best_swap
    idx: np.ndarray = field(repr=False)  # n intp for the near points of a C-scored row
    addresses: tuple | None = field(repr=False)  # see make_state
    swaps: int = 0
    iterations: int = 0

    @property
    def k(self) -> int:
        return len(self.medoids)

    @property
    def ams_sum(self) -> float:
        """Unnormalized silhouette sum of the current medoids: medoid_widths
        summed over the cache, from the r12 that every rescan refreshes."""
        return float((1.0 - self.r12).sum())


def make_state(matrix: np.ndarray, medoids) -> OptimizerState:
    """Build a consistent OptimizerState on a matrix check_matrix has passed.

    Only here are the state's arrays allocated, C-ordered in the dtypes
    that _scan.c reads; every later operation writes them in place. So
    the table for C is taken once: (the library of core.compiled; n1, n2,
    matrix, d1, d2, d3, r12, r13, r23 and removal_loss in block_totals'
    order; medoids; work; is_medoid; idx). It is None, and numpy scores the
    state for its whole life, where the library did not load or the
    matrix is not C-ordered float64 (a Fortran-ordered or strided view).
    """
    medoids = check_medoids(medoids, len(matrix))
    n, k = len(matrix), len(medoids)
    is_medoid = np.zeros(n, dtype=bool)
    is_medoid[medoids] = True
    c = nearest_three_all(matrix, medoids)
    removal_loss, work = np.empty(k), np.empty(2 * k + 1)
    r12, r13, r23 = np.empty(n), np.empty(n), np.empty(n)
    idx = np.empty(n, dtype=np.intp)
    library, addresses = compiled(), None
    if library is not None and matrix.dtype == np.float64 and matrix.flags.c_contiguous:
        scan = (c.n1, c.n2, matrix, c.d1, c.d2, c.d3, r12, r13, r23, removal_loss)
        addresses = (library, tuple(a.ctypes.data for a in scan), medoids.ctypes.data,
                     work.ctypes.data, is_medoid.ctypes.data, idx.ctypes.data)
    state = OptimizerState(matrix, medoids, is_medoid, c, removal_loss, r12, r13, r23, work,
                           idx, addresses)
    _refresh_derived(state)
    return state


def _refresh_derived(state: OptimizerState) -> None:
    c = state.cache
    safe_ratio_arr(c.d1, c.d2, out=state.r12)
    safe_ratio_arr(c.d2, c.d3, out=state.r23)
    safe_ratio_arr(c.d1, c.d3, out=state.r13)
    np.add(np.bincount(c.n1, weights=state.r12 - state.r23, minlength=state.k),
           np.bincount(c.n2, weights=state.r12 - state.r13, minlength=state.k),
           out=state.removal_loss)


def block_totals(state: OptimizerState, J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Accumulated swap gains for replacing each medoid with each
    candidate in J.

    Returns (acc[len(J), k], shared[len(J)]): per-medoid accumulators
    seeded with the removal losses plus correction terms, and the shared
    addition gain. The total gain for swapping position i for J[r] is
    acc[r, i] + shared[r], and equals the sum of swap_delta over all
    points. Only pairs with d(o, j) < d3(o) contribute; the rest are in
    the far-far case, whose delta is zero.

    The block_totals of _scan.c returns the same bits. It runs on a state
    with a table for C, where J is a C-ordered intp vector in range;
    otherwise the numpy body below runs, which is also the reference that
    the tests hold it to.
    """
    c = state.cache
    n = len(state.matrix)
    m, k = len(J), state.k
    if _compiled_reads(state, J):
        out = np.empty(m * k + m + k)
        library, scan, *_, idx = state.addresses
        library.block_totals(n, m, k, J.ctypes.data, *scan, idx, out.ctypes.data)
        return out[:m * k].reshape(m, k), out[m * k:m * k + m]
    rows = state.matrix[J]
    # flat indices of the near pairs, row-major: candidate r, point p
    flat = (rows < c.d3).ravel().nonzero()[0]
    r, p = np.divmod(flat, n)

    dv = rows.take(flat)
    d1 = c.d1.take(p)
    d2 = c.d2.take(p)
    r12 = state.r12.take(p)
    # inner: the candidate beats the second nearest (dv < d1 or d1 <= dv < d2);
    # otherwise d2 <= dv < d3. In every case d(o, j) and d1 meet in the
    # ratio min/max, which is dv/d1 if dv < d1 and d1/dv otherwise.
    inner = dv < d2
    r1v = safe_ratio_arr(np.minimum(dv, d1), np.maximum(dv, d1))
    lost = safe_ratio_arr(np.where(inner, d1 + dv, d2), np.where(inner, d2, dv))
    # inner * x is np.where(inner, x, 0.0) but for a zero's sign, lost in a sum
    cn1 = (inner * r1v + state.r23.take(p)) - lost
    cn2 = state.r13.take(p) - np.where(inner, r12, r1v)

    shared = np.bincount(r, weights=inner * (r12 - r1v), minlength=m)
    rk = r * k
    acc = state.removal_loss + np.bincount(rk + c.n1.take(p), weights=cn1,
                                           minlength=m * k).reshape(m, k)
    acc += np.bincount(rk + c.n2.take(p), weights=cn2, minlength=m * k).reshape(m, k)
    return acc, shared


def _kernel_reads(a: np.ndarray) -> bool:
    """Whether a is a C-ordered intp vector, as C reads J and idx."""
    return a.dtype == np.intp and a.ndim == 1 and a.flags.c_contiguous


def _compiled_reads(state: OptimizerState, J: np.ndarray) -> bool:
    """Whether C scores the candidates J: the state has a table for C, and J
    is a C-ordered intp vector of rows in range."""
    return (state.addresses is not None and _kernel_reads(J)
            and (len(J) == 0 or 0 <= J.min() <= J.max() < len(state.matrix)))


def candidate_totals(state: OptimizerState, j: int) -> tuple[np.ndarray, float]:
    """block_totals for the single candidate j: (acc[k], shared)."""
    acc, shared = block_totals(state, np.array([j]))
    return acc[0], float(shared[0])


def _best_positions(state: OptimizerState, J: np.ndarray) -> tuple[np.ndarray, ...]:
    """(positions, candidates, totals): each candidate in J with its best
    medoid position (the first argmax; the shared gain is constant across
    positions) and its total gain. Where C scores more than one candidate,
    only the first best of J, the one np.argmax over the totals picks,
    from one best_swap call of _scan.c."""
    if len(J) == 1:
        # the one-row entry point, so per-candidate instrumentation of
        # candidate_totals still sees single-candidate scans
        acc, shared = candidate_totals(state, int(J[0]))
        acc, shared = acc[None], np.array([shared])
    elif _compiled_reads(state, J):
        library, scan, _, work, _, idx = state.addresses
        k = state.k
        r, i = divmod(library.best_swap(len(state.matrix), len(J), k, J.ctypes.data, *scan,
                                        idx, work), k)
        return np.array([i]), J[r:r + 1], np.array([state.work[2 * k]])
    else:
        acc, shared = block_totals(state, J)
    pos = acc.argmax(axis=1)
    return pos, J, acc[np.arange(len(J)), pos] + shared


def find_best_swap(state: OptimizerState, workers: int = 1) -> tuple[int, int, float] | None:
    """Best strictly-improving swap over all non-medoid candidates, as
    (medoid position, candidate, gain), or None when no candidate gains
    more than the improvement epsilon.

    For each candidate the best medoid position is the argmax of the
    per-medoid accumulators (the shared addition gain is constant across
    positions); ties break toward the lower position, and the earliest
    candidate wins among equal totals. A candidate's total does not depend
    on its block, so min(workers, (n-k) n // SHARE_DISTANCES) shares agree.
    Numpy scores a share in blocks of block_rows(n) candidates, and C in
    one block, whose first best it alone returns: np.argmax over the
    shares' bests in order picks the first best of the pass either way.
    """
    candidates = (~state.is_medoid).nonzero()[0]
    n = len(state.matrix)
    width = block_rows(n) if state.addresses is None else len(candidates)
    count = min(workers, candidates.size * n // SHARE_DISTANCES)
    blocks = run_shares(lambda share: [_best_positions(state, share[s:s + width])
                                       for s in range(0, len(share), width)],
                        candidates, count)
    pos, cand, totals = (np.concatenate(col) for col in zip(*blocks))
    b = int(np.argmax(totals))
    if totals[b] <= EPS_GAIN:
        return None
    return int(pos[b]), int(cand[b]), float(totals[b])


def update_caches_after_swap(state: OptimizerState, position: int, replacement: int) -> None:
    """Swap medoids[position] for replacement and refresh the neighbor
    cache; the caller counts a swap it keeps.

    A point rescans the full medoid set iff the replaced or the new
    medoid is within its d3 (a replaced nearest or second nearest was at
    d1 or d2 <= d3); the rest keep their records.
    """
    d3 = state.cache.d3
    near = np.minimum(state.matrix[state.medoids[position]], state.matrix[replacement]) <= d3
    state.is_medoid[state.medoids[position]] = False
    state.is_medoid[replacement] = True
    state.medoids[position] = replacement
    _rescan(state, near.nonzero()[0])


def _swap_if_sum_rises(state: OptimizerState, position: int, replacement: int,
                       before: float) -> float | None:
    """Apply the swap; if the new ams_sum exceeds before, the current sum,
    by more than EPS_GAIN, count it and return the new sum. Otherwise swap
    back, which restores the cache bit for bit, and return None."""
    old = int(state.medoids[position])
    update_caches_after_swap(state, position, replacement)
    after = state.ams_sum
    if after - before > EPS_GAIN:
        state.swaps += 1
        return after
    update_caches_after_swap(state, position, old)
    return None


def _rescan(state: OptimizerState, idx: np.ndarray) -> None:
    """Recompute the neighbor records of the points in idx, then what is
    derived from the cache: by rescan of _scan.c on a state with a table
    for C, else with numpy, in place and in the same bits."""
    if state.addresses is not None and _kernel_reads(idx):
        library, scan, medoids, work, _, _ = state.addresses
        if library.rescan(len(state.matrix), state.k, len(idx), idx.ctypes.data, *scan,
                          medoids, work) == 0:
            return
    t = top3(state.matrix[idx[:, None], state.medoids])
    c = state.cache
    c.n1[idx], c.n2[idx], c.d1[idx], c.d2[idx], c.d3[idx] = t.n1, t.n2, t.d1, t.d2, t.d3
    _refresh_derived(state)


def _result(state: OptimizerState, converged: bool) -> ClusteringResult:
    return medoid_result(state.cache, state.medoids, state.swaps, state.iterations, converged)


def fastmsc(matrix, medoids, max_iter: int = DEFAULT_MAX_ITER,
            workers: int = 1) -> ClusteringResult:
    """Steepest-descent AMS optimization with incremental swap gains.

    Applies find_best_swap's swap until no strictly-improving swap
    remains, or until that swap does not raise the fresh sum. From the
    same starting medoids it returns the identical medoid set and AMS as
    pammedsil, also when workers > 1 processes score a large pass.
    """
    check_integers(max_iter=max_iter, workers=workers)
    state = make_state(check_matrix(matrix), medoids)
    current = state.ams_sum
    converged = False
    for _ in range(max_iter):
        state.iterations += 1
        cand = find_best_swap(state, workers)
        if cand is not None:
            current = _swap_if_sum_rises(state, cand[0], cand[1], current)
        if cand is None or current is None:
            converged = True
            break
    return _result(state, converged)


def fastermsc(matrix, medoids, max_iter: int = DEFAULT_MAX_ITER) -> ClusteringResult:
    """Eager first-descent AMS optimization.

    Cycles over candidates in index order (wrapping) and immediately
    applies any swap whose best per-medoid total is strictly positive;
    terminates when a full cycle returns to the last-swapped candidate
    without an improvement. max_iter counts full passes over the data;
    max_iter <= 0 makes none.
    """
    check_integers(max_iter=max_iter)
    state = make_state(check_matrix(matrix), medoids)
    converged = _fastermsc_state(state, max_iter)
    return _result(state, converged)


def _fastermsc_state(state: OptimizerState, max_iter: int) -> bool:
    """Run eager swapping on an existing (warm) state. Returns True on
    convergence, False when the pass budget ran out.

    Positions are scanned in blocks [j, stop) that end where scanning
    one candidate at a time would check something: at the end of a full
    cycle since the last swap (back at the swapped candidate) or since
    the start, and at the end of a pass, before the next pass checks the
    budget. The improving candidates of a block are tried in order, and
    the first whose swap raises the fresh sum is kept; scanning resumes
    after it. A rejected swap leaves the state as it was, so the block's
    later totals still hold. The first block is one candidate wide, a
    block after a swap cap // 8 rows (about SCAN_BUDGET / 8 distances),
    and each block without a swap doubles the width, up to cap rows.
    The resume width trades a block's fixed cost of some 40 numpy calls
    against the rows scored past the next swap, which are wasted.

    On a state with a table for C, _eager_compiled runs this loop in C,
    with the same blocks; the loop below is its fallback and its
    reference.
    """
    n = len(state.matrix)
    cap = block_rows(n)
    resume = max(1, cap // 8)
    # C counts passes in intp; no run makes 2**30 of them
    last_pass = state.iterations + min(max(max_iter, 0), 2**30)
    if state.addresses is not None:
        # eager_next's state vector, in _scan.c's order: j = n, stop,
        # visited = 0, width = 1, row = -1 (no block yet), rows, passes,
        # last_pass, cap, resume, kept, position, candidate, scored, budget
        return _eager_compiled(state, np.array(
            [n, 0, 0, 1, -1, 0, state.iterations, last_pass, cap, resume, 0, 0, 0, 0,
             EAGER_DISTANCES], dtype=np.intp))
    current = state.ams_sum
    j = n  # at the end of a pass: the first pass checks the budget too
    visited = 0  # positions visited since the last swap (or start)
    width = 1
    while True:
        if visited >= n:
            return True
        if j == n:
            if state.iterations >= last_pass:
                return False
            state.iterations += 1
            j = 0
        stop = min(j + width, n, j + n - visited)
        J = j + (~state.is_medoid[j:stop]).nonzero()[0]
        pos, _, totals = _best_positions(state, J)
        for h in (totals > EPS_GAIN).nonzero()[0]:
            after = _swap_if_sum_rises(state, int(pos[h]), int(J[h]), current)
            if after is not None:
                break
        else:
            width = min(2 * width, cap)
            visited += stop - j
            j = stop
            continue
        current = after
        width = resume
        visited = 1
        j = int(J[h]) + 1


def _eager_compiled(state: OptimizerState, machine: np.ndarray) -> bool:
    """_fastermsc_state's loop as eager_next of _scan.c, which resumes from
    the state vector machine and scores its blocks with the C block_totals.
    It returns here with a candidate whose total exceeds EPS_GAIN, which
    _swap_if_sum_rises keeps or undoes with the fresh sum; with a block of
    one candidate, which candidate_totals scores; after EAGER_DISTANCES
    distances, so that an interrupt is seen; and at the end of the run."""
    n, k, cap = len(state.matrix), state.k, int(machine[CAP])
    J = np.empty(2 * cap, dtype=np.intp)
    out = np.empty(cap * (k + 1) + k)
    buffers = machine.ctypes.data, J.ctypes.data, out.ctypes.data
    library, scan, _, _, is_medoid, idx = state.addresses
    current = state.ams_sum
    while True:
        code = library.eager_next(n, k, EPS_GAIN, *scan, is_medoid, idx, *buffers)
        state.iterations = int(machine[PASSES])
        if code in (CONVERGED, OUT_OF_PASSES):
            return code == CONVERGED
        if code == ONE_CANDIDATE:
            pos, _, totals = _best_positions(state, J[:1])
            if not totals[0] > EPS_GAIN:
                continue
            position = pos[0]
        elif code == IMPROVES:
            position = machine[POSITION]
        else:  # PAUSED
            continue
        after = _swap_if_sum_rises(state, int(position), int(machine[CANDIDATE]), current)
        if after is not None:
            current = after
            machine[KEPT] = 1
