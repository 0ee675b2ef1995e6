"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package and prints a
single PASS/FAIL line so the suite doubles as a human-readable report:

  1. the incremental optimizer matches the naive steepest-descent swap
     search on tie-free random data
  2. the O(1) swap delta matches a full-recompute oracle
  3. the per-candidate accumulator decomposition matches summed deltas
  4. local search ascends monotonically and stops at a swap-local optimum
  5. the quality measure satisfies scale, consistency, richness, and
     relabeling invariance checks
  6. local search recovers exhaustive optima on small instances
  7. automatic cluster-count selection finds planted blob structure and
     stays near independently restarted per-k quality
  8. the warm-started sweep does fewer swaps than independent runs
  9. the incremental optimizer's advantage over the naive search grows
     with k
 10. the eager first-descent variant keeps near-parity quality
 11. external validation indices behave correctly under permutation and
     on random labelings
"""

import time
from itertools import combinations
from math import comb

import numpy as np
import pytest

from msclust import (
    ams,
    ari,
    dynmsc,
    fastermsc,
    fastmsc,
    init_random,
    nmi,
    pammedsil,
)
from msclust.fastmsc import (
    candidate_totals,
    find_best_swap,
    make_state,
    update_caches_after_swap,
)
from msclust.oracle import (
    axiom_suite,
    exhaustive_best_medoids,
    recompute_delta,
    record,
    swap_delta,
)

from helpers import blob_matrix, uniform_instance


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}", flush=True)
    assert ok, f"{name}{suffix}"


class TestAcceptance:
    def test_01_equivalence_with_naive_swap_search(self):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        mismatches = 0
        for trial in range(50):
            n = int(rng.integers(15, 70))
            k = int(rng.integers(2, 7))
            mat = uniform_instance(n, seed=3000 + trial)
            m0 = init_random(n, k, seed=trial)
            fast = fastmsc(mat, m0)
            naive = pammedsil(mat, m0)
            same_set = sorted(fast.medoids.tolist()) == sorted(naive.medoids.tolist())
            same_ams = abs(fast.ams - naive.ams) <= 1e-9
            if not (same_set and same_ams):
                mismatches += 1
        elapsed = time.perf_counter() - started
        report(
            "fastmsc equals pammedsil on 50 random instances",
            mismatches == 0 and elapsed < 60.0,
            f"mismatches={mismatches}, seconds={elapsed:.1f}",
        )

    def test_02_swap_delta_matches_recompute_oracle(self):
        rng = np.random.default_rng(202)
        checked = 0
        worst = 0.0
        while checked < 10_000:
            n = int(rng.integers(12, 40))
            k = int(rng.integers(2, 6))
            mat = uniform_instance(n, seed=4000 + checked)
            medoids = init_random(n, k, seed=checked)
            state = make_state(mat, medoids)
            medoid_set = set(medoids.tolist())
            non_medoids = [j for j in range(n) if j not in medoid_set]
            for _ in range(50):
                i = int(rng.integers(k))
                j = int(rng.choice(non_medoids))
                total = sum(
                    swap_delta(record(state.cache, o), i, mat[o, j])
                    for o in range(n)
                )
                err = abs(total - recompute_delta(mat, medoids, i, j))
                worst = max(worst, err)
                checked += 1
        report(
            "swap delta matches full recompute on 10000 swaps",
            worst <= 1e-9,
            f"checked={checked}, worst_error={worst:.2e}",
        )

    def test_03_candidate_accumulator_decomposition(self):
        rng = np.random.default_rng(303)
        worst = 0.0
        for trial in range(10):
            n = int(rng.integers(15, 45))
            k = int(rng.integers(2, 7))
            mat = uniform_instance(n, seed=5000 + trial)
            medoids = init_random(n, k, seed=trial)
            state = make_state(mat, medoids)
            medoid_set = set(medoids.tolist())
            for j in range(n):
                if j in medoid_set:
                    continue
                acc, shared = candidate_totals(state, j)
                for i in range(k):
                    direct = sum(
                        swap_delta(record(state.cache, o), i, mat[o, j])
                        for o in range(n)
                    )
                    worst = max(worst, abs(acc[i] + shared - direct))
        report(
            "accumulator decomposition matches summed deltas on 10 instances",
            worst <= 1e-9,
            f"worst_error={worst:.2e}",
        )

    def test_04_monotone_ascent_and_local_optimality(self):
        ok = True
        for trial in range(8):
            n = 40
            k = 4
            mat = uniform_instance(n, seed=6000 + trial)
            state = make_state(mat, init_random(n, k, seed=trial))
            prev = state.ams_sum
            while True:
                cand = find_best_swap(state)
                if cand is None:
                    break
                if cand[2] <= 0:
                    ok = False
                update_caches_after_swap(state, *cand[:2])
                if state.ams_sum < prev:
                    ok = False
                prev = state.ams_sum
            final = ams(mat, state.medoids)
            medoid_set = set(state.medoids.tolist())
            for i in range(k):
                for j in range(n):
                    if j in medoid_set:
                        continue
                    trial_set = state.medoids.copy()
                    trial_set[i] = j
                    if ams(mat, trial_set) > final + 1e-9:
                        ok = False
            faster = fastermsc(mat, init_random(n, k, seed=trial))
            fstate = make_state(mat, faster.medoids)
            if find_best_swap(fstate) is not None:
                ok = False
        report("monotone ascent and swap-local optimality on 8 instances", ok)

    def test_05_quality_measure_axioms(self):
        rng = np.random.default_rng(505)
        failures = 0
        for trial in range(100):
            n = int(rng.integers(8, 30))
            k = int(rng.integers(2, min(5, n - 2)))
            mat = uniform_instance(n, seed=7000 + trial)
            medoids = init_random(n, k, seed=trial)
            rep = axiom_suite(mat, medoids, seed=trial)
            if not rep.passed:
                failures += 1
        report(
            "scale, consistency, richness, relabeling checks over 100 trials",
            failures == 0,
            f"failures={failures}",
        )

    def test_06_recovers_exhaustive_optima(self):
        rng = np.random.default_rng(606)
        exact = 0
        trials = 20
        never_below = True
        for trial in range(trials):
            n = int(rng.integers(14, 24))
            k = int(rng.integers(2, 5))
            if comb(n, k) > 10_000:
                k = 2
            mat = uniform_instance(n, seed=8000 + trial)
            _, opt = exhaustive_best_medoids(mat, k)
            best = max(
                fastermsc(mat, init_random(n, k, seed=10 * trial + r)).ams
                for r in range(10)
            )
            if abs(best - opt) <= 1e-9:
                exact += 1
            if best < 0.95 * opt:
                never_below = False
        report(
            "best-of-10 restarts versus exhaustive optimum on 20 instances",
            exact >= 0.8 * trials and never_below,
            f"exact={exact}/{trials}",
        )

    def test_07_dynmsc_finds_planted_blobs(self):
        hits = 0
        worst_gap = 0.0
        for seed in range(10):
            mat = blob_matrix(seed=seed)
            sweep = dynmsc(mat, k_max=10, seed=seed)
            if sweep.best_k == 4:
                hits += 1
            for k, kr in sweep.per_k.items():
                rerun = fastermsc(mat, init_random(len(mat), k, seed=1000 * seed + 13 * k))
                worst_gap = max(worst_gap, rerun.ams - kr.ams)
        report(
            "planted 4-blob data: selected k and per-k quality over 10 seeds",
            hits >= 8 and worst_gap <= 0.02,
            f"hits={hits}/10, worst_gap={worst_gap:.4f}",
        )

    def test_08_warm_started_sweep_saves_swaps(self):
        ok = True
        for seed in range(3):
            mat = blob_matrix(seed=seed)
            sweep = dynmsc(mat, k_max=10, seed=seed)
            independent = sum(
                fastermsc(mat, init_random(len(mat), k, seed=seed)).swaps
                for k in range(2, 11)
            )
            if sweep.best.swaps >= independent:
                ok = False
        report("warm-started sweep uses fewer swaps than independent runs", ok)

    def test_09_speedup_grows_with_k(self):
        n = 1000
        mat = uniform_instance(n, seed=909)
        ratios = {}
        started = time.perf_counter()
        for k in (5, 20):
            m0 = init_random(n, k, seed=0)
            t0 = time.perf_counter()
            fastmsc(mat, m0)
            t_fast = time.perf_counter() - t0
            t0 = time.perf_counter()
            pammedsil(mat, m0)
            t_naive = time.perf_counter() - t0
            ratios[k] = t_naive / t_fast
        elapsed = time.perf_counter() - started
        report(
            "naive/incremental runtime ratio grows with k at n=1000",
            ratios[20] >= 4 * ratios[5] and elapsed < 600,
            f"ratio_k5={ratios[5]:.1f}, ratio_k20={ratios[20]:.1f}, "
            f"seconds={elapsed:.0f}",
        )

    def test_10_eager_variant_quality_parity(self):
        total_fast = 0.0
        total_faster = 0.0
        for trial in range(30):
            n = 60
            k = 5
            mat = uniform_instance(n, seed=10_000 + trial)
            m0 = init_random(n, k, seed=trial)
            total_fast += fastmsc(mat, m0).ams
            total_faster += fastermsc(mat, m0).ams
        report(
            "eager first-descent keeps at least 99 percent of mean quality",
            total_faster >= 0.99 * total_fast,
            f"mean_fast={total_fast / 30:.4f}, mean_faster={total_faster / 30:.4f}",
        )

    def test_11_external_indices_behave(self):
        ok = ari([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
        ok = ok and nmi([0, 0, 1, 1], [3, 3, 4, 4]) == pytest.approx(1.0)
        ok = ok and abs(nmi([0, 0, 1, 1], [0, 1, 0, 1])) <= 1e-12

        rng = np.random.default_rng(1111)
        for _ in range(1000):
            n = 50
            a = rng.integers(0, 4, n)
            b = rng.integers(0, 3, n)
            perm = rng.permutation(n)
            if abs(ari(a[perm], b[perm]) - ari(a, b)) > 1e-12:
                ok = False
            if abs(nmi(a[perm], b[perm]) - nmi(a, b)) > 1e-12:
                ok = False

        total = 0.0
        for _ in range(1000):
            a = rng.integers(0, 4, 200)
            b = rng.integers(0, 4, 200)
            total += ari(a, b)
        mean_random = total / 1000
        ok = ok and abs(mean_random) < 0.05
        report(
            "ARI/NMI permutation invariance and chance correction",
            ok,
            f"mean_random_ari={mean_random:+.4f}",
        )
