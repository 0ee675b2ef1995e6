"""Checks of one msclust job's output against the generator's own data.

Plain numpy only: nothing here imports msclust, so a defect in the
program cannot hide by also being in its checker. Every check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json

import numpy as np

AMS_TOL = 1e-12
ASW_TOL = 1e-9  # the full silhouette sums n terms in another order
BLOCK = 500     # rows of the distance matrix the full silhouette holds at once


def medoid_distances(inputs, medoids) -> np.ndarray:
    """n x k distances from every point to each medoid, computed the way
    a Euclidean points file or a given matrix defines them."""
    medoids = np.asarray(medoids, dtype=int)
    if inputs.kind == "matrix":
        return inputs.data[:, medoids]
    diff = inputs.data[:, None, :] - inputs.data[None, medoids, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def medoid_silhouettes(dist: np.ndarray) -> np.ndarray:
    """Per-point 1 - d1/d2 from n x k medoid distances (1 where d2 = 0)."""
    two = np.sort(dist, axis=1)[:, :2]
    d1, d2 = two[:, 0], two[:, 1]
    return np.where(d2 > 0, 1.0 - d1 / np.where(d2 > 0, d2, 1.0), 1.0)


def full_silhouette(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean full silhouette of a labelling of Euclidean points, computed
    in row blocks so the n x n matrix is never held at once."""
    _, idx = np.unique(labels, return_inverse=True)
    onehot = np.eye(idx.max() + 1)[idx]
    counts = onehot.sum(axis=0)
    sums = np.empty((len(points), len(counts)))
    for lo in range(0, len(points), BLOCK):
        diff = points[lo:lo + BLOCK, None, :] - points[None, :, :]
        sums[lo:lo + BLOCK] = np.sqrt((diff ** 2).sum(axis=2)) @ onehot
    rows = np.arange(len(points))
    own = counts[idx]
    a = np.where(own > 1, sums[rows, idx] / np.maximum(own - 1, 1), 0.0)
    means = sums / counts
    means[rows, idx] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    s = np.where(denom > 0, (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
    return float(np.where(own == 1, 0.0, s).mean())


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand Index of two labellings."""
    _, a = np.unique(labels_a, return_inverse=True)
    _, b = np.unique(labels_b, return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1)

    def pairs(x):
        return float((x * (x - 1) / 2).sum())

    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([len(a)]))
    top = (rows + cols) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


def _check_medoids(medoids, k: int, n: int) -> list[str]:
    m = np.asarray(medoids)
    if m.shape != (k,) or len(set(m.tolist())) != k or m.min() < 0 or m.max() >= n:
        return [f"medoids {medoids!r} are not {k} distinct indices below {n}"]
    return []


def _check_ams(reported, sil: np.ndarray, what: str) -> list[str]:
    expected = float(sil.mean())
    if not abs(reported - expected) <= AMS_TOL:
        return [f"{what}: reported ams {reported!r} != recomputed {expected!r}"]
    return []


def check_process(returncode: int, stderr: str) -> list[str]:
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    return problems


def check_cluster(inputs, payload: dict, plot_text: str | None) -> list[str]:
    n = len(inputs.data)
    k = int(inputs.argv[inputs.argv.index("--k") + 1])
    problems = _check_medoids(payload["medoids"], k, n)
    if problems:
        return problems
    dist = medoid_distances(inputs, payload["medoids"])
    labels = np.asarray(payload["labels"])
    if labels.shape != (n,) or not np.array_equal(labels, np.argmin(dist, axis=1)):
        problems.append("labels are not the nearest medoid (lowest position on ties)")
    sil = medoid_silhouettes(dist)
    problems += _check_ams(payload["ams"], sil, "cluster")
    if "--asw" in inputs.argv and not problems:
        expected = full_silhouette(inputs.data, labels)
        if not abs(payload.get("asw", np.nan) - expected) <= ASW_TOL:
            problems.append(f"asw {payload.get('asw')!r} != recomputed {expected!r}")
    if inputs.plot_path and not problems:
        problems += check_plot(plot_text, labels, sil)
    return problems


def check_plot(text: str | None, labels: np.ndarray, sil: np.ndarray) -> list[str]:
    """Silhouette-plot rows: one per point, grouped by label ascending,
    widths descending within a label, each width the point's medoid
    silhouette."""
    lines = (text or "").splitlines()
    if not lines or lines[0] != "label,point,width":
        return ["plot data has no label,point,width header"]
    try:
        rows = [(int(a), int(b), float(c)) for a, b, c in
                (line.split(",") for line in lines[1:])]
    except ValueError:
        return ["plot data row is malformed"]
    points = [r[1] for r in rows]
    if sorted(points) != list(range(len(labels))):
        return ["plot data does not list every point once"]
    if rows != sorted(rows, key=lambda r: (r[0], -r[2], r[1])):
        return ["plot data is not ordered by label, then width descending"]
    lab = np.array([r[0] for r in rows])
    width = np.array([r[2] for r in rows])
    if not np.array_equal(lab, labels[points]):
        return ["plot data labels differ from the reported labels"]
    if not np.all(np.abs(width - sil[points]) <= AMS_TOL):
        return ["plot data widths differ from the medoid silhouettes"]
    return []


def check_sweep(inputs, payload: dict) -> list[str]:
    n = len(inputs.data)
    argv = inputs.argv
    k_min = int(argv[argv.index("--k-min") + 1])
    k_max = int(argv[argv.index("--k-max") + 1])
    per_k = payload["per_k"]
    if [r["k"] for r in per_k] != list(range(k_min, k_max + 1)):
        return [f"sweep covers k={[r['k'] for r in per_k]}, not {k_min}..{k_max}"]
    problems = []
    best_k = k_min
    by_k = {}
    for r in per_k:
        bad = _check_medoids(r["medoids"], r["k"], n)
        if not bad:
            bad = _check_ams(r["ams"], medoid_silhouettes(
                medoid_distances(inputs, r["medoids"])), f"k={r['k']}")
        problems += bad
        by_k[r["k"]] = r["ams"]
        if r["ams"] > by_k[best_k]:
            best_k = r["k"]
    if payload["best_k"] != best_k:
        problems.append(f"best_k {payload['best_k']} is not the argmax {best_k}")
    return problems


def verify(inputs, returncode: int, stderr: str, output: str,
           plot_text: str | None = None) -> tuple[list[str], dict]:
    """All checks of one job. Returns (problems, quality), where quality
    holds the reported ams and the ARI of the returned (or, for a sweep,
    best-k nearest-medoid) labels against the planted labels."""
    problems = check_process(returncode, stderr)
    if problems:
        return problems, {}
    try:
        payload = json.loads(output)
        if inputs.argv[0] == "sweep":
            problems = check_sweep(inputs, payload)
            best = next(r for r in payload["per_k"] if r["k"] == payload["best_k"])
            ams = best["ams"]
            labels = np.argmin(medoid_distances(inputs, best["medoids"]), axis=1)
        else:
            problems = check_cluster(inputs, payload, plot_text)
            ams, labels = payload["ams"], payload["labels"]
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return [f"malformed output: {exc!r}"], {}
    if problems:
        return problems, {}
    return [], {"ams": float(ams), "ari": ari(labels, inputs.planted)}
