"""Seeded inputs and CLI jobs of the benchmark workloads.

Each workload turns a seed into input files (written with ``repr`` so the
program parses exactly the floats the generator holds) and the argument
list of one ``msclust`` job. The generator keeps its own copy of the data
and the planted labels, which the verifier uses in place of anything the
program reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cluster-blobs",
            "Default user path: fastermsc, k=20, 10 random restarts on 640 "
            "points in 20 2-D blobs. Sparse scan (near fraction about 0.13) "
            "and many eager cache updates.",
            {"n": 640, "k": 20, "grid": [5, 4], "jitter": 0.15, "sigma": 0.18,
             "argv": ["cluster", "--algorithm", "fastermsc", "--k", "20"]},
        ),
        Workload(
            "steepest-uniform",
            "Steepest descent (fastmsc) from BUILD, 4 passes, on 1600 points "
            "uniform in 5 discs: dense scan (near fraction about 0.47), few "
            "swaps; the only BUILD, full silhouette and plot export.",
            {"n": 1600, "k": 5, "disc_gap": 0.2,
             "argv": ["cluster", "--algorithm", "fastmsc", "--k", "5",
                      "--init", "build", "--restarts", "1", "--max-iter", "4",
                      "--asw"]},
        ),
        Workload(
            "sweep-matrix",
            "The only dynmsc path (warm starts, medoid removal) and the only "
            "large CSV parse: a 450x450 Manhattan matrix of 12 planted 8-D "
            "blobs, swept over k=2..20.",
            {"n": 450, "k": 12, "dim": 8, "scale": 5.0, "sigma": 1.0,
             "argv": ["sweep", "--kind", "matrix", "--k-min", "2",
                      "--k-max", "20"]},
        ),
    )
}


@dataclass
class Inputs:
    """One workload's generated data and the job that consumes it."""

    kind: str              # "points" or "matrix"
    data: np.ndarray       # the points, or the dissimilarity matrix
    planted: np.ndarray    # planted cluster label of every point
    argv: list             # msclust arguments, without the output option
    input_path: str
    plot_path: str | None = None


def _blob_grid(rng, p):
    nx, ny = p["grid"]
    gx, gy = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
    centres = np.c_[gx.ravel(), gy.ravel()]
    centres += rng.uniform(-p["jitter"], p["jitter"], centres.shape)
    labels = rng.permutation(np.arange(p["n"]) % p["k"])
    points = centres[labels] + rng.normal(0.0, p["sigma"], (p["n"], 2))
    return points, labels


def _uniform_discs(rng, p):
    # unit discs on a regular polygon, neighbours disc_gap apart
    k = p["k"]
    angle = 2 * np.pi * np.arange(k) / k
    radius = (2 + p["disc_gap"]) / (2 * np.sin(np.pi / k))
    centres = radius * np.c_[np.cos(angle), np.sin(angle)]
    labels = rng.permutation(np.arange(p["n"]) % k)
    r = np.sqrt(rng.random(p["n"]))
    t = 2 * np.pi * rng.random(p["n"])
    return centres[labels] + np.c_[r * np.cos(t), r * np.sin(t)], labels


def _axis_centres(rng, p):
    # k of the 2*dim points +-scale*e_i: every pair is 2*scale apart in
    # Manhattan distance, so seeds differ in noise, not in geometry
    vertices = np.vstack([np.eye(p["dim"]), -np.eye(p["dim"])]) * p["scale"]
    return vertices[rng.choice(len(vertices), p["k"], replace=False)]


def manhattan(points: np.ndarray) -> np.ndarray:
    """Exactly symmetric Manhattan matrix with a zero diagonal."""
    n = len(points)
    out = np.zeros((n, n))
    for d in range(points.shape[1]):
        out += np.abs(points[:, None, d] - points[None, :, d])
    return out


def write_csv(path: str, rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def generate(name: str, seed: int, part: int, workdir: str) -> Inputs:
    """Write input number `part` of the workload for this seed into workdir."""
    p = WORKLOADS[name].params
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name), part])
    path = os.path.join(workdir, "input.csv")
    argv = list(p["argv"])
    plot_path = None
    if name == "sweep-matrix":
        centres = _axis_centres(rng, p)
        planted = rng.permutation(np.arange(p["n"]) % p["k"])
        points = centres[planted] + rng.normal(0.0, p["sigma"], (p["n"], p["dim"]))
        data, kind = manhattan(points), "matrix"
    else:
        make = _blob_grid if name == "cluster-blobs" else _uniform_discs
        data, planted = make(rng, p)
        kind = "points"
        if name == "steepest-uniform":
            plot_path = os.path.join(workdir, "plot.csv")
            argv += ["--plot-data", plot_path]
    write_csv(path, data)
    argv[1:1] = ["--input", path]
    return Inputs(kind, data, planted, argv, path, plot_path)
