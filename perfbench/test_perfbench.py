"""Tests of the benchmark itself: generator, verifier, tracer, metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _digest(name, seed, tmp_path):
    d = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    d.mkdir()
    workloads.generate(name, seed, 0, str(d))
    return hashlib.sha256((d / "input.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    first = _digest(name, 7, tmp_path)
    assert _digest(name, 7, tmp_path) == first
    assert _digest(name, 8, tmp_path) != first
    d = tmp_path / "part1"
    d.mkdir()
    workloads.generate(name, 7, 1, str(d))
    assert hashlib.sha256((d / "input.csv").read_bytes()).hexdigest() != first


def test_generated_csv_parses_to_the_generators_data(tmp_path):
    inputs = workloads.generate("cluster-blobs", 3, 0, str(tmp_path))
    parsed = np.loadtxt(inputs.input_path, delimiter=",")
    assert np.array_equal(parsed, inputs.data)


def _small(kind, argv, n=40, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    planted = np.arange(n) % 3
    data = workloads.manhattan(points) if kind == "matrix" else points
    return workloads.Inputs(kind, data, planted, argv, "unused.csv")


def _cluster_payload(inputs, medoids):
    dist = verify.medoid_distances(inputs, medoids)
    return {"ams": float(verify.medoid_silhouettes(dist).mean()),
            "medoids": list(medoids), "labels": np.argmin(dist, axis=1).tolist()}


def _sweep_payload(inputs, k_min, k_max):
    per_k = []
    for k in range(k_min, k_max + 1):
        medoids = list(range(0, 3 * k, 3))
        sil = verify.medoid_silhouettes(verify.medoid_distances(inputs, medoids))
        per_k.append({"k": k, "ams": float(sil.mean()), "medoids": medoids})
    best = max(per_k, key=lambda r: (r["ams"], -r["k"]))
    return {"best_k": best["k"], "per_k": per_k}


CLUSTER = ["cluster", "--k", "3"]
SWEEP = ["sweep", "--kind", "matrix", "--k-min", "2", "--k-max", "5"]


def _problems(inputs, payload, code=0, stderr=""):
    return verify.verify(inputs, code, stderr, json.dumps(payload))[0]


def test_verifier_accepts_a_consistent_output():
    inputs = _small("points", CLUSTER)
    assert _problems(inputs, _cluster_payload(inputs, [0, 5, 9])) == []
    inputs = _small("matrix", SWEEP)
    assert _problems(inputs, _sweep_payload(inputs, 2, 5)) == []


def test_verifier_rejects_a_perturbed_ams():
    inputs = _small("points", CLUSTER)
    payload = _cluster_payload(inputs, [0, 5, 9])
    payload["ams"] += 1e-9
    assert _problems(inputs, payload)


def test_verifier_rejects_a_swapped_label():
    inputs = _small("points", CLUSTER)
    payload = _cluster_payload(inputs, [0, 5, 9])
    labels = payload["labels"]
    i = next(o for o in range(1, len(labels)) if labels[o] != labels[0])
    labels[0], labels[i] = labels[i], labels[0]
    assert _problems(inputs, payload)


def test_verifier_rejects_a_wrong_best_k():
    inputs = _small("matrix", SWEEP)
    payload = _sweep_payload(inputs, 2, 5)
    payload["best_k"] = 2 if payload["best_k"] != 2 else 3
    assert _problems(inputs, payload)


def test_verifier_rejects_a_failed_process():
    inputs = _small("points", CLUSTER)
    payload = _cluster_payload(inputs, [0, 5, 9])
    assert _problems(inputs, payload, code=1)
    assert _problems(inputs, payload, stderr="Traceback (most recent call last):\n")


def test_verifier_rejects_a_wrong_plot_width():
    inputs = _small("points", CLUSTER)
    payload = _cluster_payload(inputs, [0, 5, 9])
    labels = np.array(payload["labels"])
    sil = verify.medoid_silhouettes(verify.medoid_distances(inputs, [0, 5, 9]))
    rows = sorted(((int(labels[o]), o, float(sil[o])) for o in range(len(labels))),
                  key=lambda r: (r[0], -r[2], r[1]))
    text = "label,point,width\n" + "".join(f"{a},{b},{c!r}\n" for a, b, c in rows)
    assert verify.check_plot(text, labels, sil) == []
    assert verify.check_plot(text.replace(repr(rows[0][2]), repr(rows[0][2] + 1e-9), 1),
                             labels, sil)


def test_independent_checks_agree_with_msclust():
    msclust = pytest.importorskip("msclust")
    points = np.random.default_rng(1).random((300, 2))
    matrix = msclust.build_matrix(points)
    medoids = [3, 50, 120, 200]
    inputs = workloads.Inputs("points", points, np.zeros(300), CLUSTER, "unused.csv")
    # bitwise equal distances make the strict nearest-medoid check fair
    assert np.array_equal(verify.medoid_distances(inputs, medoids), matrix[:, medoids])
    labels = msclust.nearest_three_all(matrix, medoids).n1
    assert verify.full_silhouette(points, labels) == pytest.approx(
        msclust.silhouette(matrix, labels).mean, abs=verify.ASW_TOL)
    other = np.random.default_rng(2).integers(0, 4, 300)
    assert verify.ari(labels, other) == pytest.approx(msclust.ari(labels, other), abs=1e-12)


def _traced(tmp_path, argv):
    trace_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "tracer.py"), str(trace_path)]
                          + argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace_path.read_text())


def test_tracer_hooks_every_layer(tmp_path):
    path = tmp_path / "points.csv"
    workloads.write_csv(str(path), np.random.default_rng(0).random((60, 2)))
    trace = _traced(tmp_path, ["cluster", "--input", str(path), "--k", "3", "--restarts", "2",
                               "--asw", "--output", str(tmp_path / "out.json")])
    assert trace["missing"] == []
    values, absent = tracer.metrics(trace)
    assert absent == []
    assert values["fastmsc.candidate_totals_calls"] > 0
    assert values["core.tokens_parsed"] == 120
    assert values["silhouette.silhouette_s"] > 0
    assert sum(trace["layer_self"].values()) <= trace["spans"]["cli.main"][1]

    matrix = tmp_path / "matrix.csv"
    workloads.write_csv(str(matrix), workloads.manhattan(np.random.default_rng(0).random((40, 3))))
    trace = _traced(tmp_path, ["sweep", "--kind", "matrix", "--input", str(matrix),
                               "--k-max", "5", "--output", str(tmp_path / "out.json")])
    values, _ = tracer.metrics(trace)
    assert values["dynmsc.remove_medoid_calls"] == 3
    assert 2 <= values["dynmsc.best_k"] <= 5


def test_tracer_names_a_missing_target():
    pytest.importorskip("msclust")
    hooks = (tracer.Hook("gone.module", "msclust.no_such_module", "fn", ()),
             tracer.Hook("gone.dict", "msclust.core", "safe_ratio", ("msclust.cli.NO_DICT",)),
             tracer.Hook("gone.lookup", "msclust.core", "safe_ratio", ("msclust.cli",)))
    assert tracer.Tracer().install(hooks) == ["gone.dict", "gone.lookup", "gone.module"]
    spans = {h.span: [0, 0.0, 0.0] for h in tracer.HOOKS if h.span != "fastmsc.candidate_totals"}
    values, absent = tracer.metrics({"missing": ["fastmsc.candidate_totals"], "spans": spans,
                                     "counters": {}, "layer_self": dict.fromkeys(tracer.LAYERS, 0.0),
                                     "import_s": 0.0, "counter_s": 0.0})
    assert "fastmsc.near_pairs" in absent and "fastmsc.near_pairs" not in values


def test_every_input_weighs_the_same():
    ref = run.SPEED_REF_S

    def job(part, wall, rss, problems=()):
        return run.Job(wall, wall, rss, list(problems), {"ams": part, "ari": part},
                       part=part, speed_s=ref)

    # input 0 got three passing jobs, inputs 1 and 2 one each; a failed
    # job's time is not used
    jobs = [job(0, 1.0, 10), job(0, 1.1, 10), job(0, 1.2, 10), job(1, 3.0, 30),
            job(2, 4.0, 40), job(2, 0.1, 1, ["exit code 1"])]
    values = run.end_to_end(jobs, [(0.5, ref), (None, ref), (0.7, ref)])
    assert values["wall_s"] == 3.0   # over jobs, not inputs, it would be 1.2
    assert values["peak_rss_mb"] == 30
    assert values["ams"] == values["ari"] == 1
    assert values["setup_s"] == 0.6
    assert values["ok_frac"] == 5 / 6


def test_times_are_reported_at_the_reference_speed():
    ref = run.SPEED_REF_S
    # the host ran at half speed during the first job and the set-up
    # probe: the speed probes around them took twice their reference time
    jobs = [run.Job(2.0, 2.0, 10, [], {"ams": 0.5, "ari": 0.5}, speed_s=2 * ref),
            run.Job(1.0, 1.0, 10, [], {"ams": 0.5, "ari": 0.5}, speed_s=ref)]
    values = run.end_to_end(jobs, [(0.8, 2 * ref)])
    assert values["wall_s"] == pytest.approx(1.0)
    assert values["setup_s"] == pytest.approx(0.4)
    assert values["peak_rss_mb"] == 10


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    for name in e2e + layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    assert len(e2e) <= 16 and len(layer) <= 128
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    assert layer == list(tracer.METRICS) + ["trace.wall_s", "trace.accounted_frac",
                                            "trace.overhead_s"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert "setup_s" in e2e and all(m["bound"] <= 0.25 for m in spec["end_to_end"])
