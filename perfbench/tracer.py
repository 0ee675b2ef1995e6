"""Traced msclust job: times the calls into each layer from outside it.

    python3 perfbench/tracer.py TRACE.json <msclust arguments>

runs ``msclust.cli.main`` with every hooked function wrapped at each
name its callers look it up by, and writes the spans and counters to
TRACE.json. Nothing inside the package changes. Spans are kept in memory
and written once, when the job ends.

A span's self time is its duration minus the time of the spans it
called; self times are summed per layer, the module that defines the
wrapped function. Time spent computing counters is kept apart in
``trace.counter_s`` so it lands in no layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

LAYERS = ("cli", "core", "fastmsc", "dynmsc", "silhouette")


@dataclass(frozen=True)
class Hook:
    span: str        # span name, the prefix of its metrics
    module: str      # module that defines the function: the span's layer
    attr: str
    lookups: tuple   # modules, or "module.DICT", whose entry callers use


def _near_pairs(tr, state, j, *_):
    tr.count("fastmsc.near_pairs", int((state.matrix[j] < state.cache.d3).sum()))
    tr.count("fastmsc.scanned_points", len(state.matrix))
    tr.count("fastmsc.candidates", 1)


def _update_points(tr, state, *_):
    tr.count("fastmsc.update_points", len(state.matrix))


def _rescanned(counter):
    def before(tr, state, idx):
        tr.count(counter, len(idx))
    return before


def _tokens(tr, _, rows):
    tr.count("core.tokens_parsed", sum(len(r) for r in rows))


def _result_work(tr, _, result):
    tr.count("fastmsc.swaps", result.swaps)
    tr.count("fastmsc.iterations", result.iterations)


def _state_work_before(tr, state, *_):
    return state.swaps, state.iterations, state


def _state_work_after(tr, token, _):
    swaps, iterations, state = token
    tr.count("fastmsc.swaps", state.swaps - swaps)
    tr.count("fastmsc.iterations", state.iterations - iterations)


def _best_k(tr, _, sweep):
    tr.count("dynmsc.best_k", sweep.best_k)


CLI, CORE, FAST, DYN, SIL = (f"msclust.{m}" for m in LAYERS)

HOOKS = (
    Hook("core.load_points_csv", CORE, "load_points_csv", (CLI,)),
    Hook("core.load_matrix_csv", CORE, "load_matrix_csv", (CLI,)),
    Hook("core.parse_csv", CORE, "_parse_csv_rows", (CORE,)),
    Hook("core.build_matrix", CORE, "build_matrix", (CLI,)),
    Hook("core.init_build", CORE, "init_build", (CLI,)),
    Hook("core.init_random", CORE, "init_random", (CLI, DYN)),
    # dynmsc imports nearest_three_all from core inside the function
    Hook("core.nearest_three_all", CORE, "nearest_three_all", (CLI, FAST, CORE, SIL)),
    Hook("fastmsc.fastmsc", FAST, "fastmsc", (CLI, CLI + ".ALGORITHMS")),
    Hook("fastmsc.fastermsc", FAST, "fastermsc", (CLI, CLI + ".ALGORITHMS")),
    Hook("fastmsc.make_state", FAST, "make_state", (FAST, DYN)),
    Hook("fastmsc.find_best_swap", FAST, "find_best_swap", (FAST,)),
    Hook("fastmsc.candidate_totals", FAST, "candidate_totals", (FAST,)),
    Hook("fastmsc.update_caches", FAST, "update_caches_after_swap", (FAST,)),
    Hook("fastmsc.rescan", FAST, "_rescan", (FAST,)),
    Hook("dynmsc.dynmsc", DYN, "dynmsc", (CLI,)),
    Hook("dynmsc.per_k_optimise", FAST, "_fastermsc_state", (DYN,)),
    Hook("dynmsc.remove_medoid", DYN, "remove_medoid", (DYN,)),
    Hook("dynmsc.rescan", FAST, "_rescan", (DYN,)),
    Hook("silhouette.silhouette", SIL, "silhouette", (CLI,)),
    Hook("silhouette.medoid_silhouette", SIL, "medoid_silhouette", (CLI,)),
    Hook("silhouette.plot_data", SIL, "silhouette_plot_data", (CLI,)),
    Hook("silhouette.plot_data", SIL, "plot_data_csv", (CLI,)),
)

BEFORE = {
    "fastmsc.candidate_totals": _near_pairs,
    "fastmsc.update_caches": _update_points,
    "fastmsc.rescan": _rescanned("fastmsc.rescan_points"),
    "dynmsc.rescan": _rescanned("dynmsc.rescan_points"),
    "dynmsc.per_k_optimise": _state_work_before,
}
AFTER = {
    "core.parse_csv": _tokens,
    "fastmsc.fastmsc": _result_work,
    "fastmsc.fastermsc": _result_work,
    "dynmsc.per_k_optimise": _state_work_after,
    "dynmsc.dynmsc": _best_k,
}


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.counters: dict[str, float] = {}
        self.counter_s = 0.0
        self._stack = [[0.0]]              # child time of each open span

    def count(self, name: str, value) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def _overhead(self, seconds: float) -> None:
        self.counter_s += seconds
        self._stack[-1][0] += seconds

    def wrap(self, span: str, layer: str, fn):
        stats = self.spans.setdefault(span, [0, 0.0, 0.0])
        before, after = BEFORE.get(span), AFTER.get(span)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = None
            if before:
                t = clock()
                token = before(self, *args, **kwargs)
                self._overhead(clock() - t)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                self.layer_self[layer] += dt - frame[0]
            if after:
                t = clock()
                after(self, token, result)
                self._overhead(clock() - t)
            return result

        return traced

    def install(self, hooks=HOOKS) -> list[str]:
        """Wrap every hook at each of its lookups. Returns the spans that
        could not be installed completely (a target that no longer
        exists, or a caller that no longer looks the name up there)."""
        missing, targets = [], []
        for hook in hooks:  # resolve every target before replacing any
            try:
                targets.append((hook, getattr(importlib.import_module(hook.module), hook.attr)))
            except (ImportError, AttributeError):
                missing.append(hook.span)
        for hook, fn in targets:
            wrapped = self.wrap(hook.span, hook.module.rsplit(".", 1)[1], fn)
            for lookup in hook.lookups:
                ns = _namespace(lookup)
                if ns is None or ns.get(hook.attr) is not fn:
                    missing.append(hook.span)
                else:
                    ns[hook.attr] = wrapped
        return sorted(set(missing))


def _namespace(lookup: str):
    """Globals of a module, or a dict held by a module ("pkg.mod.DICT")."""
    try:
        return vars(importlib.import_module(lookup))
    except ImportError:
        module, name = lookup.rsplit(".", 1)
        try:
            value = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            return None
        return value if isinstance(value, dict) else None


# metric -> (spans it needs, how it is computed from the trace)
def _total(span):
    return (span,), lambda t: t["spans"][span][1]


def _calls(span):
    return (span,), lambda t: t["spans"][span][0]


def _counter(name, *spans):
    return spans, lambda t: t["counters"].get(name, 0)


def _ratio(num, den, *spans):
    def f(t):
        c = t["counters"]
        return c.get(num, 0) / c[den] if c.get(den) else 0.0
    return spans, f


def _layer_self(layer):
    return (), lambda t: t["layer_self"][layer]


METRICS = {
    "cli.import_s": ((), lambda t: t["import_s"]),
    "cli.self_s": _layer_self("cli"),
    "core.self_s": _layer_self("core"),
    "core.load_points_csv_s": _total("core.load_points_csv"),
    "core.load_matrix_csv_s": _total("core.load_matrix_csv"),
    "core.tokens_parsed": _counter("core.tokens_parsed", "core.parse_csv"),
    "core.build_matrix_s": _total("core.build_matrix"),
    "core.init_build_s": _total("core.init_build"),
    "core.init_random_s": _total("core.init_random"),
    "fastmsc.self_s": _layer_self("fastmsc"),
    "fastmsc.candidate_totals_s": _total("fastmsc.candidate_totals"),
    "fastmsc.candidate_totals_calls": _calls("fastmsc.candidate_totals"),
    "fastmsc.near_pairs": _counter("fastmsc.near_pairs", "fastmsc.candidate_totals"),
    "fastmsc.near_frac": _ratio("fastmsc.near_pairs", "fastmsc.scanned_points",
                                "fastmsc.candidate_totals"),
    "fastmsc.find_best_swap_s": _total("fastmsc.find_best_swap"),
    "fastmsc.update_caches_s": _total("fastmsc.update_caches"),
    "fastmsc.update_calls": _calls("fastmsc.update_caches"),
    "fastmsc.rescan_points": _counter("fastmsc.rescan_points", "fastmsc.rescan"),
    "fastmsc.rescan_frac": _ratio("fastmsc.rescan_points", "fastmsc.update_points",
                                  "fastmsc.rescan", "fastmsc.update_caches"),
    "fastmsc.make_state_s": _total("fastmsc.make_state"),
    "fastmsc.swaps": _counter("fastmsc.swaps", "fastmsc.fastmsc",
                              "fastmsc.fastermsc", "dynmsc.per_k_optimise"),
    "fastmsc.iterations": _counter("fastmsc.iterations", "fastmsc.fastmsc",
                                   "fastmsc.fastermsc", "dynmsc.per_k_optimise"),
    "fastmsc.swap_yield": _ratio("fastmsc.swaps", "fastmsc.candidates", "fastmsc.fastmsc",
                                 "fastmsc.fastermsc", "dynmsc.per_k_optimise",
                                 "fastmsc.candidate_totals"),
    "dynmsc.self_s": _layer_self("dynmsc"),
    "dynmsc.remove_medoid_s": _total("dynmsc.remove_medoid"),
    "dynmsc.remove_medoid_calls": _calls("dynmsc.remove_medoid"),
    "dynmsc.rescan_points": _counter("dynmsc.rescan_points", "dynmsc.rescan"),
    "dynmsc.per_k_optimise_s": _total("dynmsc.per_k_optimise"),
    "dynmsc.best_k": _counter("dynmsc.best_k", "dynmsc.dynmsc"),
    "silhouette.self_s": _layer_self("silhouette"),
    "silhouette.silhouette_s": _total("silhouette.silhouette"),
    "silhouette.medoid_silhouette_s": _total("silhouette.medoid_silhouette"),
    "silhouette.plot_data_s": _total("silhouette.plot_data"),
    "trace.counter_s": ((), lambda t: t["counter_s"]),
}


def metrics(trace: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced job, and the names left out
    because a span they need could not be installed."""
    out, absent = {}, []
    for name, (needs, f) in METRICS.items():
        if set(needs) & set(trace["missing"]):
            absent.append(name)
        else:
            out[name] = float(f(trace))
    return out, absent


def main(argv: list[str]) -> int:
    trace_path, args = argv[0], argv[1:]
    t = time.perf_counter()
    cli = importlib.import_module(CLI)
    import_s = time.perf_counter() - t
    tracer = Tracer()
    missing = tracer.install()
    code = tracer.wrap("cli.main", "cli", cli.main)(args)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "missing": missing,
                   "spans": tracer.spans, "layer_self": tracer.layer_self,
                   "counters": tracer.counters, "counter_s": tracer.counter_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
