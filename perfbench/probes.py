"""Where the traced run wraps the package, and how spans become metrics.

Layers are relaysim's modules plus ``linalg`` (numpy's Hermitian
eigensolvers, where the closed form spends its time). ``validate`` is the
correctness oracle and ``errors`` does no work, so neither is traced.

Every public function and public method defined in a layer module is
wrapped, at every relaysim module attribute that holds it: ``from x import
f`` gives the importing module its own name for f, and callers look f up
there. Properties are left alone.
"""

import inspect
import statistics
import sys
from multiprocessing.reduction import ForkingPickler

from tracer import ROOT, layer_of, self_times

LAYERS = ("correlation", "channel", "quantizer", "estimation", "config",
          "analysis", "link", "cli", "linalg")
PACKAGE_LAYERS = LAYERS[:-1]

# name -> (what, span names); "calls" counts spans, "time" sums their
# durations (children included)
_EIGH = ("linalg.eigh", "linalg.eigh[complex]")
FUNCTION_METRICS = {
    "linalg.eigh_calls": ("calls", _EIGH),
    "linalg.eigh_complex_calls": ("calls", ("linalg.eigh[complex]",)),
    "linalg.eigh_s": ("time", _EIGH),
    "config.scenario_models_calls": ("calls", ("config.scenario_models",)),
    "link.run_trial_calls": ("calls", ("link.run_trial",)),
    "link.run_trial_s": ("time", ("link.run_trial",)),
    "link.prepare_s": ("time", ("link.prepare",)),
    "link.trial_outcomes_s": ("time", ("link.trial_outcomes",)),
    "channel.complex_normal_calls": ("calls", ("channel.complex_normal",)),
    "channel.complex_normal_s": ("time", ("channel.complex_normal",)),
    "channel.substream_calls": ("calls", ("channel.substream",)),
    "channel.substream_s": ("time", ("channel.substream",)),
    "channel.draw_s": ("time", ("channel.draw_first_hop", "channel.draw_second_hop")),
    "quantizer.aqnm_quantize_calls": ("calls", ("quantizer.aqnm_quantize",)),
    "quantizer.aqnm_quantize_s": ("time", ("quantizer.aqnm_quantize",)),
    "estimation.simulate_pilot_s": ("time", ("estimation.simulate_pilot_first_hop",
                                             "estimation.simulate_pilot_second_hop")),
    "cli.write_csv_s": ("time", ("cli.write_csv",)),
}
PICKLE_BYTES = "link.pickle_bytes"


def _unit(name):
    if name == PICKLE_BYTES:
        return "bytes-computed"     # pickled size of what the pool is handed
    if name.endswith(("_calls", ".calls", ".errors")):
        return "count"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "s"


def per_layer_names():
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s", f"{layer}.errors"]
    names += list(FUNCTION_METRICS) + [PICKLE_BYTES, "other.self_s", "trace.wall_s",
                                       "trace.overhead_ratio"]
    return names


PER_LAYER = {name: _unit(name) for name in per_layer_names()}
COUNT_METRICS = tuple(n for n, u in PER_LAYER.items() if u in ("count", "bytes-computed"))


def _public_callables(module):
    """(owner, attribute, span suffix) for the module's own public functions
    and public methods of its own classes."""
    found = []
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            found.append((value, attr))
        elif inspect.isclass(value):
            for meth, raw in vars(value).items():
                if meth.startswith("_"):
                    continue
                if inspect.isfunction(raw) or isinstance(raw, classmethod):
                    found.append(((value, meth), f"{attr}.{meth}"))
    return found


def install(tracer, counters):
    """Wrap the package and numpy.linalg; counters["pickle_bytes"] collects
    the pickled size of every task handed to a process pool by ``link``."""
    import numpy.linalg
    modules = {name: sys.modules[f"relaysim.{name}"] for name in PACKAGE_LAYERS}
    package = [m for name, m in sys.modules.items()
               if name == "relaysim" or name.startswith("relaysim.")]
    for layer, module in modules.items():
        for target, suffix in _public_callables(module):
            span = f"{layer}.{suffix}"
            if isinstance(target, tuple):
                tracer.patch(target[0], target[1], span)
                continue
            for holder in package:
                for attr, value in list(vars(holder).items()):
                    if value is target:
                        tracer.patch(holder, attr, span)

    def eigh_name(args):
        dtype = getattr(args[0], "dtype", None) if args else None
        return "linalg.eigh[complex]" if dtype is not None and dtype.kind == "c" else "linalg.eigh"

    tracer.patch(numpy.linalg, "eigh", eigh_name)
    tracer.patch(numpy.linalg, "eigvalsh", "linalg.eigvalsh")

    link = modules["link"]
    pool_class = getattr(link, "ProcessPoolExecutor", None)
    if pool_class is not None:
        class CountingPool(pool_class):
            def submit(self, fn, /, *args, **kwargs):
                # every block of a pool is handed the same prepared scenario,
                # so its size is taken once per pool and counted per block
                with tracer.span("bench.pickle"):
                    head, rest = (args[0], args[1:]) if args else (None, args)
                    sizes = self.__dict__.setdefault("_pickled_sizes", {})
                    if id(head) not in sizes:
                        sizes[id(head)] = len(ForkingPickler.dumps(head))
                    counters["pickle_bytes"] += (sizes[id(head)]
                                                 + len(ForkingPickler.dumps((fn, rest, kwargs))))
                return super().submit(fn, *args, **kwargs)
        tracer.replace(link, "ProcessPoolExecutor", CountingPool)


def pass_metrics(spans, pickle_bytes):
    """Per-layer metrics of one traced pass whose spans all sit under one
    root span (the pass itself, which is not a layer)."""
    own = self_times(spans)
    raised_child = set()
    for _, _, _, parent, raised in spans:
        if raised and parent != ROOT:
            raised_child.add(parent)
    wall = sum(end - start for _, start, end, parent, _ in spans if parent == ROOT)
    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    by_name = {}
    other_ns = 0
    for index, (name, start, end, _, raised) in enumerate(spans):
        layer = layer_of(name)
        count, total = by_name.get(name, (0, 0))
        by_name[name] = (count + 1, total + end - start)
        if layer not in calls:
            other_ns += own[index]
            continue
        calls[layer] += 1
        self_ns[layer] += own[index]
        if raised and index not in raised_child:    # count where it started
            errors[layer] += 1
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
        metrics[f"{layer}.errors"] = errors[layer]
    for metric, (what, names) in FUNCTION_METRICS.items():
        pairs = [by_name.get(n, (0, 0)) for n in names]
        metrics[metric] = (sum(c for c, _ in pairs) if what == "calls"
                           else sum(t for _, t in pairs) / 1e9)
    metrics[PICKLE_BYTES] = pickle_bytes
    metrics["other.self_s"] = other_ns / 1e9
    metrics["trace.wall_s"] = wall / 1e9
    return metrics


def combine(per_pass, untraced_walls):
    """Median over traced passes; counts must agree between passes, and the
    returned flag says whether they did."""
    combined = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        combined[name] = statistics.median(p[name] for p in per_pass)
    combined["trace.overhead_ratio"] = (combined["trace.wall_s"]
                                        / statistics.median(untraced_walls))
    counts = {name: per_pass[0][name] for name in COUNT_METRICS}
    repeat = all(p[name] == counts[name] for p in per_pass for name in COUNT_METRICS)
    return combined, counts, repeat
