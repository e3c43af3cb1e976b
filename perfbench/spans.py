"""Span recording around the package's layer functions, from outside.

``install`` replaces each target function with a wrapper that records a
span (name, start, end, parent index, attribute).  A caller that
imported the function by name holds its own reference, so the wrapper
is bound under every name, in every loaded ``tasalamouti`` module, that
refers to the original: ``sweeps`` imports ``outage_quadrature`` by
name, while ``eps_outage_capacity`` reaches ``outage_breakdown`` through
``closedform``'s globals, and both see the wrapper.

Spans stay in memory; ``layer_metrics`` reduces them once, at the end
of a job.  The recorder assumes one thread, which ``--workers 1``
guarantees.  A layer's self time is its span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (module, function, span name).  Several functions may share a span name.
TARGETS = (
    ("montecarlo", "draw_components", "montecarlo.draw"),
    ("montecarlo", "outage_events", "montecarlo.events"),
    ("_kernels", "snr_components", "kernels.select"),
    ("_kernels", "psi_terms", "kernels.psi"),
    ("closedform", "outage_breakdown", "closedform.outage"),
    ("closedform", "eps_outage_capacity", "closedform.bisect"),
    ("quadrature", "outage_quadrature", "quadrature"),
    ("sweeps", "run_preset", "sweeps"),
    ("sweeps", "run_sweep", "sweeps"),
    ("sweeps", "validate", "sweeps"),
    ("sweeps", "find_crossover", "sweeps"),
    ("sweeps", "write_rows_csv", "sweeps.csv"),
    ("sweeps", "write_validation_csv", "sweeps.csv"),
)

ROOT = "cli"

# Psi configurations (n_alice-n_bob-n_eve) whose per-call cost is reported.
PSI_CONFIGS = ("8-3-3", "6-3-3", "4-3-2", "2-1-1")


# Attribute of a span, from the bound call arguments and the result.
_ATTRIBUTES = {
    "draw_components": lambda a, r: (a["n_alice"], a["n_bob"], a["n_eve"], a["n_trials"], a["seed"]),
    "outage_events": lambda a, r: a["draws"].n_trials,
    "psi_terms": lambda a, r: f"{a['n_a']}-{a['n_b']}-{a['n_e']}",
    "run_sweep": lambda a, r: len(r),
    "validate": lambda a, r: len(r.rows),
    "find_crossover": lambda a, r: 1,
}


class Recorder:
    """Spans of one job: ``[name, start, end, parent, attribute]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, attribute=None):
        signature = inspect.signature(fn) if attribute is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if attribute is not None:
                record[4] = attribute(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper


def install(recorder: Recorder) -> list[str]:
    """Wrap every target; return the targets that do not exist (not traced)."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "tasalamouti" or name.startswith("tasalamouti."))]
    missing = []
    for module_name, function, span_name in TARGETS:
        original = getattr(sys.modules.get(f"tasalamouti.{module_name}"), function, None)
        if original is None:
            missing.append(f"{module_name}.{function}")
            continue
        wrapper = recorder.span(span_name, original, _ATTRIBUTES.get(function))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return missing


def layer_metrics(spans: list[list], wall_s: float, psi_cache) -> dict[str, float]:
    """Per-layer metrics of one traced job.

    Averages and ratios over a layer that made no calls are reported
    as 0.  ``psi_cache`` is the ``cache_info()`` of the closed form's
    psi cache, or None when the package has none.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    attrs: dict[str, list] = defaultdict(list)
    psi_ms: dict[str, list] = defaultdict(list)
    bisect_evals = 0
    for i, (name, start, end, parent, attr) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child[i]
        if attr is not None:
            attrs[name].append(attr)
        if name == "kernels.psi":
            psi_ms[attr].append((end - start) * 1e3)
        if name == "closedform.outage" and parent >= 0 and spans[parent][0] == "closedform.bisect":
            bisect_evals += 1

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    self_sum = sum(own.values())
    draws = attrs["montecarlo.draw"]
    return {
        "trace.wall_s": wall_s,
        "trace.self_sum_frac": per(self_sum, wall_s),
        "cli.self_s": own[ROOT],
        "sweeps.self_s": own["sweeps"],
        "sweeps.csv_s": total["sweeps.csv"],
        "sweeps.rows": sum(attrs["sweeps"]),
        "montecarlo.draw.calls": calls["montecarlo.draw"],
        "montecarlo.draw.distinct": len(set(draws)),
        "montecarlo.draw.reuse_ratio": per(len(set(draws)), len(draws)),
        "montecarlo.draw.trials": sum(key[3] for key in draws),
        "montecarlo.draw.self_s": own["montecarlo.draw"],
        "kernels.select.calls": calls["kernels.select"],
        "kernels.select.s": total["kernels.select"],
        "montecarlo.events.calls": calls["montecarlo.events"],
        "montecarlo.events.trials": sum(attrs["montecarlo.events"]),
        "montecarlo.events.s": total["montecarlo.events"],
        "kernels.psi.calls": calls["kernels.psi"],
        "kernels.psi.s": total["kernels.psi"],
        "kernels.psi.ms_per_call": per(total["kernels.psi"] * 1e3, calls["kernels.psi"]),
        **{f"kernels.psi.ms.{cfg}": per(sum(psi_ms[cfg]), len(psi_ms[cfg])) for cfg in PSI_CONFIGS},
        "closedform.outage.calls": calls["closedform.outage"],
        "closedform.outage.self_s": own["closedform.outage"],
        "closedform.psi_cache.hits": psi_cache.hits if psi_cache else 0,
        "closedform.psi_cache.misses": psi_cache.misses if psi_cache else calls["kernels.psi"],
        "closedform.bisect.calls": calls["closedform.bisect"],
        "closedform.bisect.s": total["closedform.bisect"],
        "closedform.bisect.evals_per_call": per(bisect_evals, calls["closedform.bisect"]),
        "quadrature.calls": calls["quadrature"],
        "quadrature.s": total["quadrature"],
        "quadrature.ms_per_call": per(total["quadrature"] * 1e3, calls["quadrature"]),
    }
