"""Per-layer attribution of a cProfile run.

Every profiled function is bucketed by its source file into one of the
repo's layers.  Time spent in C builtins and in the standard library has
no layer of its own: it is handed to the layer that called it, through
the profiler's caller->callee edges (each edge carries the callee's self
time *for that caller*), following chains of foreign callers until a
layer function is reached.  So the layers partition the profiled total,
which ``trace.layer_sum_ratio`` verifies.

Per layer: ``self_s`` (time busy), ``calls`` (calls of the layer's own
functions -- exact for a seed), ``calls_in`` (those calls that entered
from another layer -- exact).
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Optional

LAYERS = (
    "sim",
    "net",
    "net.wire",
    "storage",
    "core",
    "server.execution",
    "server.commit",
    "server.propagation",
    "server.recovery",
    "server.other",
    "client",
    "config_service",
    "apps",
    "obs",
    "spec",
    "driver",
)

#: First match wins; paths are relative to ``src/repro/``.
_RULES = (
    ("net/wire.py", "net.wire"),
    ("server/execution.py", "server.execution"),
    ("server/fast_commit.py", "server.commit"),
    ("server/slow_commit.py", "server.commit"),
    ("server/propagation.py", "server.propagation"),
    ("server/recovery.py", "server.recovery"),
    ("server/", "server.other"),
    ("deployment.py", "server.other"),
    ("sim/", "sim"),
    ("net/", "net"),
    ("storage/", "storage"),
    ("core/", "core"),
    ("errors.py", "core"),
    ("client/", "client"),
    ("config_service/", "config_service"),
    ("apps/", "apps"),
    ("obs/", "obs"),
    ("spec/", "spec"),
    ("chaos/", "spec"),
    ("protocols/", "spec"),
)

_HERE = os.path.dirname(os.path.abspath(__file__))
_PACKAGE = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(code) -> Optional[str]:
    """Layer of a profiler entry's code, or None for builtins/stdlib."""
    if isinstance(code, str):
        return None  # C builtin
    filename = code.co_filename
    if _PACKAGE in filename:
        relative = filename.split(_PACKAGE, 1)[1].replace(os.sep, "/")
        for prefix, layer in _RULES:
            if relative.startswith(prefix):
                return layer
        return "server.other"
    if filename.startswith(_HERE):
        return "driver"
    return None


def _label(code) -> str:
    if isinstance(code, str):
        return code
    return "%s:%d(%s)" % (os.path.basename(code.co_filename), code.co_firstlineno, code.co_name)


def bucket(stats, top: int = 10) -> dict:
    """``stats`` is ``cProfile.Profile.getstats()``."""
    layer = {entry.code: layer_of(entry.code) for entry in stats}
    # callee -> [(caller, edge self time, edge total time, edge calls)]
    callers = defaultdict(list)
    for entry in stats:
        for edge in entry.calls or ():
            callers[edge.code].append(
                (entry.code, edge.inlinetime, edge.totaltime, edge.callcount)
            )

    # Who pays for a foreign function: a distribution over layers, each
    # caller weighted by the total time its edge carries, resolved
    # through foreign callers until a layer function is reached.
    share: Dict[object, Dict[str, float]] = {}

    def payers(code) -> Dict[str, float]:
        if layer.get(code) is not None:
            return {layer[code]: 1.0}
        if code not in share:
            # Provisional answer: guards call cycles, and stays for an
            # entry nobody called (the profiler's own disable()).
            share[code] = {"driver": 1.0}
            edges = callers.get(code, ())
            total = sum(edge_total for _c, _s, edge_total, _n in edges)
            if total > 0:
                weights: Dict[str, float] = defaultdict(float)
                for caller, _s, edge_total, _n in edges:
                    for name, part in payers(caller).items():
                        weights[name] += edge_total / total * part
                share[code] = dict(weights)
        return share[code]

    def payer(code) -> str:
        owners = payers(code)
        return max(sorted(owners), key=owners.get)

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    calls_in = dict.fromkeys(LAYERS, 0)
    functions = defaultdict(list)
    profiled_total = 0.0
    for entry in stats:
        profiled_total += entry.inlinetime
        edges = callers.get(entry.code, ())
        own = layer[entry.code]
        if own is not None:
            self_s[own] += entry.inlinetime
            calls[own] += entry.callcount
            within = sum(n for caller, _s, _t, n in edges if payer(caller) == own)
            calls_in[own] += max(0, entry.callcount - within)
        else:
            carried = 0.0
            for caller, edge_self, _t, _n in edges:
                carried += edge_self
                for name, part in payers(caller).items():
                    self_s[name] += edge_self * part
            # Self time no edge carries (a top-level builtin) is ours.
            self_s["driver"] += entry.inlinetime - carried
            own = payer(entry.code)
        functions[own].append((entry.inlinetime, entry.callcount, _label(entry.code)))

    table = {}
    for name in LAYERS:
        table[name] = {
            "self_s": self_s[name],
            "calls": calls[name],
            "calls_in": calls_in[name],
            "top": [
                {"self_s": t, "calls": n, "function": label}
                for t, n, label in sorted(functions[name], reverse=True)[:top]
            ],
        }
    return {
        "profiled_total_s": profiled_total,
        "layer_sum_ratio": sum(self_s.values()) / profiled_total if profiled_total else 0.0,
        "layers": table,
    }
