"""Attribute cProfile self-time and call counts to simulator layers.

Layers are named after the modules: one per ``src/repro`` subpackage,
with ``core`` split into its five datapath modules.  ``other`` is the
rest of ``repro`` (packages no workload should spend time in),
``stdlib`` is builtins plus non-``repro`` Python, ``bench`` is the
ledger's own callbacks.

cProfile charges a fixed cost to every call and nothing to work inside
native code, so call-heavy layers read larger than they are: the shares
rank layers and locate a saving, they do not size it.
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent
REPRO = HERE.parents[1] / "src" / "repro"

#: ``src/repro/<package>`` -> layer.  Every subpackage must appear: the
#: smoke test fails on a new package that nobody decided a layer for.
LAYER_OF_PACKAGE = {
    "sim": "sim", "net": "net", "aqm": "aqm", "wireless": "wireless",
    "traces": "traces", "transport": "transport", "cca": "cca",
    "app": "app", "metrics": "metrics", "topology": "topology",
    "experiments": "experiments", "campaign": "campaign", "city": "city",
    "obs": "obs",
    "baselines": "other", "control": "other", "faults": "other",
}
CORE_MODULES = ("fortune_teller", "sliding_window", "feedback_updater",
                "inband", "zhuge_ap")
LAYERS = (["sim", "net", "aqm", "wireless", "traces", "transport", "cca"]
          + [f"core.{module}" for module in CORE_MODULES]
          + ["app", "metrics", "topology", "experiments", "campaign", "city",
             "obs", "other", "stdlib", "bench"])


def layer_of_file(filename: str) -> str:
    path = Path(filename)
    if HERE in path.parents:
        return "bench"
    if REPRO not in path.parents:
        return "stdlib"
    parts = path.relative_to(REPRO).parts
    if parts[0] == "core":
        module = path.stem
        return f"core.{module}" if module in CORE_MODULES else "other"
    return LAYER_OF_PACKAGE.get(parts[0], "other")


def layer_metrics(profile, packets: int) -> dict:
    """``<layer>.self_s|calls|self_us_per_pkt`` from a finished profile."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    by_file: dict = {}
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):       # a builtin
            layer = "stdlib"
        else:
            layer = by_file.get(code.co_filename)
            if layer is None:
                layer = by_file[code.co_filename] = layer_of_file(
                    code.co_filename)
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_us_per_pkt"] = self_s[layer] / packets * 1e6
    return metrics
