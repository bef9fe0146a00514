"""Per-layer work counters and the per-layer metrics of the traced run.

The counters are read from the arguments and results of the spanned calls,
after each query, so they add no time to any span.  Every metric is a mean
per traced query, except the ratios, the bit-length maxima and
``cli.import_ms``.
"""

from __future__ import annotations

from collections import defaultdict

from spans import LAYERS, layer_totals

# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "cli.import_ms": ("ms", "lower"),
    "cli.self_ms": ("ms/query", "lower"),
    "cli.stdout_bytes": ("bytes/query", "lower"),
    "digits.calls": ("count/query", "lower"),
    "digits.self_ms": ("ms/query", "lower"),
    "digits.scan_len": ("count/query", "lower"),
    "digits.x_bits_max": ("bits", "lower"),
    "dependence.calls": ("count/query", "lower"),
    "dependence.self_ms": ("ms/query", "lower"),
    "image.calls": ("count/query", "lower"),
    "image.self_ms": ("ms/query", "lower"),
    "image.pairs": ("count/query", "lower"),
    "image.c_tested": ("count/query", "lower"),
    "image.c_per_pair": ("ratio", "lower"),
    "image.table_cells": ("count/query", "lower"),
    "image.json_ms": ("ms/query", "lower"),
    "torus.calls": ("count/query", "lower"),
    "torus.self_ms": ("ms/query", "lower"),
    "torus.samples": ("count/query", "lower"),
    "torus.ambiguous_ratio": ("ratio", "lower"),
    "torus.measure_ms": ("ms/query", "lower"),
    "torus.json_ms": ("ms/query", "lower"),
    "witness.calls": ("count/query", "lower"),
    "witness.self_ms": ("ms/query", "lower"),
    "witness.k_steps": ("count/query", "lower"),
    "witness.found_ratio": ("ratio", "higher"),
    "witness.x_bits_max": ("bits", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.accounted_ratio": ("ratio", "higher"),
}

JSON_SPANS = {
    "image.json_ms": ("image.ImageReport.to_json_dict", "image.JointTable.to_json_dict"),
    "torus.measure_ms": ("torus.measure_map",),
    "torus.json_ms": ("torus.CoverageReport.to_json_dict",),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _bits(x) -> int:
    """Bit length of an int or a Fraction's larger term."""
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _c_tested(verdict) -> int:
    """c values the criterion scan tried before deciding the verdict."""
    if verdict.scan_range is None:  # independent bases: decided by density
        return 0
    lo, hi = verdict.scan_range
    return (verdict.certificate if verdict.attainable else hi) - lo + 1


def make_hooks(c: defaultdict) -> dict:
    """Counter hooks keyed by span name; each gets (args, kwargs, result)."""

    def x_bits(args, kwargs, _):
        c["digits.x_bits_max"] = max(c["digits.x_bits_max"], _bits(_arg(args, kwargs, 0, "x")))

    def scan(args, kwargs, _):
        x_max = _arg(args, kwargs, 1, "x_max")
        c["digits.scan_len"] += x_max
        c["digits.x_bits_max"] = max(c["digits.x_bits_max"], x_max.bit_length())

    def verdicts(vs):
        for v in vs:
            c["image.pairs"] += 1
            c["image.c_tested"] += _c_tested(v)

    def witness(args, kwargs, res):
        q = _arg(args, kwargs, 0, "query")
        c["witness.results"] += 1
        anchors = [q.anchor]
        if q.retry_other_anchors:
            anchors += [i for i in range(len(q.bases)) if i != q.anchor]
        if res.outcome == "found":
            c["witness.found"] += 1
            c["witness.k_steps"] += anchors.index(res.anchor_index) * (q.budget + 1) + res.k + 1
            bits = res.x.bit_length()
        elif res.outcome == "exhausted":
            c["witness.k_steps"] += len(anchors) * (q.budget + 1)
            bits = max((q.target[a] * q.bases[a] ** q.budget).bit_length() for a in anchors)
        else:
            bits = 0
        c["witness.x_bits_max"] = max(c["witness.x_bits_max"], bits)

    def coverage(args, kwargs, rep):
        c["torus.samples"] += rep.samples
        c["torus.ambiguous"] += rep.boundary_ambiguous

    def table(args, kwargs, t):
        c["image.table_cells"] += t.combined_base - 1

    return {
        "digits.floor_log": x_bits,
        "digits.leading_digit": x_bits,
        "digits.leading_digit_tuple": x_bits,
        "digits.iter_digit_tuples": scan,
        "image.image_exact": lambda a, k, report: verdicts(report.verdicts),
        "image.attainable_by_power_criterion": lambda a, k, v: verdicts([v]),
        "image.joint_table": table,
        "torus.orbit_sample": coverage,
        "witness.find_witness": witness,
    }


def per_layer_metrics(records, counters, n_queries, stdout_bytes,
                      traced_s, untraced_s, import_ms) -> dict[str, float]:
    totals = layer_totals(records)
    zero = {"calls": 0, "self_s": 0.0, "busy_s": 0.0}
    per_q = 1.0 / n_queries
    m = {"cli.import_ms": import_ms, "cli.stdout_bytes": stdout_bytes * per_q}
    for layer in LAYERS:
        agg = totals.get(layer, zero)
        m[f"{layer}.calls"] = agg["calls"] * per_q
        m[f"{layer}.self_ms"] = agg["self_s"] * 1e3 * per_q
    for metric, names in JSON_SPANS.items():
        m[metric] = sum(totals.get(n, zero)["busy_s"] for n in names) * 1e3 * per_q
    for key in ("digits.scan_len", "image.pairs", "image.c_tested", "image.table_cells",
                "torus.samples", "witness.k_steps"):
        m[key] = counters[key] * per_q
    for key in ("digits.x_bits_max", "witness.x_bits_max"):
        m[key] = counters[key]
    m["image.c_per_pair"] = counters["image.c_tested"] / max(counters["image.pairs"], 1)
    m["torus.ambiguous_ratio"] = counters["torus.ambiguous"] / max(counters["torus.samples"], 1)
    m["witness.found_ratio"] = counters["witness.found"] / max(counters["witness.results"], 1)
    m["trace.overhead_ratio"] = traced_s / untraced_s
    m["trace.accounted_ratio"] = sum(totals.get(layer, zero)["self_s"] for layer in LAYERS) / traced_s
    return {name: m[name] for name in PER_LAYER}
