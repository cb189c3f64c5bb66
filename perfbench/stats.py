"""Statistics and output schema of the repo benchmark.

Pure functions, kept apart from run.py so test_stats.py can check them
without building or running anything.
"""

import math
import re
import statistics

# The metrics each mode prints, in order: (name, unit). run.py fills
# them; BENCHMARK.json lists the same names (test_stats.py checks that).
END_TO_END = [
    ("run_s.s1", "s"),
    ("run_s.s4", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# Event labels the three workloads' engines attribute today. A label a
# workload never schedules reads 0.
SIM_LABELS = [
    "core.s1",
    "epc.mme",
    "metro.report",
    "net.hop",
    "par.delivery",
    "ran.enodeb",
    "sim.unlabeled",
    "town.attach",
    "town.x2_report",
    "transport.flow_train",
    "workload.attach",
]

PER_LAYER = [
    ("par.windows", "count"),
    ("par.events_per_window", "count"),
    ("par.barrier_wait_share", "ratio"),
    ("par.serial_s", "s"),
    ("par.local_messages", "count"),
    ("par.cross_shard_messages", "count"),
    ("par.lane_imbalance", "ratio"),
    ("par.speedup_s4", "ratio"),
    ("sim.events", "count"),
] + [("sim.events." + label, "count") for label in SIM_LABELS] + [
    ("sim.host_ns_per_event", "ns"),
    ("sim.queue_resizes", "count"),
    ("sim.hold_ns", "ns"),
    ("registry.zone_occupancy_us", "us"),
    ("registry.zone_snapshot_us", "us"),
    ("registry.count_grants_near_us", "us"),
    ("registry.prune_expired_us", "us"),
    ("registry.grant_us", "us"),
    ("registry.heartbeat_us", "us"),
    ("registry.revoke_us", "us"),
    ("registry.read_self_share", "ratio"),
    ("registry.snapshot_size", "count"),
    ("registry.cache_hit_ratio", "ratio"),
    ("registry.cache_stale_serves", "count"),
    ("registry.cache_root_sheds", "count"),
    ("crypto.milenage_us", "us"),
    ("lte.nas_codec_ns", "ns"),
    ("lte.s1ap_codec_ns", "ns"),
    ("lte.x2ap_codec_ns", "ns"),
    ("net.send_ns", "ns"),
    ("net.packets", "count"),
    ("epc.messages", "count"),
    ("obs.export_s", "s"),
    ("obs.merge_s", "s"),
    ("trace.overhead_share", "ratio"),
]

# Per-call replay timings: metric -> (span name, scale from ns).
SPAN_TIMINGS = {
    "registry.zone_occupancy_us": ("registry.zone_occupancy", 1e-3),
    "registry.zone_snapshot_us": ("registry.zone_snapshot", 1e-3),
    "registry.count_grants_near_us": ("registry.count_grants_near", 1e-3),
    "registry.prune_expired_us": ("registry.prune_expired", 1e-3),
    "registry.grant_us": ("registry.grant", 1e-3),
    "registry.heartbeat_us": ("registry.heartbeat", 1e-3),
    "registry.revoke_us": ("registry.revoke", 1e-3),
    "crypto.milenage_us": ("crypto.milenage", 1e-3),
    "lte.nas_codec_ns": ("lte.nas_codec", 1.0),
    "lte.s1ap_codec_ns": ("lte.s1ap_codec", 1.0),
    "lte.x2ap_codec_ns": ("lte.x2ap_codec", 1.0),
    "net.send_ns": ("net.send", 1.0),
    "sim.hold_ns": ("sim.hold", 1.0),
    "obs.export_s": ("obs.export", 1e-9),
    "obs.merge_s": ("obs.merge", 1e-9),
}

# The storm's read path. Its snapshot rebuilds run inside zone_occupancy
# (on cache misses and root sheds), so they count there; the separately
# sampled zone_snapshot spans are a per-call timing probe and are left
# out of the read share altogether.
REGISTRY_READS = ("registry.zone_occupancy",)
REGISTRY_PROBES = ("registry.zone_snapshot",)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile, value): the (n-10)-th smallest sample, which has
    exactly ten samples above it, labelled floor(100 * (n-10) / n).
    None when there are fewer than eleven samples.
    """
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return math.floor(100 * k / n), sorted(values)[k - 1]


def calibrated(samples, kernel_s, reference_s):
    """Each raw sample scaled to a host on which the calibration kernel
    takes reference_s, using the kernel time measured around it."""
    if len(samples) != len(kernel_s) or min(kernel_s, default=1.0) <= 0:
        raise ValueError("one positive kernel time per sample is required")
    return [x * reference_s / k for x, k in zip(samples, kernel_s)]


def summarize(values):
    """Median, quartiles, tail percentile and count of one timing."""
    q1, q3 = quartiles(values)
    return {
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "tail": tail_percentile(values),
        "n": len(values),
    }


def self_times(spans):
    """Self time in ns of every span: its duration minus the part of its
    interval that its direct children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], cursor)
            hi = min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (end - start) - covered
    return out


def self_time_by_name(spans):
    """Total self time in ns per span name."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0) + own[s["id"]]
    return totals


def per_call_samples(spans, name):
    """Per-call durations in ns of the spans called `name`."""
    return [(s["end_ns"] - s["start_ns"]) / s["calls"]
            for s in spans if s["name"] == name and s["calls"] > 0]


def per_call_ns(spans, name):
    """Median per-call duration in ns of the spans called `name`."""
    values = per_call_samples(spans, name)
    return median(values) if values else None


def layer_metrics(raw):
    """Per-layer metric values from a traced run's raw output."""
    spans = raw["spans"]
    counters = raw["counters"]
    values = {}
    for name, _ in PER_LAYER:
        if name in SPAN_TIMINGS:
            span, scale = SPAN_TIMINGS[name]
            ns = per_call_ns(spans, span)
            values[name] = 0.0 if ns is None else ns * scale
        else:
            values[name] = counters.get(name, 0)
    by_name = self_time_by_name(spans)
    registry = sum(v for k, v in by_name.items()
                   if k.startswith("registry.") and k not in REGISTRY_PROBES)
    reads = sum(by_name.get(k, 0) for k in REGISTRY_READS)
    values["registry.read_self_share"] = reads / registry if registry else 0.0
    return values


def result_line(correct, attempted, failed, metrics):
    """The benchmark's final stdout object."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def validate_result(obj, expected):
    """Schema check of a result line against the (name, unit) list it
    must carry. Returns a list of problems; empty when valid."""
    problems = []
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys must be correct, attempted, failed, metrics")
        return problems
    if not isinstance(obj["correct"], bool):
        problems.append("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            problems.append(key + " must be an integer")
    if isinstance(obj["attempted"], int) and obj["attempted"] < 1:
        problems.append("attempted must be at least 1")
    metrics = obj["metrics"]
    if set(metrics) != {name for name, _ in expected}:
        problems.append("metric names differ from the expected list")
    for name, unit in expected:
        m = metrics.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            problems.append(name + ": needs value and unit " + unit)
        elif (not isinstance(m["value"], (int, float))
              or isinstance(m["value"], bool)
              or not math.isfinite(m["value"])):
            problems.append(name + ": value must be a finite number")
    for name, unit in expected:
        if not NAME_RE.match(name) or not UNIT_RE.match(unit):
            problems.append(name + ": malformed name or unit")
    return problems
