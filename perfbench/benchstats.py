"""Statistics, parsing and schema helpers shared by run.py and agree.py.

Everything here is pure (no I/O), so test_benchstats.py covers it directly.
"""

import math
import re
import statistics
from collections import namedtuple

# A tail percentile is reported only with at least this many samples beyond
# it, so that it rests on more than a handful of extreme values.
MIN_BEYOND = 10

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")

Tail = namedtuple("Tail", "level value beyond n")


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


Agreement = namedtuple("Agreement", "worse_by spreads agree steady")


def agreement(a, b, bound, better):
    """Compares two sets of one metric's values.

    worse_by is how much worse set B's median is than set A's, as a share of
    set A's ("better" is "lower" or "higher"; negative when B is better).
    The sets agree when each set's spread is within `bound` and the medians
    are within `bound` of each other, either way. They are steady when each
    spread is below a third of `bound`.
    """
    worse = (median(b) - median(a)) / median(a)
    if better == "higher":
        worse = -worse
    spreads = (spread(a), spread(b))
    return Agreement(worse, spreads,
                     max(spreads) <= bound and abs(worse) <= bound,
                     max(spreads) < bound / 3)


def tail_percentile(values, want=99.0):
    """The `want` percentile (nearest rank) if at least MIN_BEYOND samples lie
    beyond it, else the highest percentile that has MIN_BEYOND beyond it.

    Returns Tail(level, value, beyond, n), or None when there are too few
    samples for any percentile to have MIN_BEYOND samples beyond it.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= MIN_BEYOND:
        return None
    rank = math.ceil(want / 100.0 * n)  # 1-based nearest rank
    level = want
    if n - rank < MIN_BEYOND:
        rank = n - MIN_BEYOND
        level = 100.0 * rank / n
    return Tail(level, xs[rank - 1], n - rank, n)


_VMHWM = re.compile(r"^VmHWM:\s*(\d+)\s*kB\s*$")


def parse_vmhwm_mb(line):
    """Peak resident set size in MB (10^6 bytes) from a /proc/<pid>/status
    line such as 'VmHWM:\\t 1219432 kB'. Raises ValueError otherwise."""
    match = _VMHWM.match(line)
    if match is None:
        raise ValueError("not a VmHWM line: %r" % (line,))
    return int(match.group(1)) * 1024 / 1e6


def self_times(events):
    """Self time in seconds of every span of a Chrome trace-event list whose
    args carry span_id and parent_id: its duration minus the durations of
    its direct children. Returns {span_id: seconds}."""
    own = {}
    children = {}
    for event in events:
        args = event["args"]
        own[args["span_id"]] = event["dur"] * 1e-6
        children.setdefault(args["parent_id"], 0.0)
        children[args["parent_id"]] += event["dur"] * 1e-6
    return {sid: dur - children.get(sid, 0.0) for sid, dur in own.items()}


def roots(events):
    """Groups spans under their root span.

    Returns a list of (root_event, {span name: summed self seconds}) in root
    order. The root's own name maps to its self time (the part of its wall
    that no child span covers).
    """
    by_id = {e["args"]["span_id"]: e for e in events}
    selfs = self_times(events)
    groups = {}
    order = []
    for event in events:
        sid = event["args"]["span_id"]
        top = event
        while top["args"]["parent_id"] != -1:
            top = by_id[top["args"]["parent_id"]]
        rid = top["args"]["span_id"]
        if rid not in groups:
            groups[rid] = {}
            order.append(rid)
        totals = groups[rid]
        totals[event["name"]] = totals.get(event["name"], 0.0) + selfs[sid]
    return [(by_id[rid], groups[rid]) for rid in order]


def validate_result(result, metric_units):
    """Raises ValueError unless `result` is a benchmark result line for the
    metrics `metric_units` ({name: unit}): exactly the keys correct,
    attempted, failed and metrics; whole counts with attempted >= 1; and
    exactly the named metrics, each {"value": finite number, "unit": unit}.
    """
    if not isinstance(result, dict) or sorted(result) != sorted(RESULT_KEYS):
        raise ValueError("result keys must be exactly %s" % (RESULT_KEYS,))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a bool")
    for key, least in (("attempted", 1), ("failed", 0)):
        value = result[key]
        if (isinstance(value, bool) or not isinstance(value, int)
                or value < least):
            raise ValueError("%s must be a whole number >= %d" % (key, least))
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or sorted(metrics) != sorted(metric_units):
        raise ValueError("metrics must be exactly %s" % sorted(metric_units))
    for name, unit in metric_units.items():
        entry = metrics[name]
        if not isinstance(entry, dict) or sorted(entry) != ["unit", "value"]:
            raise ValueError("%s must be {value, unit}" % name)
        value = entry["value"]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise ValueError("%s value must be a finite number" % name)
        if entry["unit"] != unit:
            raise ValueError("%s unit must be %s" % (name, unit))
