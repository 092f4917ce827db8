"""Statistics of the serving benchmark, kept apart so they can be tested.

Every rule the benchmark reports by lives here: the percentile rule, the
closed-loop windows, open-loop latency from the scheduled send, and span
self time.
"""

import math
import statistics

# Percentiles the tail rule may fall back to, highest first.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a share q
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(n, wanted=0.99):
    """The highest percentile, at most `wanted`, that has at least ten
    samples beyond it among n samples (the median when none has)."""
    for q in TAIL_LADDER:
        if q <= wanted and n * (1.0 - q) >= MIN_BEYOND:
            return q
    return 0.5


def tail(values, wanted=0.99):
    """(quantile used, value) under the tail rule."""
    q = tail_quantile(len(values), wanted)
    return q, percentile(values, q)


def median(values):
    return statistics.median(values)


def mean(values):
    return statistics.fmean(values)


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, the way the benchmark's steadiness is judged."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def open_loop(records):
    """Latency and lateness of open-loop requests, in milliseconds.

    Each record is (scheduled_ns, sent_ns, done_ns). Latency counts from
    the scheduled send, so time a request spent waiting behind a stall
    counts against it; lateness is how far behind schedule it left.
    """
    latency = [(done - scheduled) / 1e6 for scheduled, _, done in records]
    late = [max(0, sent - scheduled) / 1e6 for scheduled, sent, _ in records]
    return latency, late


def split_by_schedule(records, parts):
    """Splits open-loop records into `parts` stretches of equal length of
    the schedule (by scheduled send time), dropping empty stretches."""
    if not records:
        return []
    first = min(r[0] for r in records)
    span = max(r[0] for r in records) - first + 1
    stretches = [[] for _ in range(parts)]
    for record in records:
        stretches[(record[0] - first) * parts // span].append(record)
    return [s for s in stretches if s]


def closed_windows(completions, snapshots, ticks_per_second):
    """Per-window throughput and server CPU per request of a closed loop.

    completions: (done_ns, ok) per request. snapshots: (t_ns, cpu_ticks)
    taken at window boundaries. A window runs between two consecutive
    snapshots and counts the successful completions inside it. Returns a
    list of (requests_per_second, cpu_us_per_request), skipping windows
    without a completion.
    """
    snapshots = sorted(snapshots)
    done = sorted(t for t, ok in completions if ok)
    windows = []
    for (start, ticks0), (end, ticks1) in zip(snapshots, snapshots[1:]):
        count = sum(1 for t in done if start <= t < end)
        if count == 0 or end <= start:
            continue
        seconds = (end - start) / 1e9
        cpu_us = (ticks1 - ticks0) * 1e6 / ticks_per_second
        windows.append((count / seconds, cpu_us / count))
    return windows


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover (children clipped to the parent, overlaps counted
    once).

    spans: dict id -> (parent_id, start, end). Returns dict id -> self time.
    """
    children = {}
    for span_id, (parent, _, _) in spans.items():
        if parent in spans:
            children.setdefault(parent, []).append(span_id)
    result = {}
    for span_id, (_, start, end) in spans.items():
        clipped = []
        for child in children.get(span_id, ()):
            _, child_start, child_end = spans[child]
            lo, hi = max(start, child_start), min(end, child_end)
            if hi > lo:
                clipped.append((lo, hi))
        result[span_id] = (end - start) - covered(clipped)
    return result
