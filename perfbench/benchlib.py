"""Pure helpers of the pricing-service benchmark: percentiles, open-loop
latency, span self time, metric assembly and the output schema.

run.py drives the C++ runner and feeds its raw report through these; the
tests in tests/test_benchlib.py pin their behaviour.
"""

import json
import math
import os
import statistics

INF = float("inf")

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load_spec(path=SPEC_PATH):
    with open(path) as fh:
        return json.load(fh)


def metric_list(spec, key):
    """name -> (unit, better) of one metric list of BENCHMARK.json."""
    return {m["name"]: (m["unit"], m["better"]) for m in spec[key]}


SPEC = load_spec()
# Gated end-to-end metrics and per-layer metrics, as BENCHMARK.json lists
# them.
END_TO_END = metric_list(SPEC, "end_to_end")
PER_LAYER = metric_list(SPEC, "per_layer")
# End-to-end metrics printed by every run but not gated: on the shared
# 4-core machine the benchmark was tuned on, their spread over ten seeds
# came near or above the largest allowed bound (see README.md).
REPORTED = {
    "quote_p99_us": ("us", "lower"),
    "quote_capacity_qps": ("1/s", "higher"),
    "purchase_p50_us": ("us", "lower"),
    "purchase_p99_us": ("us", "lower"),
    "append_mean_ms": ("ms", "lower"),
    "append_p50_ms": ("ms", "lower"),
    "append_p95_ms": ("ms", "lower"),
    "delta_p50_us": ("us", "lower"),
    "build_s": ("s", "lower"),
}

ALGORITHMS = ["ubp", "uip", "lpip", "cip", "layering", "xos"]

# Open-loop percentiles are taken per window of these lengths (due time),
# so a stall of the machine moves some windows, not the metric.
QUOTE_WINDOW_NS = 500_000_000
PURCHASE_WINDOW_NS = 1_000_000_000

# Output checks: every one of these counts must be zero. A reply the twin
# cannot check names a shard version the twin never published.
CHECK_COUNTS = [
    "static_mismatches", "twin_mismatches", "final_quote_mismatches",
    "cell_mismatches", "recover_mismatches", "revenue_violations",
    "twin_unverifiable",
]


def nearest_rank(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the
    sample at or below it. Returns (value, count beyond it, sample count);
    value is None for an empty sample."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        return None, 0, 0
    rank = max(1, math.ceil(q * n))
    return s[rank - 1], n - rank, n


def open_loop_samples(trace, kind):
    """Latency from due time (us) and generator lateness (us) of every
    request of one kind (0 quote, 1 purchase) in an open-loop trace.
    A failed or unanswered request has infinite latency: it misses any
    limit."""
    latency, lateness = [], []
    for due, sent, done, k, failed in zip(trace["due"], trace["sent"],
                                          trace["done"], trace["kind"],
                                          trace["failed"]):
        if k != kind:
            continue
        if failed or done < 0:
            latency.append(INF)
        else:
            latency.append((done - due) / 1e3)
        if sent >= 0:
            lateness.append((sent - due) / 1e3)
    return latency, lateness


def windowed_percentile(trace, kind, q, window_ns):
    """Open-loop latency percentile robust to isolated stalls of a shared
    machine: the phase is cut into windows of `window_ns` by due time,
    each window gets its nearest-rank percentile, and the median (nearest
    rank) over the windows is reported, so a slowdown counts once it hits
    half the windows. Returns (value, sample count, windows, lower
    quartile over the windows); the last is a diagnostic only."""
    latency, _ = open_loop_samples(trace, kind)
    dues = [d for d, k in zip(trace["due"], trace["kind"]) if k == kind]
    windows = {}
    for due, value in zip(dues, latency):
        windows.setdefault(due // window_ns, []).append(value)
    per_window = [nearest_rank(v, q)[0] for _, v in sorted(windows.items())]
    if not per_window:
        return None, 0, 0, None
    return (nearest_rank(per_window, 0.5)[0], len(latency), len(per_window),
            nearest_rank(per_window, 0.25)[0])


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval covered by its children (overlapping children counted
    once, children clipped to the parent). Spans are
    [name, start, end, parent, request]; returns a list of ns."""
    children = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, [])):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def span_durations(spans, name):
    return [s[2] - s[1] for s in spans if s[0] == name]


def metric(value, unit, count=None, beyond=None):
    m = {"value": value, "unit": unit}
    if count is not None:
        m["n"] = count
    if beyond is not None:
        m["beyond"] = beyond
    return m


def end_to_end(report):
    """Every end-to-end metric (gated and reported) of one untraced
    report, with its sample count (and, for percentiles, the count beyond
    it)."""
    s = report["samples"]
    out = {}

    def med(name, values, unit):
        out[name] = metric(statistics.median(values), unit, len(values))

    def best(name, values, unit):
        # Repeated CPU-bound work: the machine only ever adds time, so
        # the fastest of the spaced repetitions is the steady figure.
        out[name] = metric(min(values), unit, len(values))

    def pct(name, values, q, unit):
        value, beyond, n = nearest_rank(values, q)
        out[name] = metric(value, unit, n, beyond)

    med("setup_s", s["setup_s"], "s")
    def windowed(name, kind, q, window_ns):
        value, n, windows, low = windowed_percentile(report["open_loop"],
                                                     kind, q, window_ns)
        out[name] = metric(value, "us", n)
        out[name]["windows"] = windows
        out[name]["lower_quartile"] = low

    windowed("quote_p50_us", 0, 0.50, QUOTE_WINDOW_NS)
    windowed("quote_p99_us", 0, 0.99, QUOTE_WINDOW_NS)
    cap = report["capacity"]
    out["quote_capacity_qps"] = metric(
        cap["completed"] / cap["seconds"] if cap["seconds"] > 0 else 0.0,
        "1/s", cap["completed"])
    windowed("purchase_p50_us", 1, 0.50, PURCHASE_WINDOW_NS)
    windowed("purchase_p99_us", 1, 0.99, PURCHASE_WINDOW_NS)
    w = report["writer"]
    appends = s["append_ms"] + [INF] * w["append_failed"]
    deltas = s["delta_us"] + [INF] * w["delta_failed"]
    # The book grows through the run and appends carry 1-4 buyers, so
    # append cost is spread wide; the mean is its steady summary.
    out["append_mean_ms"] = metric(statistics.mean(appends), "ms",
                                   len(appends))
    pct("append_p50_ms", appends, 0.50, "ms")
    pct("append_p95_ms", appends, 0.95, "ms")
    pct("delta_p50_us", deltas, 0.50, "us")
    best("recover_s", s["recover_s"], "s")
    best("build_s", s["build_s"], "s")
    best("solve_s", s["solve_s"], "s")
    rev = report["revenue"]
    out["revenue_share"] = metric(rev["best"] / rev["sum_valuations"], "ratio")
    out["revenue_vs_bound"] = metric(rev["best"] / rev["bound"], "ratio")
    return out


class MissingMetrics(Exception):
    """A per-layer metric of BENCHMARK.json that the traced run did not
    produce."""


def per_layer(report, untraced):
    """Every per-layer metric of one traced report; `untraced` holds the
    end-to-end metrics of an untraced run of the same workload and seed,
    for the tracing overhead. A metric neither computed here from spans
    nor emitted by the runner as a counter raises MissingMetrics."""
    spans = report["spans"]
    counters = report["counters"]
    traced = end_to_end(report)
    out = {}

    def med_span(name, scale=1.0):
        d = span_durations(spans, name)
        return statistics.median(d) * scale if d else 0.0

    batch = max(1, counters.get("replay.batch", 1))
    coded = [s for s in spans if s[0] == "rpc.codec"]
    quoted = sum(s[4] for s in coded)
    out["rpc.codec_ns_per_quote"] = (
        sum(s[2] - s[1] for s in coded) / quoted if quoted else 0.0)
    batch_ns = med_span("serve.TryQuoteBatchInto")
    out["serve.quote_batch_ns_per_quote"] = batch_ns / batch
    # Client span (sent -> done) of a wire quote minus the in-process
    # batch it rides in: what rpc adds per quote.
    client = [(d - s) / 1e3 for s, d, k, f in zip(
        report["open_loop"]["sent"], report["open_loop"]["done"],
        report["open_loop"]["kind"], report["open_loop"]["failed"])
        if k == 0 and not f and d >= 0 and s >= 0]
    out["rpc.self_us_per_quote"] = (
        statistics.median(client) - batch_ns / 1e3 if client else 0.0)
    out["serve.snapshot_pin_ns"] = med_span("serve.SnapshotInto")
    out["serve.purchase_us"] = med_span("serve.Purchase", 1e-3)
    selfs = self_times(spans)
    other = [selfs[i] for i, s in enumerate(spans)
             if s[0] == "serve.AppendBuyers"]
    out["serve.append_other_ms"] = (
        statistics.median(other) * 1e-6 if other else 0.0)
    out["market.build_s"] = med_span("market.BuildHypergraph", 1e-9)
    lps_cip = counters.get("lp.lps_seed_cip", 0)
    lps_lpip = counters.get("lp.lps_seed_lpip", 0)
    out["lp.cip_ms_per_lp"] = (
        med_span("core.RunCip", 1e-6) / lps_cip if lps_cip else 0.0)
    out["lp.lpip_ms_per_lp"] = (
        med_span("core.RunLpip", 1e-6) / lps_lpip if lps_lpip else 0.0)
    for alg in ALGORITHMS:
        run = "core.Run" + {"ubp": "Ubp", "uip": "Uip", "lpip": "Lpip",
                            "cip": "Cip", "layering": "Layering",
                            "xos": "Xos"}[alg]
        out["core.solve_s." + alg] = med_span(run, 1e-9)
    # One core.reprice child per shard that published: an append's reprice
    # time is their sum.
    per_append = {}
    for s in spans:
        if s[0] == "core.reprice":
            per_append[s[3]] = per_append.get(s[3], 0) + s[2] - s[1]
    out["core.reprice_ms"] = (statistics.median(per_append.values()) * 1e-6
                              if per_append else 0.0)
    out["db.parse_us"] = med_span("db.ParseQuery", 1e-3)
    out["persist.checkpoint_ms"] = med_span("persist.CheckpointNow", 1e-6)
    out["persist.recover_read_s"] = med_span("persist.Recover", 1e-9)
    out["persist.restore_s"] = med_span("serve.RestoreFromCheckpoint", 1e-9)
    out["workloads.generate_s"] = med_span("workloads.generate", 1e-9)
    for name in list(END_TO_END) + list(REPORTED):
        out["trace.overhead." + name] = (
            traced[name]["value"] - untraced[name]["value"])
    missing = []
    result = {}
    for name, (unit, _) in PER_LAYER.items():
        value = out[name] if name in out else counters.get(name)
        if value is None:
            missing.append(name)
        else:
            result[name] = metric(value, unit)
    if missing:
        raise MissingMetrics(", ".join(missing))
    return result


def check_failures(report):
    """Names of failed output checks (empty when every check passed)."""
    checks = report["checks"]
    return [name for name in CHECK_COUNTS if checks.get(name, 0) != 0]


def ops_counts(report):
    """(attempted, failed) wire operations of one run."""
    trace = report["open_loop"]
    cap = report["capacity"]
    w = report["writer"]
    attempted = len(trace["due"]) + cap["completed"] + cap["failed"] + w["ops"]
    failed = (sum(trace["failed"]) + cap["failed"] + w["append_failed"] +
              w["delta_failed"])
    return attempted, failed


def result_line(correct, attempted, failed, metrics, names):
    """The last line of the benchmark's output: the metrics in `names`."""
    clean = {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
             for k in names}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": clean},
                      sort_keys=False, allow_nan=True)


def validate_result(obj, spec, trace):
    """Schema errors of a result object against BENCHMARK.json `spec`
    (empty when valid)."""
    errors = []
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("keys must be correct, attempted, failed, metrics")
        return errors
    if not isinstance(obj["correct"], bool):
        errors.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            errors.append(key + " must be a whole number")
    if isinstance(obj["attempted"], int) and obj["attempted"] < 1:
        errors.append("attempted must be at least 1")
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    if set(obj["metrics"]) != set(names):
        errors.append("metrics must be exactly the %s list" %
                      ("per_layer" if trace else "end_to_end"))
    for name, m in obj["metrics"].items():
        if set(m) != {"value", "unit"}:
            errors.append(name + ": keys must be value, unit")
            continue
        value = m["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            errors.append(name + ": value must be a finite number")
        if name in names and m["unit"] != names[name]:
            errors.append(name + ": unit must be " + names[name])
    return errors
