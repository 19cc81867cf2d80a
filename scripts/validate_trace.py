#!/usr/bin/env python3
"""Schema-check the observability artifacts a traced serving run emits.

Validates two files (stdlib only, CI-friendly):

  1. the Chrome/Perfetto trace JSON that Server::dump_trace (or
     bench_serving_open --trace) writes: structural JSON validity, the
     trace-event fields Perfetto requires (name/cat/ph/pid/tid/ts/dur),
     the span vocabulary this repo emits (span kinds, categories, flush
     reasons, hex target ids), and per-request
     reconcilability — for every traced request that carries all of
     submit/queue/gather/execute, the stage durations must not exceed
     the request's total span by more than the allowed skew;

  2. optionally, the Prometheus text exposition the metrics exporter
     writes next to it: line grammar, every sample preceded by a TYPE,
     label-value escaping, histogram bucket cumulativity with a +Inf
     bucket equal to the series _count.

Exit 0 when both validate; exit 1 with a line per problem otherwise.

Usage: validate_trace.py <trace.json> [<metrics.prom>]
           [--min-spans N] [--skew-us US]
"""

import argparse
import json
import re
import sys

SPAN_NAMES = {"submit", "queue", "gather", "execute", "total", "repack",
              "attn", "kv_append"}
CATEGORIES = {"decode", "prefill", "serve", "mem", "attn"}
# Batch-window events: recorded per executed batch, not per request, so
# they carry no meaningful trace_id and stay out of the per-request
# stage reconciliation below.
WINDOW_NAMES = {"repack", "attn", "kv_append"}
FLUSHES = {"full", "timeout", "slo", "shutdown", "-"}
TARGET_RE = re.compile(r"^0x[0-9a-f]+$")
NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABELS_RE = re.compile(
    r'^\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*",?)*\}$')


def validate_trace(path, min_spans, skew_us, errors):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        errors.append(f"{path}: not readable JSON: {e}")
        return

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        errors.append(f"{path}: no traceEvents array")
        return
    if len(events) < min_spans:
        errors.append(f"{path}: only {len(events)} spans "
                      f"(expected >= {min_spans}; was tracing armed?)")

    # (trace_id) -> {kind: dur}; only complete asynchronous requests
    # (all four stages present) are reconciled against their total.
    by_request = {}
    for i, ev in enumerate(events):
        where = f"{path}: event {i}"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        name = ev.get("name")
        if name not in SPAN_NAMES:
            errors.append(f"{where}: unknown span name {name!r}")
        if ev.get("cat") not in CATEGORIES:
            errors.append(f"{where}: unknown category {ev.get('cat')!r}")
        if ev.get("ph") != "X":
            errors.append(f"{where}: ph must be 'X' (complete event), "
                          f"got {ev.get('ph')!r}")
        for key in ("pid", "tid", "ts", "dur"):
            if not isinstance(ev.get(key), int) or ev.get(key) < 0:
                errors.append(f"{where}: {key} must be a non-negative "
                              f"integer, got {ev.get(key)!r}")
        args = ev.get("args")
        if not isinstance(args, dict):
            errors.append(f"{where}: args must be an object")
            continue
        if args.get("flush") not in FLUSHES:
            errors.append(f"{where}: unknown flush {args.get('flush')!r}")
        if not TARGET_RE.match(str(args.get("target", ""))):
            errors.append(f"{where}: target must be a hex pointer, "
                          f"got {args.get('target')!r}")
        if not isinstance(args.get("rows"), int):
            errors.append(f"{where}: args.rows must be an integer")
        if name in ("repack", "kv_append"):
            detail_key = "bytes"
        elif name == "attn":
            detail_key = "tokens"
        else:
            detail_key = "repacks"
        if not isinstance(args.get(detail_key), int):
            errors.append(f"{where}: args.{detail_key} must be an integer")
        trace_id = args.get("trace_id")
        if name not in WINDOW_NAMES and not isinstance(trace_id, int):
            errors.append(f"{where}: args.trace_id must be an integer")
        if isinstance(trace_id, int) and name in SPAN_NAMES - WINDOW_NAMES:
            by_request.setdefault(trace_id, {})[name] = ev["dur"]

    stages = ("submit", "queue", "gather", "execute")
    reconciled = 0
    for trace_id, spans in by_request.items():
        if "total" not in spans or any(s not in spans for s in stages):
            continue  # ring-overwritten or never-executed request: skip
        reconciled += 1
        stage_sum = sum(spans[s] for s in stages)
        if stage_sum > spans["total"] + skew_us:
            errors.append(
                f"{path}: request {trace_id}: stage durations sum to "
                f"{stage_sum}us > total {spans['total']}us + {skew_us}us "
                "skew — the stage clocks do not reconcile")
    print(f"{path}: {len(events)} spans, {len(by_request)} traced "
          f"requests, {reconciled} reconciled against their totals")


def validate_prometheus(path, errors):
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        errors.append(f"{path}: unreadable: {e}")
        return

    typed = {}
    samples = []  # (name, labels, value) in document order
    for lineno, line in enumerate(lines, 1):
        where = f"{path}:{lineno}"
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary"):
                errors.append(f"{where}: malformed TYPE line")
            else:
                typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            errors.append(f"{where}: unknown comment form")
            continue
        m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$", line)
        if not m:
            errors.append(f"{where}: not `name{{labels}} value`: {line!r}")
            continue
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        if labels and not LABELS_RE.match(labels):
            errors.append(f"{where}: malformed/unescaped label set "
                          f"{labels!r}")
        try:
            value = float(value) if value != "+Inf" else float("inf")
        except ValueError:
            errors.append(f"{where}: unparseable value {value!r}")
            continue
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            errors.append(f"{where}: sample {name} has no TYPE")
        samples.append((name, labels, value))

    # Histogram shape: per label-set bucket series must be cumulative,
    # end at le="+Inf", and match the series _count.
    series = {}
    counts = {}
    for name, labels, value in samples:
        if name.endswith("_bucket"):
            le = re.search(r'le="([^"]*)"', labels)
            if not le:
                errors.append(f"{path}: bucket sample without le: "
                              f"{name}{labels}")
                continue
            key = (name, re.sub(r'le="[^"]*",?', "", labels))
            series.setdefault(key, []).append((le.group(1), value))
        elif name.endswith("_count"):
            counts[(name[:-len("_count")], labels)] = value
    for (name, labels), buckets in series.items():
        prev = -1.0
        for le, value in buckets:
            if value < prev:
                errors.append(f"{path}: {name}{labels}: bucket le={le} "
                              f"not cumulative ({value} < {prev})")
            prev = value
        if buckets[-1][0] != "+Inf":
            errors.append(f"{path}: {name}{labels}: last bucket must be "
                          "+Inf")
            continue
        base = name[:-len("_bucket")]
        count = counts.get((base, labels))
        if count is not None and buckets[-1][1] != count:
            errors.append(f"{path}: {name}{labels}: +Inf bucket "
                          f"{buckets[-1][1]} != {base}_count {count}")
    print(f"{path}: {len(samples)} samples, {len(typed)} typed metrics, "
          f"{len(series)} histogram series")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("trace", help="Chrome/Perfetto trace JSON")
    parser.add_argument("prometheus", nargs="?",
                        help="Prometheus text exposition written alongside")
    parser.add_argument("--min-spans", type=int, default=1,
                        help="fail when the trace holds fewer spans")
    parser.add_argument("--skew-us", type=int, default=500,
                        help="allowed stage-vs-total clock skew per request")
    args = parser.parse_args(argv)

    errors = []
    validate_trace(args.trace, args.min_spans, args.skew_us, errors)
    if args.prometheus:
        validate_prometheus(args.prometheus, errors)
    for e in errors:
        print(f"FAIL {e}")
    if errors:
        print(f"{len(errors)} problem(s)")
        return 1
    print("trace artifacts OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
