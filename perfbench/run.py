#!/usr/bin/env python3
"""Repo benchmark: builds the driver from source, runs one workload in its
own process and prints the result as the last line of standard output.

    python3 perfbench/run.py --workload fabric_1k --seed 1 --seconds 25 \
        --trace 0

Run it from the root of a checkout. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a separate traced run (its
spans go to .bench_build/perfbench/traces/ as Chrome trace-event JSON).
README.md says what each workload and metric means. The exit code is 0
only when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
# Would make a failing audit write a dump outside the checkout.
DROPPED_ENV = ("HRTDM_FLIGHT_DUMP_DIR",)

# Metric names and units are BENCHMARK.json's. A per-layer metric named
# "<span>_s" is the self time of the driver's span "<span>"; one listed below
# is computed from several recorded values; any other is a count the driver
# records under the metric's own name on a root span.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
RATIOS = ("core.ns_per_slot", "core.compiled_slot_share",
          "core.span_commit_ratio")
COMPUTED = RATIOS + ("obs.run_rss_mb", "harness.emit_rss_mb",
                     "trace.unattributed_s", "trace.overhead_s")
SPAN_METRICS = {name[:-2]: name for name in PER_LAYER
                if name.endswith("_s") and name not in COMPUTED}
COUNT_METRICS = [name for name in PER_LAYER
                 if name not in COMPUTED and name not in SPAN_METRICS.values()]
# Root spans: one job (or analysis request), a set-up, a replayed fabric
# channel or an audit. Root-span args that only feed the ratios or name
# things.
ROOT_SPANS = ("rep", "request", "setup", "channel_replay", "audit")
REPETITION_ROOTS = ("rep", "request")
HELPER_ARGS = ("core.slots", "core.slots_compiled", "channel", "span_id",
               "parent_id")


def say(text):
    print("perfbench: " + text, flush=True)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j",
                    str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def run_driver(args, trace_out):
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    # The timed budget, plus set-up, warm-up and audit or replays.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=2 * args.seconds + 120)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def end_to_end(raw):
    walls = raw["request_s"]
    metrics = {
        "setup_s": benchstats.median(raw["setup_s"]),
        "peak_rss_mb": benchstats.parse_vmhwm_mb(raw["rss"]["end"]),
        "requests_per_s": len(walls) / sum(walls),
        "request_p50_ms": benchstats.median(walls) * 1e3,
    }
    tail = benchstats.tail_percentile(walls)
    if tail is None:
        say("request latency over n=%d: too few samples for a tail "
            "percentile with %d beyond it"
            % (len(walls), benchstats.MIN_BEYOND))
    else:
        say("request tail: p%.1f = %.3f ms over n=%d requests, %d beyond it"
            % (tail.level, tail.value * 1e3, tail.n, tail.beyond))
    info = raw["info"]
    if "channel_slots" in info:
        rep_s = benchstats.median(walls)
        say("simulation per repetition: %d channel slots (%.4g slots/s), "
            "%d delivered (%.4g msgs/s), artifact %.3f MB, simulated worst "
            "latency %.3f ms, digest %s"
            % (info["channel_slots"], info["channel_slots"] / rep_s,
               info["delivered"], info["delivered"] / rep_s,
               info["artifact_bytes"] / 1e6, info["sim_worst_latency_ms"],
               info["protocol_digest"]))
    return metrics


def per_layer(raw, trace_out):
    with open(trace_out) as f:
        events = json.load(f)["traceEvents"]
    unreported = sorted(
        ({e["name"] for e in events} - set(SPAN_METRICS) - set(ROOT_SPANS))
        | ({key for e in events for key in e["args"]} - set(COUNT_METRICS)
           - set(HELPER_ARGS)))
    if unreported:
        raise ValueError("recorded but in no per-layer metric of "
                         "BENCHMARK.json: %s" % ", ".join(unreported))
    groups = benchstats.roots(events)
    selfs = benchstats.self_times(events)

    # A layer the workload never calls reports 0.
    def median_or_zero(values):
        return benchstats.median(values) if values else 0

    metrics = {}
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = median_or_zero(
            [totals[span] for _, totals in groups if span in totals])
    for metric in COUNT_METRICS:
        metrics[metric] = median_or_zero(
            [root["args"][metric] for root, _ in groups
             if metric in root["args"]])

    ratios = {name: [] for name in RATIOS}
    for root, totals in groups:
        a = root["args"]
        if a.get("core.slots") and "core.slot_loop" in totals:
            ratios["core.ns_per_slot"].append(
                totals["core.slot_loop"] / a["core.slots"] * 1e9)
            ratios["core.compiled_slot_share"].append(
                a["core.slots_compiled"] / a["core.slots"])
        if a.get("core.compile_attempts"):
            ratios["core.span_commit_ratio"].append(
                a["core.spans_compiled"] / a["core.compile_attempts"])
    for metric, values in ratios.items():
        metrics[metric] = median_or_zero(values)

    rss = raw["rss"]
    if "after_run" in rss:
        run_mb = benchstats.parse_vmhwm_mb(rss["after_run"])
        emit_mb = benchstats.parse_vmhwm_mb(rss["after_emit"]) - run_mb
    else:  # nothing emitted
        run_mb = benchstats.parse_vmhwm_mb(rss["end"])
        emit_mb = 0
    metrics["obs.run_rss_mb"] = run_mb
    metrics["harness.emit_rss_mb"] = emit_mb
    metrics["trace.unattributed_s"] = median_or_zero(
        [selfs[root["args"]["span_id"]] for root, _ in groups
         if root["name"] in REPETITION_ROOTS])
    metrics["trace.overhead_s"] = median_or_zero(
        [t - u for t, u in zip(raw["traced_s"], raw["untraced_s"])])
    say("traced run: %d traced / %d untraced repetitions, %d spans in %s"
        % (len(raw["traced_s"]), len(raw["untraced_s"]), len(events),
           trace_out))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        build()
        trace_out = None
        if args.trace:
            trace_out = BUILD / "traces" / ("%s-seed%d.json"
                                            % (args.workload, args.seed))
            trace_out.parent.mkdir(exist_ok=True)
        raw = run_driver(args, trace_out)
        env = raw["info"]["env"]
        say("workload %s, seed %d, %d set-ups, %d timed requests; host %s, "
            "nproc %d, shards %d, %s build (%s,%s)"
            % (args.workload, args.seed, len(raw["setup_s"]),
               len(raw["request_s"]) + len(raw["traced_s"]), env["host"],
               env["nproc"], env["shards"], env["build_type"],
               env["compiler"], env["cxx_flags"]))
        if args.trace:
            metrics, units = per_layer(raw, trace_out), PER_LAYER
        else:
            metrics, units = end_to_end(raw), END_TO_END
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        say("failed: %s" % e)
        return 1
    failed_checks = [c for c in raw["checks"] if not c["ok"]]
    for check in failed_checks:
        say("check failed: %s: %s" % (check["name"], check["detail"]))
    say("%d checks passed, %d failed"
        % (len(raw["checks"]) - len(failed_checks), len(failed_checks)))
    result = {
        "correct": raw["failed"] == 0 and not failed_checks,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    benchstats.validate_result(result, units)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
