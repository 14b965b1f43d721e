#!/usr/bin/env python3
"""Two-set agreement check: runs the benchmark twice over, as two sets of
end-to-end runs of one build, and prints per workload x end-to-end metric
each set's median and quartiles and whether the sets agree within the
bounds in BENCHMARK.json.

    python3 perfbench/agree.py

Set A uses seeds 1..10 and set B seeds 11..20, with the workloads
interleaved. Two sets agree on a metric when each set's quartile spread (as
a share of its median) is within the metric's bound and their medians are
within the bound of each other, either way (benchstats.agreement). "steady"
marks spreads below a third of the bound. Every result line is also saved,
with the table, to .bench_build/perfbench/agree.json. Exits 0 only if
everything agrees and every run was correct.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench" / "agree.json"
RUNS = 10


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    print("  %s seed %d: %s" % (workload, seed, "ok" if ok else "FAILED"),
          flush=True)
    return result if ok else None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: ([], []) for w in workloads}
    for index, seeds in enumerate((range(1, RUNS + 1),
                                   range(RUNS + 1, 2 * RUNS + 1))):
        print("set %s" % "AB"[index], flush=True)
        for seed in seeds:
            for workload in workloads:
                results[workload][index].append(
                    run_once(spec, workload, seed))

    rows = []
    all_ok = True
    print("\n%-16s %-15s %29s %29s %13s %8s %6s %s"
          % ("workload", "metric", "set A median [q1, q3]",
             "set B median [q1, q3]", "spread A/B", "B worse", "bound",
             "verdict"))
    for workload in workloads:
        sets = results[workload]
        if any(r is None for r in sets[0] + sets[1]):
            print("%-16s some runs failed; no comparison" % workload)
            all_ok = False
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            verdict = benchstats.agreement(a, b, metric["bound"],
                                           metric["better"])
            row = {
                "workload": workload,
                "metric": name,
                "a": [benchstats.median(a), *benchstats.quartiles(a)],
                "b": [benchstats.median(b), *benchstats.quartiles(b)],
                "bound": metric["bound"],
                **verdict._asdict(),
            }
            rows.append(row)
            all_ok = all_ok and verdict.agree
            print("%-16s %-15s %11.5g [%.5g, %.5g] %11.5g [%.5g, %.5g] "
                  "%6.3f/%5.3f %+8.3f %6.2f %s"
                  % (workload, name, *row["a"], *row["b"], *verdict.spreads,
                     verdict.worse_by, metric["bound"],
                     ("agree" if verdict.agree else "DISAGREE")
                     + (", steady" if verdict.steady else "")))
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps({"rows": rows, "results": results}, indent=1))
    print("\nsaved %s" % OUT)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
