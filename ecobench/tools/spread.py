#!/usr/bin/env python3
"""Run the benchmark on ten seeds per workload and print, for every
end-to-end metric, the median and the quartile spread (the distance
between the first and third quartile of the ten values, as
statistics.quantiles(values, n=4) gives them, as a share of their
median) next to the metric's bound. The bounds in BENCHMARK.json are
sized from this table: every spread must stay below a third of its
bound. Run from the repository root:

    python3 ecobench/tools/spread.py [first_seed [runs]] > ecobench/baseline/spread_1.tsv
"""
import json
import os
import platform
import statistics
import subprocess
import sys
import time

first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")), "?")
rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
print(f"# ecobench tools/spread.py {first} {runs} ({runs} seeds per workload from {first}, tracing off), "
      f"run_seconds {bench['run_seconds']}, started {time.strftime('%Y-%m-%d %H:%M:%S UTC', time.gmtime())}")
print(f"# box: {os.cpu_count()} vCPU, {cpu}, {rustc}, {platform.system()} {platform.release()}")
print("workload\tmetric\tmedian\tspread_pct\tbound_pct\tvalues")
for w in bench["workloads"]:
    values = {name: [] for name in bounds}
    for seed in range(first, first + runs):
        cmd = bench["command"] + ["--workload", w["name"], "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        # Not a metric: throughput in raw wall-clock time, to show what
        # calibration by the speed probe (1900 us is its usual time) buys.
        probe_us = next(float(l.split("\t")[2]) for l in out.splitlines() if "\tprobe_us\t" in l)
        values.setdefault("raw_ops_per_s", []).append(result["metrics"]["ops_per_s"]["value"] * 1900 / probe_us)
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / statistics.median(vs)
        bound = f"{bounds[name] * 100:.0f}" if name in bounds else "-"
        print(f"{w['name']}\t{name}\t{statistics.median(vs):.6g}\t{spread * 100:.2f}\t"
              f"{bound}\t{' '.join(f'{v:.6g}' for v in vs)}", flush=True)
