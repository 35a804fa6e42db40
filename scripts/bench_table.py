#!/usr/bin/env python3
"""Render the end-to-end throughput table of EXPERIMENTS.md from BENCH_e2e.json,
the `--out` record of the BENCHMARK.json command.

    python3 scripts/bench_table.py          # print the table
    python3 scripts/bench_table.py --check  # exit 1 if EXPERIMENTS.md differs
"""
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BEGIN, END = "<!-- bench_table:begin -->\n", "<!-- bench_table:end -->"


def num(x):
    return f"{x / 1e6:.2f}M" if x >= 1e6 else f"{x / 1e3:.1f}k" if x >= 1e4 else f"{x:.0f}"


def spread(m):
    return f"{num(m['median'])} [{num(m['q1'])}–{num(m['q3'])}]"


def render(doc):
    lines = [
        f"`seconds` {doc['seconds']}, `seed` {doc['seed']}, `host_parallelism` "
        f"{doc['host_parallelism']}: median [q1–q3] of k closed-loop repeats for "
        "frames/s, median of k paced runs for latency.",
        "",
        "| workload | det frames/s | threaded frames/s | p50 µs | p99 µs | frames ok | k (closed / paced) |",
        "|---|---:|---:|---:|---:|---:|---:|",
    ]
    for w in doc["workloads"]:
        m = w["metrics"]
        lines.append(
            f"| `{w['workload']}` | {spread(m['det_frames_per_s'])} "
            f"| {spread(m['threaded_frames_per_s'])} | {m['latency_p50_us']['median']:.1f} "
            f"| {m['latency_p99_us']['median']:.1f} | {m['frames_ok_share']['median']:g} "
            f"| {m['det_frames_per_s']['k']} / {m['latency_p50_us']['k']} |"
        )
    return "\n".join(lines) + "\n"


table = render(json.loads((ROOT / "BENCH_e2e.json").read_text()))
if sys.argv[1:] != ["--check"]:
    print(table, end="")
    sys.exit(0)
text = (ROOT / "EXPERIMENTS.md").read_text()
start = text.find(BEGIN)
if start < 0 or text[start + len(BEGIN):text.find(END, start)] != table:
    sys.exit("EXPERIMENTS.md differs from BENCH_e2e.json; paste in the output of "
             "`python3 scripts/bench_table.py`:\n" + table)
print("EXPERIMENTS.md throughput table matches BENCH_e2e.json")
