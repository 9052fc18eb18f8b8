"""Compare perfbench result lines of a parent commit and a change, metric by metric.

    python3 .github/compare_perfbench.py parent.jsonl change.jsonl

Each file holds the last line of every run on one side, one per line,
in the order of the alternating pairs: line i of both files is pair i.
Every line must pass check_perfbench.py's strict check. For each
end-to-end metric of BENCHMARK.json the script prints the median per
side, the relative change of the medians (positive is worse), the bound,
the distance between the quartiles of the parent's runs relative to
their median, and in how many pairs the change was better. A metric is
marked unresolved when that spread is wider than its bound, unless every
change run beats every parent run: the runs then cannot show a change
within the bound. Exit status 1 if a line fails its check, the two files
hold different numbers of runs, or a metric is worse than its bound; 0
otherwise, unresolved metrics included.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from check_perfbench import problems  # noqa: E402


def read_runs(path, required):
    """(metrics of each run, messages of the lines that fail the strict check
    or lack a required metric)."""
    runs, found = [], []
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    for number, line in enumerate(lines, 1):
        messages = problems(line, required)
        found.extend(f"{path}:{number}: {message}" for message in messages)
        if not messages:
            runs.append({name: metric["value"] for name, metric in json.loads(line)["metrics"].items()})
    return runs, found


def quartile_spread(values):
    """The distance between the quartiles of ``values``; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def compare(parent, change, metrics):
    """One row per metric: (name, parent median, change median, worsening, bound,
    better pairs, parent spread relative to its median, unresolved)."""
    rows = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        old, new = statistics.median(before), statistics.median(after)
        worsening = (new - old) / old if lower else (old - new) / old
        better = sum(1 for a, b in zip(before, after) if (b < a if lower else b > a))
        spread = quartile_spread(before) / abs(old)
        every_run_better = max(after) < min(before) if lower else min(after) > max(before)
        unresolved = spread > spec["bound"] and not every_run_better
        rows.append((name, old, new, worsening, spec["bound"], better, spread, unresolved))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="result lines of the parent's runs")
    parser.add_argument("change", help="result lines of the change's runs, in the same pair order")
    parser.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"]
    required = [spec["name"] for spec in metrics]
    parent, found = read_runs(args.parent, required)
    change, more = read_runs(args.change, required)
    found += more
    if not found and len(parent) != len(change):
        found.append(f"{len(parent)} parent runs against {len(change)} change runs")
    if not found and not parent:
        found.append("no runs")
    if found:
        for message in found:
            print(f"perfbench comparison: {message}", file=sys.stderr)
        return 1
    worse = False
    print(f"{len(parent)} pairs")
    print(f"{'metric':<14} {'parent':>12} {'change':>12} {'worse by':>9} {'bound':>6} "
          f"{'parent IQR':>10}  better in")
    rows = compare(parent, change, metrics)
    for name, old, new, worsening, bound, better, spread, unresolved in rows:
        flags = ["WORSE THAN ITS BOUND"] if worsening > bound else []
        worse = worse or bool(flags)
        flags += ["unresolved"] if unresolved else []
        print(f"{name:<14} {old:>12.6g} {new:>12.6g} {worsening:>+9.1%} {bound:>6.0%} "
              f"{spread:>10.1%}  {better}/{len(parent)}" + "".join(f"  {flag}" for flag in flags))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
