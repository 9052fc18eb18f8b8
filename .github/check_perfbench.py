"""Check the result line of a perfbench run, strictly.

    out=$(python3 perfbench/run.py --workload select --seed 1 --seconds 1 --trace 0)
    printf '%s\n' "$out" | python3 .github/check_perfbench.py [required metric ...]

The last line of the run's output must be one JSON object. NaN,
Infinity and -Infinity are rejected while parsing (Python's json module
accepts them, and json.dumps writes them for a non-finite float). The
result must read "correct": true with 0 failed, every metric value must
be a finite number, and every metric named on the command line must be
present. Exit status 0 when all of this holds, 1 otherwise.
"""

import json
import math
import sys


def _reject(constant):
    raise ValueError(f"non-finite constant {constant} in the result line")


def problems(line, required):
    try:
        result = json.loads(line, parse_constant=_reject)
    except ValueError as exc:
        return [f"the last line is not a strict JSON result: {exc}"]
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        return ["the last line is not a result object with a metrics object"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        found.append(f"failed is {result.get('failed')!r}")
    for name, metric in result["metrics"].items():
        value = metric.get("value") if isinstance(metric, dict) else None
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and math.isfinite(value)):
            found.append(f"metric {name} has value {value!r}")
    found.extend(f"metric {name} is missing" for name in required if name not in result["metrics"])
    return found


def main(required):
    lines = sys.stdin.read().splitlines()
    line = lines[-1] if lines else ""
    print(line)
    found = problems(line, required)
    for message in found:
        print(f"perfbench result: {message}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
