"""Summarize saved benchmark runs into one BENCH_<n>.json record.

    python3 bench/summarize.py bench/BENCH_0.json runs/*.out

Each input file holds the standard output of one ``bench/run.py`` run.
For every workload and metric the record keeps the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (inter-quartile range
over median) and every value, plus the environment of the first run.
Traced and untraced runs are summarized separately.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(paths):
    groups = {}
    environment = None
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        detail = json.loads(lines[-2])["detail"]
        line = json.loads(lines[-1])
        if environment is None:
            environment = dict(detail["environment"])
            environment.pop("rebased_seed")     # the seeds are per group
        key = (detail["workload"], "traced" if detail["traced"] else "untraced")
        group = groups.setdefault(key, {"runs": 0, "failed": 0, "attempted": 0,
                                        "seeds": [], "metrics": {}})
        group["runs"] += 1
        group["failed"] += line["failed"]
        group["attempted"] += line["attempted"]
        group["seeds"].append(detail["seed"])
        for name, m in line["metrics"].items():
            entry = group["metrics"].setdefault(name, {"unit": m["unit"],
                                                       "values": []})
            entry["values"].append(m["value"])
    out = {"environment": environment, "workloads": {}}
    for (workload, mode), group in sorted(groups.items()):
        for entry in group["metrics"].values():
            values = entry["values"]
            entry["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry["quartiles"] = [q1, q3]
                entry["spread"] = (q3 - q1) / entry["median"] if entry["median"] else None
        out["workloads"].setdefault(workload, {})[mode] = group
    return out


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(summarize(argv[2:]), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
