"""Per-workload, per-layer before/after table from traced result files.

    python3 perfbench/diff.py BEFORE AFTER

BEFORE and AFTER are result files written by ``run.py --trace 1``
(``.perfbench/BENCH_<workload>_seed<n>_trace1.json``) or directories holding
them; files are paired by workload and seed.  Each row shows a per-layer
metric, its two values and the change relative to BEFORE, followed by the
layers' self times.
"""

import json
import sys
from pathlib import Path


def load(path):
    path = Path(path)
    files = sorted(path.glob("BENCH_*_trace1.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        if rec.get("trace") != 1:
            raise SystemExit(f"{f}: not a traced result (run.py --trace 1)")
        out[rec["workload"], rec["seed"]] = rec
    return out


def change(before, after):
    if before == 0.0:
        return "" if after == 0.0 else "new"
    return f"{(after - before) / abs(before):+.1%}"


def table(before, after):
    lines = []
    for key in sorted(before.keys() & after.keys()):
        b, a = before[key], after[key]
        lines.append(f"## {key[0]} (seed {key[1]})")
        lines.append(f"{'metric':<50} {'before':>12} {'after':>12} {'change':>8}  unit")
        for name, m in b["metrics"].items():
            if name not in a["metrics"]:
                continue
            vb, va = m["value"], a["metrics"][name]["value"]
            if vb == 0.0 and va == 0.0:
                continue        # a layer this workload does not run
            lines.append(f"{name:<50} {vb:>12.5g} {va:>12.5g} "
                         f"{change(vb, va):>8}  {m['unit']}")
        for layer in sorted(b.get("self_s", {}).keys() | a.get("self_s", {}).keys()):
            vb = b.get("self_s", {}).get(layer, 0.0)
            va = a.get("self_s", {}).get(layer, 0.0)
            lines.append(f"{'self_s.' + layer:<50} {vb:>12.5g} {va:>12.5g} "
                         f"{change(vb, va):>8}  s")
        lines.append("")
    for key in sorted(before.keys() ^ after.keys()):
        lines.append(f"unpaired: {key[0]} seed {key[1]}")
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    print(table(load(argv[0]), load(argv[1])))


if __name__ == "__main__":
    main(sys.argv[1:])
