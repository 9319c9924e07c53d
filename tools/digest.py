"""SHA-256 digests of heatkern's outputs, per section and overall.

Two trees that print the same digests produce the same bytes on every CLI
dump below, the same ``repr`` of every validate measurement and the same
bits of the characteristic states, counters and validity ends.  A
``cli/<command>`` line digests one command's dumps alone, so a change
names the command whose output moved; the overall line covers the three
sections.  Run

    python tools/digest.py                 # this tree's src/
    python tools/digest.py --src OTHER/src  # another checkout's

and compare the printed lines.  To see by how much outputs moved, save the
numbers that are hashed from each tree and compare the two files:

    python tools/digest.py --src OTHER/src --save old.json
    python tools/digest.py --save new.json
    python tools/digest.py --compare old.json new.json

The comparison prints, per CLI command and per section, how many values
differ and the largest difference relative to the two values and to the
largest |value| of the dump, check or state array it belongs to, and the
validate measurements that moved.  Text other than numbers (headers, exit
codes, messages) is compared as a whole per dump.

The tool reads only ``heatkern.cli.main``, ``heatkern.checks.run_checks``,
``solve_characteristic`` and the ``states``, ``steps``, ``nfev``,
``T_valid`` and ``end_cause`` of its result, so it compares checkouts older
than itself like with like.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

import numpy as np

TOLS = (1e-10, 1e-12)
BUILTINS = {
    "heat": ["--profile", "constant-heat"],
    "cable": ["--profile", "cable"],
    "fokker-planck": ["--profile", "fokker-planck"],
    "ou-drift": ["--profile", "ou-drift", "--param", "k=1", "--param", "g=0.5"],
}
# polynomial tables {name: [c0, c1, ...]} of the custom sets, T = 2
MIXED = {"a": [1.0, 0.3], "b": [0.0, 0.1], "c": [0.2, -0.1], "d": [0.1],
         "f": [0.0, 0.2], "g": [0.3, 0.1]}
STRONG = {"a": [1.70, 0.30, -0.50], "b": [1.77], "c": [-0.95, -1.95, -0.068],
          "d": [1.89], "f": [1.59], "g": [0.415, 0.061]}
COMMANDS = {
    "kernel": ["kernel", "--t", "0.5", "--grid", "-3:3:21"],
    "riccati": ["riccati"],
    "riccati-characteristic": ["riccati", "--characteristic"],
    "solve": ["solve", "--t", "0.5", "--grid", "-4:4:41"],
    "burgers-bateman": ["burgers", "--t", "0.5", "--grid", "-4:4:41"],
    "burgers-gaussian": ["burgers", "--v0", "gaussian", "--t", "0.5",
                         "--grid", "-4:4:41"],
    # v0 near -400: the tilted peak sits hundreds of sigma from the mean
    "burgers-tilt": ["burgers", "--V", "400", "--t", "0.5", "--grid", "-4:4:41"],
    # a late t on a wide grid: V0's window reaches its octave cells past 32
    "burgers-wide": ["burgers", "--v0", "gaussian", "--t", "2.4",
                     "--grid", "-30:30:13"],
    "wave": ["wave"],
}
# the sets whose characteristic states are hashed: (profile, T, params, tols)
STATE_SETS = {
    "heat": ("constant-heat", 2.5, {}, TOLS),
    "cable": ("cable", 2.5, {}, TOLS),
    "fokker-planck": ("fokker-planck", 2.5, {}, TOLS),
    "ou-drift": ("ou-drift", 2.5, {"k": 1.0, "g": 0.5}, TOLS),
    "mixed": ("custom", 2.0, {"poly": MIXED}, TOLS),
    "ou-k1e4": ("ou-drift", 2.5, {"k": 1e4}, TOLS),
    "b-4": ("custom", 2.0, {"poly": {"a": [1.0], "b": [-4.0]}}, TOLS),
    "c-100": ("custom", 2.0, {"poly": {"a": [1.0], "b": [1.0], "c": [-100.0]}},
              (1e-12,)),
}


def _hash(chunks) -> str:
    """The digest of text chunks (UTF-8) and arrays (their bytes)."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(np.ascontiguousarray(chunk).tobytes()
                 if isinstance(chunk, np.ndarray) else chunk.encode())
    return h.hexdigest()


def cli_chunks():
    """(command, label, chunk): exit code, stdout and stderr of every CLI
    run, in a fixed order."""
    from heatkern.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        sets = dict(BUILTINS)
        for name, poly in (("mixed", MIXED), ("strong", STRONG)):
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w") as fh:
                json.dump({"coefficients": {"profile": "custom", "poly": poly,
                                            "T": 2.0}}, fh)
            sets[name] = ["--config", path]
        for set_name, set_args in sets.items():
            for tol in TOLS:
                for cmd_name, cmd in COMMANDS.items():
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = main([*cmd, *set_args, "--tol", repr(tol)])
                    label = f"{set_name} {tol!r}"
                    yield cmd_name, label, f"{label} {cmd_name} exit {code}\n"
                    yield cmd_name, label, out.getvalue()
                    yield cmd_name, label, err.getvalue()


def validate_chunks():
    from heatkern.checks import run_checks
    for r in run_checks():
        yield "validate", r.name, f"{r.name} {r.measured!r} {r.passed}\n"


def state_chunks():
    """States at 333 times (one array query) and at 17 float times, with the
    counters and the validity end, or the error a solve raises."""
    from heatkern.characteristic import solve_characteristic
    from heatkern.coefficients import profile
    for name, (kind, T, params, tols) in STATE_SETS.items():
        for tol in tols:
            label = f"{name} {tol!r}"
            yield "states", label, f"{label}\n"
            try:
                chs = solve_characteristic(profile(kind, T=T, **params), tol=tol)
            except Exception as exc:   # a typed failure is an output too
                yield "states", label, f"{type(exc).__name__}: {exc}\n"
                continue
            yield "states", label, (f"{chs.steps} {chs.nfev} {chs.T_valid!r} "
                                    f"{chs.end_cause}\n")
            end = chs.T_valid if chs.end_cause == "a-zero" else T
            ts = np.linspace(0.0, end, 333)
            yield "states", label, chs.states(ts)
            for t in np.geomspace(1e-12, end, 17).tolist():
                yield "states", label, np.asarray(chs.states(t))


def _numbers(chunk):
    """(text with every number replaced by #, the numbers) of a chunk."""
    if isinstance(chunk, np.ndarray):
        return "<array>", np.asarray(chunk, dtype=float).ravel().tolist()
    text, values = [], []
    for token in re.split(r"([,\s]+)", chunk):
        try:
            values.append(float(token))
            text.append("#")
        except ValueError:
            text.append(token)
    return "".join(text), values


def _record(runs) -> dict:
    """{group: {label: {"text": [...], "values": [...]}}} of the chunks."""
    saved = {}
    for group, label, chunk in runs:
        entry = saved.setdefault(group, {}).setdefault(
            label, {"text": [], "values": []})
        text, values = _numbers(chunk)
        entry["text"].append(text)
        entry["values"] += values
    return saved


SECTIONS = {"validate": validate_chunks, "states": state_chunks}


def _moved(old: dict, new: dict):
    """(labels, labels whose text or count differs, values, differing
    values, max relative difference, max difference / the label's max
    |value|) over the labels of one group."""
    labels = sorted(set(old) | set(new))
    shape = count = differ = 0
    rel = to_scale = 0.0
    for label in labels:
        a, b = old.get(label), new.get(label)
        if a is None or b is None or a["text"] != b["text"] \
                or len(a["values"]) != len(b["values"]):
            shape += 1
            continue
        x, y = np.array(a["values"], dtype=float), np.array(b["values"], dtype=float)
        count += len(x)
        moved = x.view(np.int64) != y.view(np.int64)    # -0.0 and 0.0 differ
        if not moved.any():
            continue
        differ += int(moved.sum())
        both = np.concatenate((x, y))
        scale = np.max(np.abs(both[np.isfinite(both)]), initial=0.0)
        x, y = x[moved], y[moved]
        with np.errstate(invalid="ignore"):
            d = np.abs(x - y)
        d[(x == y) | np.isnan(x) & np.isnan(y)] = 0.0   # -0.0 and 0.0, NaNs
        rel = max(rel, _worst(d, np.maximum(np.abs(x), np.abs(y))))
        to_scale = max(to_scale, _worst(d, scale))
    return len(labels), shape, count, differ, rel, to_scale


def _worst(d, size) -> float:
    """max d / size, where 0 / 0 is 0 and a NaN, from a NaN on one side only
    or an inf that moved, is inf."""
    with np.errstate(invalid="ignore", divide="ignore"):
        q = np.where(d == 0.0, 0.0, d / size)
    return float(np.max(np.where(np.isnan(q), np.inf, q)))


def compare(old_path: str, new_path: str) -> int:
    with open(old_path) as fh:
        old = json.load(fh)["values"]
    with open(new_path) as fh:
        new = json.load(fh)["values"]
    print(f"{'group':<28} {'dumps':>6} {'text':>5} {'values':>8} {'differ':>7} "
          f"{'max rel':>9} {'max/scale':>9}")

    def row(name, stats):
        n, shape, count, differ, rel, to_scale = stats
        print(f"{name:<28} {n:>6} {shape:>5} {count:>8} {differ:>7} "
              f"{rel:>9.2e} {to_scale:>9.2e}")

    def merged(groups, side):
        return {f"{g} {label}": entry for g in groups
                for label, entry in side.get(g, {}).items()}

    commands = sorted({g for side in (old, new) for g in side
                       if g.startswith("cli/")})
    for group in commands:
        row(group, _moved(old.get(group, {}), new.get(group, {})))
    row("cli", _moved(merged(commands, old), merged(commands, new)))
    for section in SECTIONS:
        row(section, _moved(old.get(section, {}), new.get(section, {})))
    for label in sorted(set(old.get("validate", {})) & set(new.get("validate", {}))):
        a, b = old["validate"][label]["values"], new["validate"][label]["values"]
        if a != b:
            print(f"moved {label}: {' '.join(map(repr, a))} -> "
                  f"{' '.join(map(repr, b))}")
    return 0


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="the src/ directory whose heatkern is digested")
    parser.add_argument("--save", metavar="FILE",
                        help="also write the digests and the hashed numbers "
                             "to FILE (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two files written by --save; runs "
                             "nothing else")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    sys.path.insert(0, os.path.abspath(args.src))
    runs = list(cli_chunks())
    digests = {"cli": _hash(chunk for _, _, chunk in runs)}
    print(f"{'cli':<9} {digests['cli']}", flush=True)
    for name in COMMANDS:
        digests[f"cli/{name}"] = _hash(c for n, _, c in runs if n == name)
        print(f"cli/{name} {digests[f'cli/{name}']}")
    saved = _record((f"cli/{n}", label, c) for n, label, c in runs)
    for section, section_chunks in SECTIONS.items():
        chunks = list(section_chunks())
        digests[section] = _hash(c for _, _, c in chunks)
        saved.update(_record(chunks))
        print(f"{section:<9} {digests[section]}", flush=True)
    overall = _hash(f"{k} {digests[k]}" for k in ("cli", *SECTIONS))
    print(f"{'overall':<9} {overall}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"digests": {**digests, "overall": overall},
                       "values": saved}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
