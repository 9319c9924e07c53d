"""SHA-256 digests of heatkern's outputs, per section and overall.

Two trees that print the same digests produce the same bytes on every CLI
dump below, the same ``repr`` of every validate measurement and the same
bits of the characteristic states, counters and validity ends.  A
``cli/<command>`` line digests one command's dumps alone, so a change
names the command whose output moved; the overall line covers the three
sections.  Run

    python tools/digest.py                 # this tree's src/
    python tools/digest.py --src OTHER/src  # another checkout's

and compare the printed lines.  The tool reads only ``heatkern.cli.main``,
``heatkern.checks.run_checks``, ``solve_characteristic`` and the
``states``, ``steps``, ``nfev``, ``T_valid`` and ``end_cause`` of its
result, so it compares checkouts older than itself like with like.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
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
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
    return h.hexdigest()


def cli_chunks():
    """(command, chunk): exit code, stdout and stderr of every CLI run, in a
    fixed order."""
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
                    yield cmd_name, f"{set_name} {tol!r} {cmd_name} exit {code}\n"
                    yield cmd_name, out.getvalue().encode()
                    yield cmd_name, err.getvalue().encode()


def validate_chunks():
    from heatkern.checks import run_checks
    for r in run_checks():
        yield f"{r.name} {r.measured!r} {r.passed}\n"


def state_chunks():
    """States at 333 times (one array query) and at 17 float times, with the
    counters and the validity end, or the error a solve raises."""
    from heatkern.characteristic import solve_characteristic
    from heatkern.coefficients import profile
    for name, (kind, T, params, tols) in STATE_SETS.items():
        for tol in tols:
            yield f"{name} {tol!r}\n"
            try:
                chs = solve_characteristic(profile(kind, T=T, **params), tol=tol)
            except Exception as exc:   # a typed failure is an output too
                yield f"{type(exc).__name__}: {exc}\n"
                continue
            yield (f"{chs.steps} {chs.nfev} {chs.T_valid!r} "
                   f"{chs.end_cause}\n")
            end = chs.T_valid if chs.end_cause == "a-zero" else T
            ts = np.linspace(0.0, end, 333)
            yield np.ascontiguousarray(chs.states(ts)).tobytes()
            for t in np.geomspace(1e-12, end, 17).tolist():
                yield np.asarray(chs.states(t)).tobytes()


SECTIONS = {"validate": validate_chunks, "states": state_chunks}


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="the src/ directory whose heatkern is digested")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    runs = list(cli_chunks())
    digests = {"cli": _hash(chunk for _, chunk in runs)}
    print(f"{'cli':<9} {digests['cli']}", flush=True)
    for name in COMMANDS:
        print(f"cli/{name} {_hash(c for n, c in runs if n == name)}")
    for section, chunks in SECTIONS.items():
        digests[section] = _hash(chunks())
        print(f"{section:<9} {digests[section]}", flush=True)
    print(f"{'overall':<9} {_hash(f'{k} {v}' for k, v in digests.items())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
