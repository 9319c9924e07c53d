"""Seeded op lists for the heatkern benchmark workloads.

Generation uses numpy only, never heatkern: the program under test receives
nothing but the inputs made here (coefficient tables, times, initial-data
parameters and grids).  The same seed always gives the same op list.

Coefficient sets are written in the ``from_config`` schema, so one spec
serves the CLI (``--config`` file or ``--profile``/``--param`` flags), the
library (``heatkern.from_config``) and the reference checker alike.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("kernel-sweep", "cauchy", "burgers", "validate")

T_BUILTIN = 2.5   # domain end of the built-in profiles, as in ``validate``
T_CUSTOM = 2.0    # domain end of the seeded polynomial sets
T_MAX_BUILTIN = 2.0   # largest query time, as in the closed-form check
T_MAX_CUSTOM = 1.8

# Burgers grids are runs of nodes of the finite-difference oracle's grid
# (validate's L = 8, n = 1601, dx = 0.01), so its reference needs no
# interpolation.  The oracle pins its edge values; keeping the grids inside
# [-3, 3] keeps that pinning (wrong where f, b != 0 make v grow in |x|) at
# least five units away.
FD_L = 8.0
FD_N = 1601
FD_DX = 2.0 * FD_L / (FD_N - 1)
BURGERS_STRIDE = 4          # grid spacing 0.04, as in the Bateman check
BURGERS_POINTS = 15

CAUCHY_GRID = (-4.0, 4.0, 161)
KERNEL_GRID_POINTS = 21
RICCATI_POINTS = 50


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def builtin_specs(rng) -> dict:
    """The four built-in profiles with seeded parameters."""
    return {
        "constant-heat": {"profile": "constant-heat",
                          "params": {"a": _u(rng, 0.6, 1.4)}, "T": T_BUILTIN},
        "cable": {"profile": "cable",
                  "params": {"lam": _u(rng, 0.7, 1.3), "tau": _u(rng, 1.5, 3.0)},
                  "T": T_BUILTIN},
        "fokker-planck": {"profile": "fokker-planck", "params": {},
                          "T": T_BUILTIN},
        "ou-drift": {"profile": "ou-drift",
                     "params": {"a": _u(rng, 0.6, 1.4), "k": _u(rng, 0.6, 1.2),
                                "g": _u(rng, -0.8, 0.8)},
                     "T": T_BUILTIN},
    }


def custom_spec(rng) -> dict:
    """A polynomial coefficient set with a(t) >= 0.3 on [0, T_CUSTOM].

    b >= 0 and the small ranges of c, d keep the characteristic solution
    mu0 free of zeros on [0, T_CUSTOM], so every query time lies below
    T_valid, and keep the directly integrated reference trajectory bounded.
    """
    poly = {
        "a": [_u(rng, 0.6, 1.4), _u(rng, -0.15, 0.15)],
        "b": [_u(rng, 0.0, 0.1)],
        "c": [_u(rng, -0.4, 0.4), _u(rng, -0.2, 0.2)],
        "d": [_u(rng, -0.3, 0.3)],
        "f": [_u(rng, -0.3, 0.3), _u(rng, -0.2, 0.2)],
        "g": [_u(rng, -0.5, 0.5), _u(rng, -0.2, 0.2)],
    }
    return {"profile": "custom", "poly": poly, "T": T_CUSTOM}


def t_max(spec) -> float:
    return T_MAX_CUSTOM if spec["profile"] == "custom" else T_MAX_BUILTIN


def _gauss(rng) -> dict:
    # width 1 as in validate's Cauchy checks: narrower bumps far from the
    # kernel's own window are silently missed by the quadrature (see the
    # known-defect tests)
    return {"type": "gauss", "amp": _u(rng, 0.5, 2.0),
            "center": _u(rng, -1.0, 1.0), "width": 1.0}


def _numbered(ops):
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def kernel_sweep(rng) -> list:
    """CLI ``kernel`` and ``riccati`` runs; every op rebuilds the kernel."""
    sets = list(builtin_specs(rng).values())
    sets += [custom_spec(rng) for _ in range(6)]
    ops = []
    for k, spec in enumerate(sets):
        config = f"custom{k}.json" if spec["profile"] == "custom" else None
        for tol in (1e-10, 1e-12):
            center = _u(rng, -1.0, 1.0)
            ops.append({"kind": "cli-kernel", "coeffs": spec, "config": config,
                        "tol": tol, "t": _u(rng, 0.1, t_max(spec)),
                        "grid": [center - 2.0, center + 2.0, KERNEL_GRID_POINTS]})
            ops.append({"kind": "cli-riccati", "coeffs": spec, "config": config,
                        "tol": tol, "tmin": _u(rng, 1e-3, 1e-2),
                        "tmax": _u(rng, 1.0, t_max(spec)),
                        "points": RICCATI_POINTS})
    order = rng.permutation(len(ops))
    return _numbered([ops[i] for i in order])


def cauchy_kernels(rng) -> dict:
    """Kernels the ``cauchy`` workload builds once, during set-up."""
    kernels = builtin_specs(rng)
    kernels["custom-0"] = custom_spec(rng)
    kernels["custom-1"] = custom_spec(rng)
    kernels["ou-mean"] = {"profile": "ou-drift",
                          "params": {"a": _u(rng, 0.6, 1.4),
                                     "k": _u(rng, 0.6, 1.2), "g": 0.0},
                          "T": T_BUILTIN}
    return kernels


def cauchy(rng) -> tuple[dict, list]:
    """Many Cauchy solves (and a few expectations) on prebuilt kernels."""
    kernels = cauchy_kernels(rng)
    ops = []
    for key, spec in kernels.items():
        if key == "ou-mean":
            continue
        hi = t_max(spec)
        for _ in range(4):
            ops.append({"kind": "solve", "kernel": key, "phi": _gauss(rng),
                        "t": [_u(rng, 0.1, hi)], "grid": list(CAUCHY_GRID)})
        for n_t in (2, 3):
            ts = sorted(_u(rng, 0.1, hi) for _ in range(n_t))
            ops.append({"kind": "solve", "kernel": key, "phi": _gauss(rng),
                        "t": ts, "grid": list(CAUCHY_GRID)})
        ops.append({"kind": "solve", "kernel": key,
                    "phi": {"type": "box", "L": _u(rng, 4.0, 7.0)},
                    "t": [_u(rng, 0.1, hi)], "grid": list(CAUCHY_GRID)})
    for moment in (1, 2, 1, 2, 1, 2):
        x = _u(rng, 0.5, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        ops.append({"kind": "expect", "kernel": "ou-mean", "moment": moment,
                    "x": x, "t": _u(rng, 0.2, T_MAX_BUILTIN)})
    order = rng.permutation(len(ops))
    return kernels, _numbered([ops[i] for i in order])


def _burgers_grid(rng) -> list:
    """[start node, stride, points] of a run of FD-grid nodes in [-3, 3]."""
    x0 = _u(rng, -3.0, 3.0 - BURGERS_STRIDE * (BURGERS_POINTS - 1) * FD_DX)
    return [round((x0 + FD_L) / FD_DX), BURGERS_STRIDE, BURGERS_POINTS]


def burgers_problems(rng) -> list:
    heat = lambda: {"profile": "constant-heat",  # noqa: E731
                    "params": {"a": _u(rng, 0.7, 1.2)}, "T": T_BUILTIN}
    kink = lambda: {"type": "kink", "A": _u(rng, 0.6, 1.2),  # noqa: E731
                    "V": _u(rng, -0.3, 0.3), "c": _u(rng, -0.5, 0.5)}
    gauss = lambda: {"type": "gauss", "amp": _u(rng, 0.2, 0.6),  # noqa: E731
                     "center": _u(rng, -0.5, 0.5)}
    builtins = builtin_specs(rng)
    problems = [
        {"coeffs": heat(), "v0": kink(), "analytic": True},
        {"coeffs": heat(), "v0": kink(), "analytic": True},
        {"coeffs": heat(), "v0": kink(), "analytic": False},
        {"coeffs": heat(), "v0": gauss(), "analytic": False},
        {"coeffs": builtins["fokker-planck"], "v0": gauss(), "analytic": False},
        {"coeffs": builtins["ou-drift"], "v0": gauss(), "analytic": False},
        {"coeffs": custom_spec(rng), "v0": gauss(), "analytic": False},
        {"coeffs": custom_spec(rng), "v0": gauss(), "analytic": False},
    ]
    for k, prob in enumerate(problems):
        prob["name"] = f"p{k}"
        prob["grid"] = _burgers_grid(rng)
    return problems


def burgers(rng) -> tuple[list, list]:
    """Cole–Hopf solves; a problem's first op builds its kernel and V0."""
    problems = burgers_problems(rng)
    slots = np.repeat(np.arange(len(problems)), 3)
    ops = [{"kind": "burgers", "problem": problems[int(k)]["name"],
            "t": _u(rng, 0.15, 0.5)} for k in rng.permutation(slots)]
    return problems, _numbered(ops)


def generate(workload: str, seed: int) -> dict:
    """The inputs of one run: ``{"workload", "seed", "ops", ...}``.

    ``validate`` takes its inputs from the program's own check registry,
    run in registry order, so its op list is filled in by the worker.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of "
                         f"{WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out = {"workload": workload, "seed": seed}
    if workload == "kernel-sweep":
        out["ops"] = kernel_sweep(rng)
    elif workload == "cauchy":
        out["kernels"], out["ops"] = cauchy(rng)
    elif workload == "burgers":
        out["problems"], out["ops"] = burgers(rng)
    else:
        out["ops"] = []
    return out


def config_files(inputs: dict) -> dict:
    """``{file name: JSON config}`` for the custom sets the CLI reads."""
    files = {}
    for op in inputs["ops"]:
        if op.get("config"):
            files[op["config"]] = {"coefficients": op["coeffs"]}
    return files


def burgers_xs(grid) -> np.ndarray:
    start, stride, n = grid
    nodes = np.linspace(-FD_L, FD_L, FD_N)
    return nodes[start:start + stride * (n - 1) + 1:stride]


# ---------------------------------------------------------------- callables
# phi and v0 as handed to the program: math.exp on floats (the scalar path
# the seed program takes), numpy on arrays (for vectorized callers).

def gaussian(amp, center, width):
    """amp * exp(-((y - center) / width)^2) for a float or an array."""
    amp, center, width = float(amp), float(center), float(width)

    def phi(y):
        if type(y) is float:
            return amp * math.exp(-((y - center) / width) ** 2)
        return amp * np.exp(-((np.asarray(y) - center) / width) ** 2)

    return phi


def one(y):
    return 1.0 if type(y) is float else np.ones_like(np.asarray(y, dtype=float))


def moment(k):
    return (lambda y: y) if k == 1 else (lambda y: y * y)
