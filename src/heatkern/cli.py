"""Command-line interface: kernel/field dumps as CSV and the validation suite.

Exit codes: 0 success, 1 validation failures, 2 configuration errors,
3 numerical failures.  All numeric output is written with 17 significant
digits and a fixed evaluation order, so identical configurations produce
byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

from . import burgers as bg
from . import checks
from . import kernel as kn
from .characteristic import solve_characteristic
from .coefficients import from_config, profile
from .errors import (BlowUpError, DomainError, IntegrationError,
                     QuadratureError, SingularityError, StabilityError)
from .riccati import fundamental

NUMERICAL_ERRORS = (IntegrationError, BlowUpError, QuadratureError,
                    StabilityError, DomainError, SingularityError,
                    OverflowError, ZeroDivisionError)


class ConfigError(ValueError):
    pass


def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a configuration error (exit code 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"{self.prog}: configuration error: {message}\n")


def _configured(build, *args, **kwargs):
    """``build(*args, **kwargs)``, whose ValueError or TypeError is a
    configuration error."""
    try:
        return build(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and n >= 1
            and (hi == lo if n == 1 else hi > lo)):
        raise ConfigError(f"grid needs finite lo < hi with n >= 2, or lo = hi "
                          f"with n = 1, got {text!r}")
    return np.linspace(lo, hi, n)


def _coefficients(args) -> "CoefficientSet":
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as exc:    # ValueError: not JSON text
            raise ConfigError(f"cannot read --config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"--config must hold a JSON object, "
                              f"got {type(cfg).__name__}")
        return _configured(from_config, cfg.get("coefficients", cfg))
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        try:
            params[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"--param {item!r}: {exc}") from exc
    return _configured(profile, args.profile, T=args.T, **params)


def _output(path):
    if path in (None, "-"):
        return nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot open --out: {exc}") from exc


def _gnuplot(args, columns, mode="lines"):
    if not args.gnuplot:
        return
    if args.out in (None, "-"):
        print("--gnuplot requires --out", file=sys.stderr)
        return
    script = args.out + ".gp"
    with open(script, "w") as fh:
        fh.write("set datafile separator ','\n")
        if mode == "splot":
            fh.write("set hidden3d\n")
            fh.write(f"splot '{args.out}' every ::1 using {columns} with pm3d\n")
        else:
            fh.write(f"plot '{args.out}' every ::1 using {columns} "
                     f"with lines title 'heatkern'\n")
        fh.write("pause -1\n")


def _phi_from_args(args) -> kn.InitialData:
    if args.phi == "gaussian":
        return kn.InitialData.gaussian(width=args.phi_width,
                                       center=args.phi_center, L=args.L)
    if args.phi == "ones":
        L = args.L if args.L is not None else 30.0
        return kn.InitialData.from_callable(np.ones_like, L=L)
    raise ConfigError(f"unknown --phi {args.phi!r}")


def cmd_kernel(args) -> int:
    coeffs = _coefficients(args)
    K = kn.make_kernel(coeffs, tol=args.tol)
    xs = _parse_grid(args.grid)
    grid = K.evaluate(xs[:, None], xs[None, :], args.t)
    n = len(xs)
    with _output(args.out) as fh:
        kn.write_csv(fh, ("x", "y", "t", "K"),
                     (np.repeat(xs, n), np.tile(xs, n), np.full(n * n, args.t),
                      grid.ravel()))
    _gnuplot(args, "1:2:4", mode="splot")
    return 0


def cmd_solve(args) -> int:
    coeffs = _coefficients(args)
    K = kn.make_kernel(coeffs, tol=args.tol)
    phi = _configured(_phi_from_args, args)
    field = kn.solve_ivp(K, phi, _parse_grid(args.grid), args.t)
    with _output(args.out) as fh:
        field.to_csv(fh, header=("t", "x", "u"))
    _gnuplot(args, "2:3")
    return 0


def cmd_burgers(args) -> int:
    coeffs = _coefficients(args)
    xs = _parse_grid(args.grid)
    if args.v0 == "bateman":
        wave = _configured(bg.BatemanWave, A=args.A, V=args.V, a=coeffs.a(0.0),
                           c=args.c, sign=args.sign)
        anti = (wave.initial_antiderivative() if args.sign == "-" else None)
        prob = bg.BurgersProblem(coeffs, wave.initial_profile(), xs,
                                 v0_antiderivative=anti, tol=args.tol)
    elif args.v0 == "gaussian":
        amp = args.v0_amplitude
        prob = bg.BurgersProblem(coeffs, lambda y: amp * np.exp(-y * y), xs,
                                 tol=args.tol)
    else:
        raise ConfigError(f"unknown --v0 {args.v0!r}")
    field = bg.solve_burgers_ivp(prob, args.t)
    with _output(args.out) as fh:
        field.to_csv(fh, header=("t", "x", "v"))
    _gnuplot(args, "2:3")
    return 0


def cmd_wave(args) -> int:
    coeffs = _coefficients(args)
    window = args.window.split(":")
    if len(window) != 2:
        raise ConfigError("--window must be lo:hi")
    spec = _configured(lambda: bg.TravelingWaveSpec(
        c0=args.c0, c1=args.c1, c2=args.c2, c3=args.c3, c4=args.c4,
        beta0_init=args.beta0, gamma0_init=args.gamma0,
        z_window=(float(window[0]), float(window[1])), F0=args.F0))
    tw = bg.traveling_wave(spec, coeffs.a, coeffs.c, T=coeffs.domain_end)
    if tw.poles:
        print("profile poles at z = "
              + ", ".join(f"{p:.12g}" for p in tw.poles), file=sys.stderr)
    xs = _parse_grid(args.grid)
    v = tw(xs, args.t)
    with _output(args.out) as fh:
        kn.write_csv(fh, ("t", "x", "v"), (np.full(len(xs), args.t), xs, v))
    _gnuplot(args, "2:3")
    return 0


def cmd_riccati(args) -> int:
    if not (args.tmin == args.tmax if args.points == 1
            else args.tmin < args.tmax):
        raise ConfigError(f"--tmin/--tmax need tmin < tmax, or tmin = tmax "
                          f"with --points 1, got {args.tmin:g} and "
                          f"{args.tmax:g} with --points {args.points}")
    coeffs = _coefficients(args)
    chs = solve_characteristic(coeffs, tol=args.tol)
    ts = np.geomspace(args.tmin, min(args.tmax, chs.t_last), args.points)
    if args.characteristic:
        columns = chs.standard(ts)
        header = ("t", "mu0", "dmu0", "mu1", "dmu1", "h")
    else:
        columns = fundamental(chs).values(ts)[1:]
        header = ("t", "alpha0", "beta0", "gamma0", "delta0", "eps0", "kappa0")
    with _output(args.out) as fh:
        kn.write_csv(fh, header, (ts, *columns))
    _gnuplot(args, "1:2")
    return 0


def cmd_validate(args) -> int:
    results = checks.run_checks(only=args.only)
    if not results:
        print("no checks matched the filter", file=sys.stderr)
        return 2
    print(checks.format_table(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heatkern",
        description="Gaussian-form fundamental solutions of 1-D "
                    "variable-coefficient diffusion equations, Cauchy and "
                    "Burgers-type solvers, and a cross-validation suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, profile_default="constant-heat"):
        p.add_argument("--profile", default=profile_default,
                       help="coefficient profile name")
        p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="profile parameter (repeatable)")
        p.add_argument("--T", type=float, default=2.5,
                       help="coefficient domain end")
        p.add_argument("--tol", type=_positive, default=1e-10,
                       help="ODE integration tolerance")
        p.add_argument("--config", help="JSON file with a 'coefficients' "
                                        "sub-schema (overrides profile flags)")
        p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
        p.add_argument("--gnuplot", action="store_true",
                       help="also emit a gnuplot script next to the CSV")

    p = sub.add_parser("kernel", help="dump K(x, y, t) on a grid")
    common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", default="-3:3:61")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("solve", help="solve the Cauchy problem by quadrature")
    common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", default="-4:4:81")
    p.add_argument("--phi", default="gaussian", help="gaussian | ones")
    p.add_argument("--phi-width", type=_positive, default=1.0)
    p.add_argument("--phi-center", type=_finite, default=0.0)
    p.add_argument("--L", type=_positive, default=None,
                   help="truncation half-width for the initial data")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("burgers", help="solve the Burgers-type Cauchy problem")
    common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", default="-4:4:161")
    p.add_argument("--v0", default="bateman", help="bateman | gaussian")
    p.add_argument("--A", type=_finite, default=1.0)
    p.add_argument("--V", type=_finite, default=0.0)
    p.add_argument("--c", type=_finite, default=0.0)
    p.add_argument("--sign", choices=["+", "-"], default="-")
    p.add_argument("--v0-amplitude", type=_finite, default=0.5)
    p.set_defaults(func=cmd_burgers)

    p = sub.add_parser("wave", help="construct a traveling-wave solution")
    common(p)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--grid", default="-2:2:101")
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--c1", type=float, default=0.0)
    p.add_argument("--c2", type=float, default=0.0)
    p.add_argument("--c3", type=float, default=0.0)
    p.add_argument("--c4", type=float, default=0.0)
    p.add_argument("--beta0", type=float, default=1.0)
    p.add_argument("--gamma0", type=float, default=0.0)
    p.add_argument("--F0", type=float, default=-0.5)
    p.add_argument("--window", default="-3:5", help="z-window lo:hi")
    p.set_defaults(func=cmd_wave)

    p = sub.add_parser("riccati", help="dump the fundamental coefficients")
    common(p)
    p.add_argument("--tmin", type=_positive, default=1e-3)
    p.add_argument("--tmax", type=_positive, default=2.0)
    p.add_argument("--points", type=_count, default=50)
    p.add_argument("--characteristic", action="store_true",
                   help="dump mu0, mu1, h instead")
    p.set_defaults(func=cmd_riccati)

    p = sub.add_parser("validate", help="run the cross-validation suite")
    p.add_argument("--only", default=None,
                   help="run only checks whose name contains this substring")
    p.set_defaults(func=cmd_validate)

    return parser


def _merge_dash_values(argv):
    """Let ``--grid -3:3:121`` work although the value starts with a dash."""
    merged = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in ("--grid", "--window") and i + 1 < len(argv) \
                and argv[i + 1].startswith("-") and ":" in argv[i + 1]:
            merged.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            merged.append(tok)
    return merged


# Building the parser costs milliseconds; parse_args leaves it unchanged, so
# one instance serves every main() call in the process.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_merge_dash_values(list(argv)))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
