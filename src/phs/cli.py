"""Command-line front end.

Subcommands:
    phs check    MODEL            validate a model document
    phs classify MODEL            run the generation tests, emit a JSON verdict
    phs oracle   --n N --count C  randomized classifier/oracle agreement report
    phs simulate MODEL            run the simulator, emit CSV histories

Exit codes: 0 success, 2 validation/schema error, 3 ill-posed simulate
without --allow-illposed, 64 usage error.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from .classifier import classify
from .errors import (
    DomainError,
    IllPosedError,
    PHSError,
    SchemaError,
    ShapeError,
    SpecError,
    ValidationError,
)
from .model import _as_float, load_system
from .oracle import agreement_campaign
from .simulator import SimConfig, run, write_field_csv, write_history_csv

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_ILLPOSED = 3
EXIT_USAGE = 64

_PROFILE_RE = re.compile(r"^\s*([A-Za-z_]+)\s*\((.*)\)\s*$", re.DOTALL)


def _parse_profile(text: str):
    """Parse 'name(arg, ...)' into (name, args tuple)."""
    m = _PROFILE_RE.match(text)
    if not m:
        raise SpecError(f"malformed profile {text!r}; expected name(arg, ...)")
    name = m.group(1).lower()
    body = m.group(2).strip()
    try:
        args = ast.literal_eval(f"({body},)") if body else ()
    # TypeError: a set or dict key that is a list; the last two: too deep a
    # nesting of operators for the parser
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        raise SpecError(f"malformed arguments in profile {text!r}") from None
    return name, args


def _spec_float(v, where: str) -> float:
    """A number of a spec under the rule of model._as_float, and finite."""
    value = _as_float(v, where, SpecError)
    if not math.isfinite(value):
        raise SpecError(f"{where}: expected a finite number, got {value}")
    return value


def _payload(v, name: str):
    """The value of a constant or indicator profile: a number, or a tuple
    of numbers for the whole field."""
    if isinstance(v, tuple):
        return np.array([_spec_float(u, f"{name} value[{k}]") for k, u in enumerate(v)])
    return np.array(_spec_float(v, f"{name} value"))


def _scalar_profile(name: str, args: tuple):
    """One built-in profile as a function of zeta.  May be vector valued
    (constant/indicator with tuple payload).  Every number of the spec is
    finite, and no profile warns at a zeta of [0, 1]."""
    if name == "sine":
        if len(args) != 1:
            raise SpecError("sine takes one numeric argument: sine(k)")
        k = _spec_float(args[0], "sine k")
        if not math.isfinite(k * np.pi):
            raise SpecError(f"sine k = {k:g} is too large: k pi overflows")
        return lambda z: np.sin(k * np.pi * z)
    if name == "gaussian":
        if len(args) != 2:
            raise SpecError("gaussian takes two numeric arguments: gaussian(center, width)")
        center = _spec_float(args[0], "gaussian center")
        width = _spec_float(args[1], "gaussian width")
        if width <= 0.0:
            raise SpecError("gaussian width must be positive")

        def gaussian(z):
            # far from a narrow peak the square overflows, and exp(-inf) = 0;
            # np.square, as a float's ** 2 raises OverflowError
            with np.errstate(over="ignore"):
                return np.exp(-0.5 * np.square((z - center) / width))

        return gaussian
    if name == "constant":
        if len(args) != 1:
            raise SpecError("constant takes one argument: constant(value)")
        value = _payload(args[0], name)
        return lambda z: value
    if name == "indicator":
        if len(args) != 3:
            raise SpecError("indicator takes indicator(a, b, value)")
        a, b = _spec_float(args[0], "indicator a"), _spec_float(args[1], "indicator b")
        if a > b:
            raise SpecError(f"indicator needs a <= b, got ({a}, {b})")
        value = _payload(args[2], name)
        return lambda z: value if a <= z <= b else np.zeros_like(value)
    raise SpecError(f"unknown profile {name!r}")


def x0_from_spec(spec: str, n: int):
    """Build an initial-field sampler from a profile spec string.

    The spec is a semicolon-separated list of per-component profiles from
    {sine(k), gaussian(center, width), constant(v), indicator(a, b, v)}.
    A single scalar profile broadcasts to all components; a single
    constant/indicator with an n-tuple payload defines the whole field.
    """
    parts = [p for p in (s.strip() for s in spec.split(";")) if p]
    if not parts:
        raise SpecError("empty initial-condition spec")
    profiles = [_scalar_profile(*_parse_profile(p)) for p in parts]

    if len(parts) == 1:
        shape = np.shape(profiles[0](0.0))
        if shape == ():
            f = profiles[0]
            return lambda z: np.full(n, f(z), dtype=float)
        if shape == (n,):
            return profiles[0]
        raise SpecError(
            f"single profile yields {shape or 'scalar'} values, needs length {n} or a scalar"
        )
    if len(parts) != n:
        raise SpecError(f"{len(parts)} profiles for a {n}-component system")
    for k, f in enumerate(profiles):
        if np.shape(f(0.0)) != ():
            raise SpecError(f"profile {parts[k]!r} must be scalar in a per-component list")
    return lambda z: np.array([f(z) for f in profiles], dtype=float)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() refuses the text
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_help(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phs", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", type=Path, default=None, help="write the report here")

    p_check = sub.add_parser("check", help="validate a model document")
    p_check.add_argument("model", type=Path)
    common(p_check)

    p_classify = sub.add_parser("classify", help="classify a model document")
    p_classify.add_argument("model", type=Path)
    p_classify.add_argument("-v", "--verbose", action="store_true",
                            help="print the three verdicts to stderr")
    common(p_classify)

    p_oracle = sub.add_parser("oracle", help="randomized agreement campaign")
    p_oracle.add_argument("--n", type=_int_at_least(1), required=True)
    p_oracle.add_argument("--count", type=_int_at_least(0), default=1000)
    p_oracle.add_argument("--seed", type=_int_at_least(0), default=0)
    common(p_oracle)

    p_sim = sub.add_parser("simulate", help="run the simulator")
    p_sim.add_argument("model", type=Path)
    p_sim.add_argument("--nx", type=int, default=256)
    p_sim.add_argument("--t-final", type=float, default=1.0)
    p_sim.add_argument("--p-norms", type=str, default="1,2",
                       help="comma-separated exponents, e.g. 1,2")
    p_sim.add_argument("--record-every", type=int, default=1)
    p_sim.add_argument("--x0", type=str, default="gaussian(0.5,0.1)",
                       help="initial-profile spec (see README)")
    p_sim.add_argument("--allow-illposed", action="store_true")
    p_sim.add_argument("--field-output", type=Path, default=None,
                       help="write the final field CSV here")
    p_sim.add_argument("-v", "--verbose", action="store_true",
                       help="print the step count and largest boundary residual to stderr")
    common(p_sim)
    return parser


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        output.write_text(text if text.endswith("\n") else text + "\n")


def _cmd_check(args) -> int:
    system = load_system(args.model)
    report = {
        "valid": True,
        "n": system.n,
        "h_kind": system.h.kind,
        "wb_tilde_shape": list(system.wb_tilde.shape),
    }
    _emit(json.dumps(report, indent=2), args.output)
    return EXIT_OK


def _cmd_classify(args) -> int:
    system = load_system(args.model)
    verdict = classify(system)
    _emit(json.dumps(verdict.as_dict(), indent=2), args.output)
    if args.verbose:
        print(
            f"contraction={verdict.contraction} unitary={verdict.unitary_group} "
            f"c0={verdict.c0_semigroup}",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    report = agreement_campaign(args.n, args.count, args.seed)
    _emit(json.dumps(report, indent=2), args.output)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    system = load_system(args.model)
    try:
        p_norms = tuple(float(p) for p in args.p_norms.split(",") if p.strip())
    except ValueError:
        raise ValidationError(f"cannot parse --p-norms {args.p_norms!r}") from None
    config = SimConfig(
        nx=args.nx,
        t_final=args.t_final,
        p_norms=p_norms,
        record_every=args.record_every,
    )
    x0 = x0_from_spec(args.x0, system.n)
    state = run(system, config, x0, allow_illposed=args.allow_illposed)
    if args.output is None:
        write_history_csv(state, sys.stdout)
    else:
        with open(args.output, "w", newline="") as f:
            write_history_csv(state, f)
    if args.field_output is not None:
        with open(args.field_output, "w", newline="") as f:
            write_field_csv(state, f)
    if args.verbose:
        print(
            f"steps={state.step_count} max_bc_residual={state.max_bc_residual:.3e}",
            file=sys.stderr,
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "check": _cmd_check,
        "classify": _cmd_classify,
        "oracle": _cmd_oracle,
        "simulate": _cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except IllPosedError as exc:
        print(f"phs: ill-posed: {exc}", file=sys.stderr)
        return EXIT_ILLPOSED
    except (SchemaError, ValidationError, DomainError, ShapeError, SpecError) as exc:
        print(f"phs: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except PHSError as exc:
        print(f"phs: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
