"""Command-line interface.

Subcommands: wg (Weingarten tables), moment (exact Wishart moments), haar
(Haar-orthogonal moments), validate (golden / identities / montecarlo
suites) and table (build/list/show persistent Weingarten tables).

Exit codes: 0 success, 2 usage error (a path that cannot be read or written
included), 3 math-domain error (pole, non-PD, bad shape parameter), 4
validation failure.  Matrix indices on the command line are 1-based.
WW_CACHE_DIR overrides the default table cache location.

Each command runs only the modules it uses.  Before it imports any package
module, this module puts ``_kernels``, ``hafnian``, ``wishart``,
``montecarlo`` and ``validate`` into ``sys.modules`` as lazy modules
(``_defer``): each is there, and set on the package, but runs only on the
first read of one of its attributes.  The commands read those modules'
attributes only inside themselves, so wg and table, error exits included,
run none of them, haar and moment run ``wishart`` alone and validate what
its suite reads.  numpy is imported where arrays are made, so it runs only
for moment --invariant (its power sums are numpy's, see
``wishart.invariant_moment``) and validate montecarlo.  A process that
imports the library without this module gets plain modules.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path


def _defer(name: str) -> None:
    """Put package module ``name`` into ``sys.modules`` as a module that runs on
    its first attribute read, unless it is imported already.

    The module is also set on the package: ``from . import name`` then takes
    that attribute, where the import system would read the module's
    ``__spec__`` and so run it at once."""
    if name in sys.modules:
        return
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, attr = name.rpartition(".")
    setattr(sys.modules[package], attr, module)


for _name in ("wishmom._kernels", "wishmom.hafnian", "wishmom.wishart", "wishmom.montecarlo", "wishmom.validate"):
    _defer(_name)

from . import __version__, validate, wishart  # noqa: E402
from .matchgroup import SizeLimitError  # noqa: E402
from .symcomb import _as_fraction, check_partition  # noqa: E402
from .weingarten import (  # noqa: E402
    DomainError,
    PoleError,
    cached_tables,
    fraction_json,
    load_table,
    save_table,
    table_path,
    weingarten_values,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VALIDATION = 4


def default_cache_dir() -> str:
    return os.environ.get("WW_CACHE_DIR", os.path.join(os.path.expanduser("~"), ".cache", "wishmom"))


def parse_fraction(text: str) -> Fraction:
    try:
        return _as_fraction(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated index list: {text!r}") from exc


def parse_partition(text: str) -> tuple[int, ...]:
    try:
        return check_partition(int(t) for t in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a partition: {text!r}") from exc


def read_sigma(path: str) -> list[list[float]]:
    """Parse sigma from CSV (rows of comma-separated decimals) or a JSON array,
    as a list of rows.

    Only the format is checked: every cell is a number (a JSON true or "1.5" is
    not one); WishartParams reads the matrix."""
    p = Path(path)
    if not p.exists():
        raise ValueError(f"sigma file not found: {path}")
    text = p.read_text().strip()
    try:
        if p.suffix.lower() == ".json" or text.startswith("["):
            rows = json.loads(text)
            if not all(type(cell) in (int, float) for row in rows for cell in row):
                raise ValueError("every cell must be a number")
        else:
            rows = [line.split(",") for line in text.splitlines() if line.strip()]
        return [[float(cell) for cell in row] for row in rows]
    except (json.JSONDecodeError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed sigma file {path}: {exc}") from exc


def emit(
    args, command: str, options: dict, rows: list[dict], text_lines: list[str], columns: tuple[str, ...] = ()
) -> None:
    """Write the report in the format of --format to --out or stdout.

    The JSON report opens with the run's config {"command", "options",
    "version"}, everything needed to reproduce it.  Fraction values become
    {"num","den"} objects in JSON (``fraction_json``) and, as in the text
    lines, "p/q" in CSV.  The CSV header is the keys of the rows, or
    ``columns`` when there are none.
    """
    if args.format == "json":
        config = {"command": command, "options": options, "version": __version__}
        safe = [{k: (fraction_json(v) if isinstance(v, Fraction) else v) for k, v in r.items()} for r in rows]
        body = json.dumps({"config": config, "results": safe}, indent=2, default=str) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]) if rows else columns)
        writer.writeheader()
        writer.writerows(rows)
        body = buf.getvalue()
    else:
        body = "\n".join(text_lines) + "\n"
    if args.out:
        Path(args.out).write_text(body)
    else:
        sys.stdout.write(body)


def emit_table(args, command: str, options: dict, values: dict[tuple[int, ...], Fraction]) -> None:
    """The report of one Weingarten table {rho: value}, for ``wg`` and ``table show``."""
    rows = [{"rho": list(rho), "value": v} for rho, v in values.items()]
    emit(args, command, options, rows, [f"{rho}: {v}" for rho, v in values.items()])


# moment kind, named as its flag's dest and as ``wishart.MomentKind`` names
# it -> the formula name in the report
MOMENT_KINDS = {
    "entries": "entrywise-matching-sum",
    "trace_power": "trace-power-sum",
    "power_trace": "power-trace-sum",
    "invariant": "invariant-zonal",
}


# ---------------------------------------------------------------- commands


def cmd_wg(args) -> int:
    values = weingarten_values(args.n, z=args.z, gamma=args.gamma, N=args.truncate)
    # exactly one point was given; the truncated table is the plain one at z = N
    key, point = ("gamma", args.gamma) if args.gamma is not None else ("z", args.truncate if args.z is None else args.z)
    emit_table(args, "wg", {"n": args.n, key: str(point), "truncate": args.truncate}, values)
    return EXIT_OK


def cmd_moment(args) -> int:
    sigma = read_sigma(args.sigma)
    d = len(sigma)
    params = wishart.WishartParams(d=d, beta=args.beta, sigma=sigma)
    picks = [name for name in MOMENT_KINDS if getattr(args, name) is not None]
    if len(picks) != 1:
        raise ValueError("pick exactly one of --entries, --trace-power, --power-trace, --invariant")
    [flag] = picks
    formula = MOMENT_KINDS[flag]
    kind = wishart.MomentKind(flag, getattr(args, flag), args.inverse)
    value = float(kind.target(params))
    # the empty product of degree 0 is 1 for any gamma, and has no regime
    regime = wishart.gamma_regime(params.gamma, kind.order) if args.inverse and kind.order else None
    options = {"sigma": args.sigma, "d": d, "beta": str(params.beta), "kind": flag, "inverse": args.inverse}
    # the JSON report writes the tuple-valued flags as lists
    options |= {name: getattr(args, name) for name in MOMENT_KINDS}
    row = {"value": value, "formula": formula, "gamma": str(params.gamma), "gamma_regime": regime}
    lines = [f"value: {value:.17g}", f"formula: {formula}", f"gamma: {params.gamma}"]
    if regime:
        lines.append(f"gamma regime: {regime}")
    emit(args, "moment", options, [row], lines)
    return EXIT_OK


def cmd_haar(args) -> int:
    value = wishart.haar_moment(args.i, args.j, args.N)
    emit(args, "haar", {"i": list(args.i), "j": list(args.j), "N": args.N}, [{"value": value}], [f"value: {value}"])
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.suite == "golden":
        rows = validate.golden_suite(seed=args.seed)
    elif args.suite == "identities":
        rows = validate.identities_suite(n_max=args.n, seed=args.seed)
    else:
        rows = validate.montecarlo_suite(samples=args.samples, seed=args.seed, threads=args.threads)
    options = {"suite": args.suite, "n": args.n, "samples": args.samples, "seed": args.seed, "threads": args.threads}
    lines = [
        f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}" + (f"  [{r['detail']}]" if r["detail"] else "") for r in rows
    ]
    failures = sum(1 for r in rows if not r["passed"])
    lines.append(f"{len(rows) - failures}/{len(rows)} checks passed")
    emit(args, "validate", options, rows, lines)
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


def cmd_table(args) -> int:
    cache = args.cache_dir or default_cache_dir()
    if args.action in ("build", "show") and (args.n is None or args.z is None):
        raise ValueError(f"table {args.action} needs --n and --z")
    if args.action == "list":
        paths = [str(p) for p in cached_tables(cache)]
        rows = [{"path": p} for p in paths]
        emit(args, "table-list", {"cache_dir": str(cache)}, rows, paths or ["(no cached tables)"], ("path",))
        return EXIT_OK
    options = {"n": args.n, "z": str(args.z), "cache_dir": str(cache)}
    cached = load_table(cache, args.n, args.z)
    if args.action == "build":
        values = weingarten_values(args.n, z=args.z)
        # a file with these entries is a hit whatever version of wishmom wrote it
        if cached == values:
            status, path = "cache hit", table_path(cache, args.n, args.z)
        else:
            status, path = "built", save_table(cache, args.n, args.z, values)
        emit(args, "table-build", options, [{"status": status, "path": str(path)}], [f"{status}: {path}"])
        return EXIT_OK
    values = cached if cached is not None else weingarten_values(args.n, z=args.z)
    emit_table(args, "table-show", options | {"cached": cached is not None}, values)
    return EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wishmom",
        description="Exact Wishart/inverse-Wishart moments, Weingarten tables, and Monte Carlo validation.",
    )
    parser.add_argument("--version", action="version", version=f"wishmom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", help="write the report to this file instead of stdout")
        # argparse before 3.13 takes "-7/3" (unlike "-7") for an option; read
        # every "-<digit>" or "-.<digit>" word as a value, as 3.13 does
        p._negative_number_matcher = re.compile(r"-\.?\d")

    p = sub.add_parser("wg", help="print a Weingarten table for one degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=parse_fraction, help="evaluation point for the plain table")
    p.add_argument("--gamma", type=parse_fraction, help="shape parameter for the inverse-Wishart table")
    p.add_argument("--truncate", type=int, help="row-truncated table at z=N")
    common(p)
    p.set_defaults(func=cmd_wg)

    p = sub.add_parser("moment", help="exact Wishart or inverse-Wishart moment")
    p.add_argument("--sigma", required=True, help="scale matrix file (CSV rows or JSON 2D array)")
    p.add_argument("--beta", type=parse_fraction, required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--entries", type=parse_indices, help="1-based index list k1,k2,...,k2n")
    p.add_argument("--trace-power", dest="trace_power", type=int, help="E[(tr W)^n]")
    p.add_argument("--power-trace", dest="power_trace", type=parse_partition, help="E[prod tr(W^mu_i)] for partition mu")
    p.add_argument("--invariant", type=parse_partition, help="zonal invariant moment for partition lambda")
    common(p)
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("haar", help="exact Haar-orthogonal moment E[prod O[i_k, j_k]]")
    p.add_argument("--i", type=parse_indices, required=True)
    p.add_argument("--j", type=parse_indices, required=True)
    p.add_argument("--N", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_haar)

    p = sub.add_parser("validate", help="run a validation suite")
    p.add_argument("suite", choices=("golden", "identities", "montecarlo"))
    p.add_argument("--n", type=int, default=4, help="max degree for the identities suite")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--threads", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("table", help="build, list or show cached Weingarten tables")
    p.add_argument("action", choices=("build", "list", "show"))
    p.add_argument("--n", type=int)
    p.add_argument("--z", type=parse_fraction)
    p.add_argument("--cache-dir", dest="cache_dir")
    common(p)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PoleError, DomainError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except (SizeLimitError, ValueError, OSError) as exc:
        # an OSError (a directory given as --out or --sigma, say) names its path
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
