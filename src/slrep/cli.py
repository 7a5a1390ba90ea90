"""Command-line entry point.

Every invocation prints a JSON run manifest to standard output: the echoed
configuration, library versions, import and wall time, and whatever
certified error bounds the computation carries.  Tables are CSV and
samples are JSONL; they go to --out when given, otherwise they follow the
manifest on standard output.  Exit status 0 means success, 1 means a
check failed or a computation could not be certified, 2 means the
configuration was rejected (one-line diagnosis on standard error).

Determinism contract: identical configuration and seed produce identical
output bytes.  Per-sample generators are derived from (seed, index), so
the contract holds under any future partitioning of the sample loop.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time

import numpy as np

from . import _IMPORT_STARTED, __version__
# the layers every command loads; boltzmann, limits and verify are imported
# by the commands that run them
from .census import BudgetError, enumerate_irreps, region_volume
from .exact_count import count_representations, uniform_sample
from .stats import STATISTICS, stat_height, stat_max_dim
from .weights import degree

MAX_RANK = 6
MAX_N_EXACT = 10**4


class ConfigError(ValueError):
    """Invalid configuration; maps to exit status 2."""


def _check_bounds(args, sizes=()) -> None:
    """The default bounds: the rank, and each exact-counting size, --n or
    every --n-grid point; --unsafe lifts them.  A numeric command passes no
    sizes: the census cap (BudgetError) bounds its n."""
    if args.unsafe:
        return
    r = args.rank
    if not 1 <= r <= MAX_RANK:
        raise ConfigError(f"rank {r} outside the default bound 1..{MAX_RANK} "
                          "(pass --unsafe to override)")
    for n in sizes:
        if not 1 <= n <= MAX_N_EXACT:
            raise ConfigError(f"n = {n} outside the default exact counting bound "
                              f"1..{MAX_N_EXACT} (pass --unsafe to override)")


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")


def _json_safe(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _manifest(args, results: dict, started: float, outputs) -> str:
    config = {k: _json_safe(v) for k, v in sorted(vars(args).items())
              if k != "func" and not k.startswith("_")}
    body = {
        "command": args.subcommand,
        "config": config,
        "versions": {"slrep": __version__,
                     "python": sys.version.split()[0],
                     "numpy": np.__version__},
        "import_s": round(_IMPORT_S, 3),
        "wall_time_s": round(time.monotonic() - started, 3),
        "outputs": outputs,
        "results": _json_safe(results),
    }
    return json.dumps(body, indent=2, sort_keys=True)


def _emit(args, started, results: dict, data=None, failed: bool = False) -> int:
    """Print the manifest; data, an iterable of text pieces, goes to --out
    before it or to stdout after it (only the data commands declare --out)."""
    to_file = data is not None and args.out
    if to_file:
        try:
            with open(args.out, "w") as fh:
                fh.writelines(data)
        except OSError as exc:  # before the manifest, so stdout stays empty
            print(f"failed: cannot write --out {args.out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 1
    print(_manifest(args, results, started, [args.out] if to_file else []))
    if data is not None and not to_file:
        sys.stdout.writelines(data)
    return 1 if failed else 0


def _parse_weight(text: str | None, r: int):
    """The --k weight, or None when --k is absent."""
    if text is None:
        return None
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != r or min(parts, default=0) < 1:
        raise ConfigError(f"weight must be {r} positive integers, got {text!r}")
    return parts


def _mult_weight(args):
    """The --k weight of a gap report, which only `--stat mult` reads."""
    if args.k is not None and args.stat != "mult":
        raise ConfigError(f"--k applies only to --stat mult, got --stat {args.stat}")
    return _parse_weight(args.k, args.rank)


def _parse_grid(text: str):
    """The --n-grid sizes, strictly increasing, so that a trend along them
    means something."""
    try:
        grid = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad integer grid {text!r}") from exc
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"n-grid {text!r} is not strictly increasing")
    if min(grid) < 1:
        raise ConfigError(f"n-grid point {min(grid)} below 1")
    return grid


# ---- subcommands ----

def _cmd_census(args, started):
    _check_bounds(args)
    census = enumerate_irreps(args.rank, args.max_dim)
    vol, vol_err = region_volume(args.rank)
    results = {
        "num_dimension_classes": int(census.dims.size),
        "num_irreps": census.num_weights,
        "volume": vol, "volume_err": vol_err,
    }

    def csv():
        yield "m,rho,cumulative\n"
        # Python ints format about twice as fast as numpy scalars; 2^16 rows
        # at a time keep their lists small, and the table is never held whole
        for i in range(0, census.dims.size, 2**16):
            rows = slice(i, i + 2**16)
            yield "".join(f"{m},{c},{s}\n" for m, c, s in zip(
                census.dims[rows].tolist(), census.counts[rows].tolist(),
                census.cumulative[rows].tolist()))
    return _emit(args, started, results, csv())


def _cmd_count(args, started):
    _check_bounds(args, [args.n])
    table = count_representations(args.rank, args.n)
    lines = ["n,count"]
    lines += [f"{m},{table.counts[m]}" for m in range(args.n + 1)]
    results = {"count_n": str(table.counts[args.n]),
               "digits": len(str(table.counts[args.n]))}
    return _emit(args, started, results, ["\n".join(lines) + "\n"])


def _cmd_saddle(args, started):
    from .boltzmann import SADDLE_TOL, solve_saddle
    from .limits import (
        asymptotic_saddle,
        compute_constants,
        dispersion_constant,
        saddle_scale_constant,
        variance_scale_constant,
    )
    _check_bounds(args)
    r = args.rank
    params = solve_saddle(r, args.n)
    vol, vol_err = region_volume(r)
    results = {
        "s": params.s, "beta": params.beta, "q": params.q,
        "sigma2": params.sigma2, "cutoff": params.cutoff,
        "expected_dim_err": SADDLE_TOL * args.n,
        "tail_bound": params.tail_bound,
        # the normalizers at this saddle, the ones `dist` and `verify limits` use
        **compute_constants(r, params.s)._asdict(),
        "s_asymptotic": asymptotic_saddle(r, args.n),
        "volume": vol, "volume_err": vol_err,
        "saddle_scale": saddle_scale_constant(r),
        "variance_scale": variance_scale_constant(r),
        "dispersion": dispersion_constant(r),
    }
    return _emit(args, started, results)


def _sample_record(index: int, rep) -> dict:
    empty = not rep.rows.size
    return {
        "index": index,
        "total_dim": rep.total_dim(),
        "N": rep.num_irreps(),
        "D": None if empty else stat_max_dim(rep),
        "H": None if empty else stat_height(rep),
        "components": rep.components(),
    }


def _cmd_sample(args, started):
    _check_seed(args.seed)
    _check_bounds(args, [args.n] if args.mode == "uniform-dp" else ())
    if args.samples < 1:
        raise ConfigError(f"sample count must be positive, got {args.samples}")
    lines = []
    if args.mode == "uniform-dp":
        table = count_representations(args.rank, args.n)
        for i in range(args.samples):
            seed_i = int.from_bytes(
                np.random.SeedSequence((args.seed, i)).generate_state(
                    4, dtype=np.uint64).tobytes(), "little")
            rep = uniform_sample(table, args.n, random.Random(seed_i))
            lines.append(json.dumps(_sample_record(i, rep), sort_keys=True))
        extra = {"truncation_tv_bound": 0.0}
    else:
        from .boltzmann import (
            REJECTION_MAX_N,
            boltzmann_sample,
            rejection_uniform_sample,
            sampling_params,
            solve_saddle,
            truncation_tv_bound,
        )
        if args.mode == "uniform-rejection" and args.n >= REJECTION_MAX_N:
            raise ConfigError(f"uniform-rejection needs n < 2^62, got {args.n}: "
                              "its attempts sum dimensions in int64")
        draw = boltzmann_sample if args.mode == "boltzmann" else rejection_uniform_sample
        params = sampling_params(solve_saddle(args.rank, args.n))
        for i in range(args.samples):
            rng = np.random.default_rng(np.random.SeedSequence((args.seed, i)))
            rep = draw(params, rng)
            lines.append(json.dumps(_sample_record(i, rep), sort_keys=True))
        extra = {"truncation_tv_bound": truncation_tv_bound(params), "saddle_s": params.s}
    results = {"samples": args.samples, "mode": args.mode, **extra}
    return _emit(args, started, results, ["\n".join(lines) + "\n"])


def _cmd_dist(args, started):
    from .verify import compare_exact_to_limit
    _check_bounds(args)
    if args.tol is not None and not 0.0 <= args.tol < math.inf:  # refuses nan too
        raise ConfigError(f"--tol must be finite and nonnegative, got {args.tol}")
    report = compare_exact_to_limit(args.rank, args.n, args.stat, k=_mult_weight(args))
    lines = ["grid,exact,limit,gap"]
    lines += [",".join(repr(float(v)) for v in row)
              for row in zip(report.grid, report.exact, report.limit, report.gaps)]
    results = {
        "stat": report.statistic, "gap": report.gap,
        "gap_is_relative": report.gap_is_relative,
        "exact_err": report.exact_err, "limit_err": report.limit_err,
        "note": report.note,
        "tolerance_note": "no finite-n rate is available; any threshold "
                          "applied to this gap is an engineering choice",
    }
    failed = False
    if args.tol is not None:
        results["tol"] = args.tol
        results["pass"] = bool(report.gap <= args.tol)
        failed = not results["pass"]
    return _emit(args, started, results, ["\n".join(lines) + "\n"], failed)


def _cmd_verify_weyl(args, started):
    from .verify import (
        _lowest_frequency,
        appendix_window_check,
        sorted_distinct,
        theta_grid,
        weyl_lower_bound_check,
    )
    _check_seed(args.seed)
    if not 2 <= args.rank <= MAX_RANK:
        raise ConfigError(f"--rank {args.rank} outside 2..{MAX_RANK}")
    if not 0.0 < args.eps <= 1.0 / 32.0:  # refuses nan and inf too
        raise ConfigError(f"--eps must lie in (0, 1/32], got {args.eps}")
    if args.N < 4:
        raise ConfigError(f"--N must be at least 4, got {args.N}")
    nu = degree(args.rank)
    try:
        _lowest_frequency(args.N, args.eps, nu)
    except ValueError as exc:  # the range checks above leave only its 2^-64 floor
        raise ConfigError(f"--eps {args.eps}: {exc}") from exc
    if args.num_thetas < 0:
        raise ConfigError(f"--num-thetas must be nonnegative, got {args.num_thetas}")
    box_points = math.prod((j + 1) * args.N + 1
                           for j in range(1, args.rank + 1))
    if not args.unsafe and box_points > 2_000_000:
        raise ConfigError(f"lattice box holds {box_points} points, above the "
                          "default 2e6 bound (pass --unsafe to override)")
    random_part, adversarial = theta_grid(
        args.rank, args.N, args.eps, num_random=args.num_thetas, seed=args.seed)
    thetas = sorted_distinct(np.concatenate([random_part, adversarial]))
    note = (f"{args.num_thetas} log-uniform (seed {args.seed}) + "
            f"{adversarial.size} adversarial frequencies")
    merged = args.num_thetas + adversarial.size - thetas.size
    if merged:
        note += f", {merged} merged by rounding to multiples of 2^-64"
    report = weyl_lower_bound_check(args.rank, args.N, args.eps, thetas)
    results = {
        "pass": report.passed,
        "num_thetas": int(thetas.size),
        "grid": note,
        "window": report.window,
        "count_bound": report.count_bound,
        "min_count": int(report.counts.min()),
        "sin2_bound": report.sin2_bound,
        "violations": report.violations,
    }
    if args.rank == 2:
        ladder = appendix_window_check(args.N, args.eps, thetas)
        results["ladder"] = {
            "pass": ladder.passed,
            "window_bound": ladder.ladder_bound,
            "min_window_count": int(ladder.ladder_min_counts.min()),
            "run_length_bound": ladder.run_length_bound,
            "max_run_length": int(ladder.run_max_lengths.max()),
            "follow_violations": int(ladder.run_follow_violations.sum()),
        }
        results["pass"] = bool(report.passed and ladder.passed)
    return _emit(args, started, results, failed=not results["pass"])


def _cmd_verify_ensembles(args, started):
    from .verify import default_weight, ensembles_tv, shrinking
    grid = _parse_grid(args.n_grid)
    _check_bounds(args, grid)
    k = _parse_weight(args.k, args.rank) or default_weight(args.rank)
    table = count_representations(args.rank, max(grid))
    tvs, errs = zip(*(ensembles_tv(table, n, k) for n in grid))
    ok = shrinking(tvs, allow_single_step_fraction=0.1)
    results = {
        "pass": bool(ok), "n_grid": grid, "k": list(k), "tv": tvs,
        "trend": "decreasing, one upward step of at most 10% forgiven",
        "tv_err": max(errs),
    }
    return _emit(args, started, results, failed=not ok)


def _cmd_verify_limits(args, started):
    from .verify import compare_exact_to_limit, shrinking
    grid = _parse_grid(args.n_grid)
    _check_bounds(args)
    k = _mult_weight(args)
    reports = [compare_exact_to_limit(args.rank, n, args.stat, k=k) for n in grid]
    gaps = [rep.gap for rep in reports]
    ok = shrinking(gaps)
    results = {
        "pass": bool(ok), "stat": args.stat, "n_grid": grid, "gaps": gaps,
        "exact_errs": [rep.exact_err for rep in reports],
        "limit_errs": [rep.limit_err for rep in reports],
        "trend": "gap must shrink along the n-grid",
        "tolerance_note": "no finite-n rate is available; the trend is "
                          "the assertion, thresholds are engineering choices",
    }
    return _emit(args, started, results, failed=not ok)


class _Parser(argparse.ArgumentParser):
    """Refuses abbreviated options, so --n is never read as --n-grid, and
    raises every parse error as ConfigError, so that it prints as one
    `invalid config:` line; its subparsers are built from the same class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slrep",
        description="Exact counting, sampling, and limit-law analysis of "
                    "random representations of the special linear Lie algebras.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--rank", type=int, required=True, help="rank r of sl_{r+1}")
        p.add_argument("--unsafe", action="store_true",
                       help="lift the default rank bound and the exact-counting "
                            "size bound; the census cap and the arithmetic "
                            "bounds still hold")

    p = sub.add_parser("census", help="enumerate irreducibles by dimension")
    common(p)
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--out", help="write the CSV table to this file")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("count", help="exact representation counts 0..n")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="write the CSV table to this file")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("saddle", help="Boltzmann calibration and limit-law normalizers")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_saddle)

    p = sub.add_parser("sample", help="draw representations")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("boltzmann", "uniform-dp",
                                      "uniform-rejection"), required=True)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="unsigned 64-bit seed")
    p.add_argument("--out", help="write the JSONL samples to this file")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("dist", help="exact distribution vs limit law")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stat", choices=STATISTICS, required=True,
                   help="mgf is the transform characterizing the count limit")
    p.add_argument("--k", help="weight for --stat mult, e.g. 1,1")
    p.add_argument("--tol", type=float,
                   help="optional gap threshold (engineering choice)")
    p.add_argument("--out", help="write the CSV table to this file")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("verify", help="certified checks")
    vsub = p.add_subparsers(dest="mode", required=True)

    v = vsub.add_parser("weyl", help="window lower bounds on a lattice box")
    common(v)
    v.add_argument("--N", type=int, required=True, help="box parameter, >= 4")
    v.add_argument("--eps", type=float, required=True,
                   help="in (0, 1/32], with eps N^-nu at least 2^-64, the "
                        "window kernel's grid")
    v.add_argument("--num-thetas", type=int, default=10_000)
    v.add_argument("--seed", type=int, default=99)
    v.set_defaults(func=_cmd_verify_weyl, subcommand="verify.weyl")

    v = vsub.add_parser("ensembles", help="exact uniform-vs-Boltzmann TV trend")
    common(v)
    v.add_argument("--n-grid", default="100,500,2500,5000")
    v.add_argument("--k", default=None, help="weight, e.g. 1,1")
    v.set_defaults(func=_cmd_verify_ensembles, subcommand="verify.ensembles")

    v = vsub.add_parser("limits", help="exact-vs-limit gap trend over an n-grid")
    common(v)
    v.add_argument("--stat", choices=STATISTICS, required=True)
    v.add_argument("--n-grid", required=True,
                   help="comma-separated sizes; asserts the shrinking trend")
    v.add_argument("--k", default=None, help="weight for --stat mult, e.g. 1,1")
    v.set_defaults(func=_cmd_verify_limits, subcommand="verify.limits")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        started = time.monotonic()
        code = args.func(args, started)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("failed: standard output was closed before all output was written",
              file=sys.stderr)
        return 1
    except (ValueError, NotImplementedError, BudgetError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # --unsafe sizes may outgrow the machine
        print(f"failed: out of memory ({str(exc) or 'no detail'})", file=sys.stderr)
        return 1


# from the first statement of slrep/__init__.py to here, where main can start;
# a command's own layers load inside its wall_time_s
_IMPORT_S = time.monotonic() - _IMPORT_STARTED

if __name__ == "__main__":
    sys.exit(main())
