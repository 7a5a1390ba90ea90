"""Output checks for the benchmark's slrep commands.

Every check parses what one command printed (a JSON manifest, then CSV or
JSON Lines data) and returns a list of problems; an empty list means the
output is right.  The facts come from outside the code under test: pinned
values listed in perfbench/README.md, closed-form limit laws, and this
file's own Weyl dimension formula and coin-change counts.  Nothing here
imports slrep.
"""

from __future__ import annotations

import json
import math

# rank-2 representation count at total dimension 10^4
COUNT_R2_10000 = ("77286174609560949994788618084033615667449698306709202"
                  "996900417272344870000")
# saddle parameter s at (rank, n)
SADDLE_S = {(2, 10**9): 0.021574189492933757, (3, 10**8): 0.16512802008098498}
# exact-vs-limit gaps at n = 10^6, keyed by (rank, statistic)
DIST_GAP = {(2, "D"): 0.09635134941396745, (2, "H"): 0.059400835813473385,
            (2, "mult"): 0.0005768011379669495, (2, "mgf"): 3.909269483722415}
# uniform-vs-Boltzmann TV of the (1, 1) multiplicity at rank 2, keyed by n
ENSEMBLES_TV = {100: 0.038237080980742646, 500: 0.01079301184143301,
                2500: 0.005216060220548894, 5000: 0.0038415502280057874}
# frequency grid of `verify weyl`: reduced fractions p/q with q up to this
WEYL_MAX_DENOMINATOR = 50


def weyl_dim(k) -> int:
    """Dimension of the sl_{r+1} irreducible with shifted weight k = lambda + rho,
    prod over i <= j of (k_i + ... + k_j) / (j - i + 1)."""
    num = den = 1
    for i in range(len(k)):
        partial = 0
        for j in range(i, len(k)):
            partial += k[j]
            num *= partial
            den *= j - i + 1
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Weyl product of {k} not divisible by {den}")
    return dim


def rank2_counts(m_max: int) -> list:
    """Rank-2 representation counts 0..m_max by coin change over every weight."""
    counts = [1] + [0] * m_max
    for a in range(1, m_max + 1):
        if weyl_dim((a, 1)) > m_max:
            break
        b = 1
        while (d := weyl_dim((a, b))) <= m_max:
            for v in range(d, m_max + 1):
                counts[v] += counts[v - d]
            b += 1
    return counts


def weyl_grid_size(rank: int, box: int, eps: float) -> int:
    """Number of distinct adversarial frequencies `verify weyl` adds: both ends
    of [eps N^-nu, 1/2] and every reduced p/q (q <= 50) scaled by N^-j,
    j = 0..nu, that lands in that range, all in double precision (so equal
    fractions reached by different roundings count twice)."""
    nu = rank * (rank + 1) // 2
    lo, hi = eps * float(box) ** -nu, 0.5
    points = {lo, hi}
    for q in range(2, WEYL_MAX_DENOMINATOR + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                points.update(y for j in range(nu + 1)
                              if lo <= (y := (p / q) * float(box) ** -j) <= hi)
    return len(points)


def parse(text: str):
    """(manifest, data lines) of one command's standard output."""
    manifest, end = json.JSONDecoder().raw_decode(text)
    return manifest, [line for line in text[end:].splitlines() if line]


def _close(value, expected, tol) -> bool:
    return isinstance(value, (int, float)) and abs(value - expected) <= tol


def _guard(check):
    """Turn a parse error inside a check into a reported problem."""
    def guarded(text):
        try:
            return check(text)
        except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
            return [f"unparsable output: {type(exc).__name__}: {exc}"]
    return guarded


def count(n: int, expected: str | None = None):
    """`count --rank 2 --n n`: n + 1 rows, a prefix equal to independent coin
    change, the last row equal to count_n, and count_n pinned when given."""
    prefix = rank2_counts(min(n, 200))

    @_guard
    def check(text):
        manifest, lines = parse(text)
        problems = []
        rows = lines[1:]
        if lines[0] != "n,count" or len(rows) != n + 1:
            problems.append(f"expected header and {n + 1} rows, got {len(lines)} lines")
        for m, value in enumerate(prefix):
            if rows[m] != f"{m},{value}":
                problems.append(f"row {m} reads {rows[m]!r}, expected {m},{value}")
                break
        count_n = manifest["results"]["count_n"]
        if rows[-1] != f"{n},{count_n}":
            problems.append(f"last row {rows[-1]!r} disagrees with count_n {count_n}")
        if n < len(prefix) and count_n != str(prefix[n]):
            problems.append(f"count_n {count_n} != {prefix[n]}")
        if expected is not None and count_n != expected:
            problems.append(f"count_n {count_n} != pinned {expected}")
        return problems
    return check


def samples(mode: str, n: int, num: int, seed: int):
    """`sample`: num records, each re-summed with weyl_dim.  Uniform modes must
    total exactly n; the Boltzmann truncation must stay below 1e-12."""

    @_guard
    def check(text):
        manifest, lines = parse(text)
        results = manifest["results"]
        problems = []
        if manifest["config"]["seed"] != seed:
            problems.append(f"seed {manifest['config']['seed']} != {seed}")
        if results["mode"] != mode or len(lines) != num:
            problems.append(f"expected {num} {mode} records, got {len(lines)} "
                            f"{results['mode']}")
        if not results["truncation_tv_bound"] <= 1e-12:
            problems.append(f"truncation TV {results['truncation_tv_bound']} > 1e-12")
        for i, line in enumerate(lines):
            rec = json.loads(line)
            dims = [(weyl_dim(k), x) for k, x in rec["components"]]
            total = sum(d * x for d, x in dims)
            if rec["index"] != i or rec["total_dim"] != total:
                problems.append(f"record {i}: total_dim {rec['total_dim']} != "
                                f"re-summed {total}")
            if mode != "boltzmann" and total != n:
                problems.append(f"record {i}: components sum to {total}, not {n}")
            if rec["N"] != sum(x for _, x in dims) or (
                    dims and rec["D"] != max(d for d, _ in dims)):
                problems.append(f"record {i}: N or D disagrees with its components")
        return problems
    return check


def saddle(rank: int, n: int):
    """`saddle`: s within 1e-6 relative of the pinned value."""
    expected = SADDLE_S[(rank, n)]

    @_guard
    def check(text):
        s = parse(text)[0]["results"]["s"]
        return [] if _close(s, expected, 1e-6 * expected) else [
            f"saddle s {s} != {expected}"]
    return check


def _gumbel(x):
    return math.exp(-math.exp(-x))


def dist(rank: int, stat: str):
    """`dist`: the reported gap is the sup of its own CSV, closed-form limit
    columns match (Gumbel for D and H, exponential for mult), and pinned gaps
    agree within the report's certified error (at least 1e-6).  The shape gap
    is not pinned."""
    expected = DIST_GAP.get((rank, stat))
    limit_law = {"D": _gumbel, "H": _gumbel, "mult": lambda x: -math.expm1(-x)}.get(stat)

    @_guard
    def check(text):
        manifest, lines = parse(text)
        res = manifest["results"]
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        problems = []
        if res["stat"] != stat or lines[0] != "grid,exact,limit,gap" or not rows:
            problems.append(f"expected a {stat} table, got {res['stat']} "
                            f"with {len(rows)} rows")
        gap = res["gap"]
        if not _close(gap, max(row[3] for row in rows), 1e-12 * max(1.0, abs(gap))):
            problems.append(f"gap {gap} is not the sup of the table")
        if limit_law and any(not _close(lim, limit_law(x), 1e-12) for x, _, lim, _ in rows):
            problems.append(f"{stat} limit column is not the closed-form law")
        if expected is not None:
            tol = max(res["exact_err"] + res["limit_err"], 1e-6)
            if not _close(gap, expected, tol):
                problems.append(f"{stat} gap {gap} != {expected} within {tol}")
        return problems
    return check


def ensembles(grid: str):
    """`verify ensembles`: pass, and every TV within 1e-6 of its pinned value."""
    n_grid = [int(v) for v in grid.split(",")]
    expected = [ENSEMBLES_TV[n] for n in n_grid]

    @_guard
    def check(text):
        res = parse(text)[0]["results"]
        tvs = res["tv"]
        if res["pass"] is not True or res["n_grid"] != n_grid:
            return [f"ensembles pass={res['pass']} grid={res['n_grid']}"]
        if len(tvs) != len(expected) or any(
                not _close(tv, want, 1e-6) for tv, want in zip(tvs, expected)):
            return [f"TV values {tvs} != {expected}"]
        return []
    return check


def weyl(rank: int, box: int, eps: float, num_random: int, seed: int):
    """`verify weyl`: pass with zero violations (and the rank-2 ladder), the
    seed echoed, and every random and adversarial frequency checked."""
    expected_thetas = num_random + weyl_grid_size(rank, box, eps)

    @_guard
    def check(text):
        manifest, _ = parse(text)
        res = manifest["results"]
        problems = []
        if res["pass"] is not True or res["violations"] != 0:
            problems.append(f"weyl pass={res['pass']} violations={res['violations']}")
        if rank == 2 and res["ladder"]["pass"] is not True:
            problems.append("ladder check failed")
        if res["num_thetas"] != expected_thetas:
            problems.append(f"{res['num_thetas']} frequencies, expected {expected_thetas}")
        if manifest["config"]["seed"] != seed or f"(seed {seed})" not in res["grid"]:
            problems.append(f"seed {seed} not echoed: {res['grid']!r}")
        return problems
    return check
