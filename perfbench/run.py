"""slrep benchmark: closed-loop sessions of slrep CLI processes.

    python3 perfbench/run.py --workload exact|sampling|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; slrep is imported from ./src.  This
process runs a workload's commands one at a time, each as a fresh
interpreter (`from slrep.cli import main`, as the `slrep` entry point does),
and checks every output against perfbench/checks.py.  os.wait4 gives each
process's CPU time and peak RSS; wall time runs from spawn to exit.

--trace 0 runs one untimed warm-up probe, then max(2, round(--seconds /
15)) whole passes over the commands, with the no-work probe interleaved
three times in the first pass.  The pass count depends on --seconds only,
so every run reports the same statistic: each command's fastest pass.  It
prints the end-to-end metrics of BENCHMARK.json.

--trace 1 runs the warm-up, one untraced pass and one traced pass, where
each command runs under perfbench/trace_child.py, and prints the per-layer
metrics of BENCHMARK.json.

The last line of standard output is the result object; the line before it
records the environment.  A table per command goes to standard error.
Exit status 2 means the benchmark could not run (no slrep sources, bad
arguments); failed commands are reported in the result, not the status.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import checks
from trace_child import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
TRACE_CHILD = os.path.join(HERE, "trace_child.py")
ENTRY = "import sys; from slrep.cli import main; sys.exit(main())"

PROBES = 3             # no-work processes timed per untraced run (setup_s)
PASS_S = 15.0          # about one pass over any workload on a 2-vCPU machine
DEADLINE_S = 170.0     # the whole run must end before this


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple
    check: object  # callable(stdout text) -> list of problems


PROBE = Command("probe", ("count", "--rank", "2", "--n", "1"), checks.count(1))
WARMUP = Command("warmup", PROBE.args, PROBE.check)


def workload_commands(workload: str, seed: int) -> list:
    """The commands of one workload; `seed` goes to every command taking one."""
    s = str(seed)
    if workload == "exact":
        return [
            Command("count", ("count", "--rank", "2", "--n", "10000"),
                    checks.count(10000, checks.COUNT_R2_10000)),
            Command("uniform", ("sample", "--rank", "2", "--mode", "uniform-dp",
                                "--n", "2000", "--samples", "20", "--seed", s),
                    checks.samples("uniform-dp", 2000, 20, seed)),
            Command("ensembles", ("verify", "ensembles", "--rank", "2",
                                  "--n-grid", "100,500,2500", "--k", "1,1"),
                    checks.ensembles("100,500,2500")),
        ]
    if workload == "sampling":
        return [
            Command("saddle_r2", ("saddle", "--rank", "2", "--n", "1000000000"),
                    checks.saddle(2, 10**9)),
            Command("saddle_r3", ("saddle", "--rank", "3", "--n", "100000000"),
                    checks.saddle(3, 10**8)),
            Command("boltzmann", ("sample", "--rank", "2", "--n", "100000000",
                                  "--mode", "boltzmann", "--samples", "20", "--seed", s),
                    checks.samples("boltzmann", 10**8, 20, seed)),
            Command("rejection", ("sample", "--rank", "2", "--n", "10000",
                                  "--mode", "uniform-rejection", "--samples", "8",
                                  "--seed", s),
                    checks.samples("uniform-rejection", 10**4, 8, seed)),
        ]
    if workload == "certify":
        return [Command(f"dist_{stat}", ("dist", "--rank", "2", "--n", "1000000",
                                         "--stat", stat, *extra), checks.dist(2, stat))
                for stat, extra in (("D", ()), ("H", ()), ("mult", ("--k", "1,1")),
                                    ("shape", ()), ("mgf", ()))] + [
            Command("weyl_r3", ("verify", "weyl", "--rank", "3", "--N", "8",
                                "--eps", "0.03125", "--num-thetas", "1000", "--seed", s),
                    checks.weyl(3, 8, 0.03125, 1000, seed)),
            Command("weyl_r2", ("verify", "weyl", "--rank", "2", "--N", "32",
                                "--eps", "0.03125", "--num-thetas", "1000", "--seed", s),
                    checks.weyl(2, 32, 0.03125, 1000, seed)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("exact", "sampling", "certify")


@dataclass
class Outcome:
    label: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list
    trace: dict | None = None  # the traced child's spans file

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env(cores: int) -> dict:
    """The one environment every child gets.  SLREP_THREADS is the core
    count; BLAS gets one thread, because a second one only spins on these
    workloads (same wall time, twice the CPU) and slows under contention."""
    return {"PATH": os.environ.get("PATH", os.defpath), "LANG": "C.UTF-8",
            "PYTHONPATH": SRC, "PYTHONHASHSEED": "0", "SLREP_THREADS": str(cores),
            "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_command(cmd: Command, env: dict, deadline: float, traced: bool = False,
                argv: list | None = None) -> Outcome:
    """Run one command to completion and check its output.  `argv` replaces
    the slrep invocation (the self-tests use it to inject a crash)."""
    out_path = os.path.join(WORK, f"{cmd.label}.out")
    err_path = os.path.join(WORK, f"{cmd.label}.err")
    spans_path = os.path.join(WORK, f"{cmd.label}.spans.json")
    if argv is None:
        argv = ([sys.executable, TRACE_CHILD, spans_path, *cmd.args] if traced
                else [sys.executable, "-c", ENTRY, *cmd.args])
    if traced and os.path.exists(spans_path):
        os.remove(spans_path)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        with open(err_path, errors="replace") as fh:
            tail = (fh.read().strip().splitlines() or ["(no stderr)"])[-1]
        problems = [f"exit status {code}: {tail}"]
    else:
        with open(out_path, errors="replace") as fh:
            problems = cmd.check(fh.read())
    trace = None
    if traced and os.path.exists(spans_path):
        with open(spans_path) as fh:
            trace = json.load(fh)
    return Outcome(cmd.label, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, problems, trace)


@dataclass
class Session:
    """Every process one run made, apart from the warm-up."""
    passes: list = field(default_factory=list)   # lists of untraced Outcomes
    probes: list = field(default_factory=list)
    traced: list = field(default_factory=list)

    def all(self):
        return [o for p in self.passes for o in p] + self.probes + self.traced

    def failed(self):
        return [o for o in self.all() if not o.ok]


def run_pass(commands, env, deadline, probes: int = 0, traced: bool = False):
    """One pass over the commands; `probes` no-work processes are spread
    evenly before, between and after them.  Returns (outcomes, probe outcomes)."""
    slots = [round(j * len(commands) / max(probes - 1, 1)) for j in range(probes)]
    outcomes, probe_outcomes = [], []
    for i in range(len(commands) + 1):
        probe_outcomes += [run_command(PROBE, env, deadline) for _ in range(slots.count(i))]
        if i < len(commands):
            outcomes.append(run_command(commands[i], env, deadline, traced=traced))
    return outcomes, probe_outcomes


def per_command(passes) -> dict:
    """label -> (least wall, least CPU, largest peak RSS) over passes, for
    commands that passed every time; a command that failed once is left
    out.  The least time is the one least slowed by other tenants of the
    host."""
    by_label = defaultdict(list)
    for outcomes in passes:
        for o in outcomes:
            by_label[o.label].append(o)
    return {label: (min(o.wall_s for o in runs), min(o.cpu_s for o in runs),
                    max(o.rss_mb for o in runs))
            for label, runs in by_label.items() if all(o.ok for o in runs)}


def end_to_end(session: Session) -> dict:
    cmds = per_command(session.passes).values()
    probes = [o for o in session.probes if o.ok]
    return {
        "setup_s": statistics.median(o.wall_s for o in probes) if probes else 0.0,
        "setup_rss_mb": statistics.median(o.rss_mb for o in probes) if probes else 0.0,
        "session_s": sum(wall for wall, _, _ in cmds),
        "cpu_s": sum(cpu for _, cpu, _ in cmds),
    }


def span_table(traced) -> dict:
    """Aggregate traced spans: name -> calls, self_s, total_s, raised, size,
    and for each span the count of `census.enumerate_irreps` children."""
    table = defaultdict(lambda: defaultdict(float))
    for o in traced:
        if o.trace is None:
            continue
        spans = o.trace["spans"]
        child_time = [0.0] * len(spans)
        for name, parent, start, end, raised, size in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "census.enumerate_irreps":
                    table[spans[parent][0]]["census_builds"] += 1
        for (name, _, start, end, raised, size), inner in zip(spans, child_time):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
            row["raised"] += raised
            row["size"] += size
        table["cli.import"]["total_s"] += o.trace["import_s"]
    return table


SPAN_STATS = ("self_s", "calls", "census_builds")
CMD_STATS = ("wall_s", "cpu_s", "rss_mb")   # the order per_command returns


def per_layer(session: Session, names) -> tuple:
    """(value of each named per-layer metric, span table).  A span, layer or
    command that never ran in this workload reads 0: it was bypassed."""
    spans = span_table(session.traced)
    untraced = per_command(session.passes)
    traced = per_command([session.traced])
    weyl = spans["verify.weyl_lower_bound_check"]
    derived = {
        "cli.import_s": spans["cli.import"]["total_s"],
        "census.enumerate_irreps.weights": int(spans["census.enumerate_irreps"]["size"]),
        "exact_count.uniform_sample.failed": int(spans["exact_count.uniform_sample"]["raised"]),
        "verify.frequencies": int(weyl["size"]),
        "verify.weyl_s_per_freq": weyl["total_s"] / weyl["size"] if weyl["size"] else 0.0,
        "trace.overhead_s": sum(traced[k][0] - untraced[k][0]
                                for k in untraced.keys() & traced.keys()),
    }
    for layer in LAYERS:
        derived[f"{layer}.self_s"] = sum(row["self_s"] for name, row in spans.items()
                                         if name.startswith(layer + "."))
    values = {}
    for name in names:
        prefix, stat = name.rsplit(".", 1)
        if name in derived:
            values[name] = derived[name]
        elif prefix.startswith("cmd.") and stat in CMD_STATS:
            values[name] = untraced.get(prefix[4:], (0.0,) * 3)[CMD_STATS.index(stat)]
        elif stat in SPAN_STATS:
            value = spans[prefix][stat]
            values[name] = value if stat == "self_s" else int(value)
        else:
            raise ValueError(f"no rule computes the per-layer metric {name!r}")
    return values, spans


def metric_specs(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def versions(warm: Outcome) -> dict:
    """Library versions from the warm-up probe's manifest."""
    if not warm.ok:
        return {}
    with open(os.path.join(WORK, "warmup.out")) as fh:
        return checks.parse(fh.read())[0]["versions"]


def report_table(session: Session, spans: dict | None) -> None:
    """Human-readable per-command (and per-span) table on standard error."""
    rows = [("untraced", o) for p in session.passes for o in p]
    rows += [("probe", o) for o in session.probes]
    rows += [("traced", o) for o in session.traced]
    for kind, o in rows:
        status = "ok" if o.ok else "FAILED " + "; ".join(o.problems)[:200]
        print(f"{kind:9s}{o.label:12s} wall {o.wall_s:8.3f} s  cpu {o.cpu_s:8.3f} s  "
              f"rss {o.rss_mb:7.1f} MB  {status}", file=sys.stderr)
    for name, row in sorted((spans or {}).items(), key=lambda kv: -kv[1]["self_s"]):
        if not row["total_s"]:
            continue
        print(f"span {name:45s} calls {int(row['calls']):6d}  self {row['self_s']:9.4f} s  "
              f"total {row['total_s']:9.4f} s", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not os.path.isfile(os.path.join(SRC, "slrep", "cli.py")):
        print(f"no slrep sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    cores = len(os.sched_getaffinity(0))
    env = child_env(cores)
    commands = workload_commands(args.workload, args.seed)
    os.makedirs(WORK, exist_ok=True)
    load_before = os.getloadavg()

    # untimed: compiles bytecode for every slrep module and reads numpy and
    # scipy into the page cache
    warm = run_command(WARMUP, env, deadline)
    session = Session()
    if args.trace:
        session.passes.append(run_pass(commands, env, deadline)[0])
        session.traced = run_pass(commands, env, deadline, traced=True)[0]
    else:
        for i in range(max(2, round(args.seconds / PASS_S))):
            pass_start = time.monotonic()
            outcomes, probes = run_pass(commands, env, deadline,
                                        probes=0 if i else PROBES)
            session.passes.append(outcomes)
            session.probes += probes
            now = time.monotonic()
            if now + (now - pass_start) > deadline:
                break

    specs = metric_specs("per_layer" if args.trace else "end_to_end")
    spans = None
    if args.trace:
        values, spans = per_layer(session, [spec["name"] for spec in specs])
    else:
        values = end_to_end(session)
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in specs}
    report_table(session, spans)
    failed = session.failed()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(session.passes), "nproc": cores,
              "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
              "versions": versions(warm),
              "env": env, "failed": {o.label: o.problems for o in failed}}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failed, "attempted": len(session.all()),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
