"""Self-tests of the benchmark's accounting and output checks.

    python3 perfbench/selftest.py

Run from the root of a source checkout (about 10 s).  Exit status 0 means
every test passed.

1. A corrupted output is a failure: a real `count --n 200` output passes its
   check, and the same output with one digit changed in count_n, or in one
   CSV row, fails it, also when a process prints it and exits 0.
2. A crashing command is counted as failed and left out of the time
   metrics: in a session of one good command and one crash, `failed` is 1
   and session_s equals the good command's wall time alone.
3. The seed reaches the sampling and weyl commands: every workload command
   that takes --seed carries the run's seed; two seeds give different
   Boltzmann samples, and each weyl run reports the seed of its grid.
"""

from __future__ import annotations

import os
import sys
import time

import checks
import run

FAILURES = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def printing(text: str) -> list:
    """argv of a process that prints `text` and exits 0."""
    return [sys.executable, "-c", f"import sys; sys.stdout.write({text!r})"]


def test_corrupted_output(env, deadline):
    cmd = run.Command("count200", ("count", "--rank", "2", "--n", "200"), checks.count(200))
    good = run.run_command(cmd, env, deadline)
    expect(good.ok, f"real count --n 200 output passes its check {good.problems}")
    with open(os.path.join(run.WORK, "count200.out")) as fh:
        text = fh.read()
    count_200 = str(checks.rank2_counts(200)[200])
    wrong = count_200[:-1] + str((int(count_200[-1]) + 1) % 10)
    bad_manifest = text.replace(f'"count_n": "{count_200}"', f'"count_n": "{wrong}"')
    bad_row = text.replace("\n17,87\n", "\n17,88\n")
    expect(bad_manifest != text and bad_row != text, "corruptions change the output")
    expect(bool(cmd.check(bad_manifest)), "a wrong count_n digit is reported")
    expect(bool(cmd.check(bad_row)), "a wrong CSV digit is reported")
    printed = run.run_command(cmd, env, deadline, argv=printing(bad_row))
    session = run.Session(passes=[[good, printed]])
    expect(not printed.ok and len(session.failed()) == 1,
           "a corrupted output from a process exiting 0 counts as failed")


def test_crash_accounting(env, deadline):
    good = run.run_command(run.PROBE, env, deadline)
    crash = run.run_command(run.Command("crash", (), checks.count(1)), env, deadline,
                            argv=[sys.executable, "-c", "raise RuntimeError('injected')"])
    session = run.Session(passes=[[good, crash]])
    metrics = run.end_to_end(session)
    expect(not crash.ok and "exit status 1" in crash.problems[0],
           f"the crash is reported with its exit status {crash.problems}")
    expect(len(session.failed()) == 1 and len(session.all()) == 2,
           "the crash is counted: attempted 2, failed 1")
    expect(metrics["session_s"] == good.wall_s and metrics["cpu_s"] == good.cpu_s,
           "session_s and cpu_s leave the crash out")


def test_seed_reaches_commands(env, deadline):
    seed = 2**63 + 11
    seeded = [c for w in run.WORKLOADS for c in run.workload_commands(w, seed)
              if c.args[0] == "sample" or c.args[:2] == ("verify", "weyl")]
    expect(len(seeded) == 5 and all(
        c.args[c.args.index("--seed") + 1] == str(seed) for c in seeded),
        "every sample and weyl command of every workload carries the seed")
    texts = {}
    for s in (5, 6):
        for label, args, check in (
                ("boltzmann", ("sample", "--rank", "2", "--n", "1000", "--mode",
                               "boltzmann", "--samples", "3", "--seed", str(s)),
                 checks.samples("boltzmann", 1000, 3, s)),
                ("weyl", ("verify", "weyl", "--rank", "2", "--N", "8", "--eps",
                          "0.03125", "--num-thetas", "50", "--seed", str(s)),
                 checks.weyl(2, 8, 0.03125, 50, s))):
            out = run.run_command(run.Command(label, args, check), env, deadline)
            expect(out.ok, f"{label} with seed {s} passes and echoes the seed {out.problems}")
            with open(os.path.join(run.WORK, f"{label}.out")) as fh:
                texts[label, s] = checks.parse(fh.read())
    expect(texts["boltzmann", 5][1] != texts["boltzmann", 6][1],
           "two seeds draw different Boltzmann samples")
    grids = [texts["weyl", s][0]["results"]["grid"] for s in (5, 6)]
    expect("(seed 5)" in grids[0] and "(seed 6)" in grids[1],
           f"each weyl run draws its log-uniform grid from its own seed {grids}")


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    env = run.child_env(len(os.sched_getaffinity(0)))
    deadline = time.monotonic() + run.DEADLINE_S
    test_corrupted_output(env, deadline)
    test_crash_accounting(env, deadline)
    test_seed_reaches_commands(env, deadline)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
