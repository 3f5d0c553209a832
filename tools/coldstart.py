"""Time cold `python -m dihedral` processes stage by stage, and print one JSON object.

    python tools/coldstart.py [--rounds N]

Each round starts one fresh interpreter per command below, in turn, so a slow
spell on a shared machine falls on every command alike:

* `pass`: `python -c pass`, the interpreter's own start-up and teardown;
* `numpy`: `python -c "import numpy"`;
* `cli_import`: `python -c "import dihedral.cli"`;
* `classify_fp7` and `classify_q`: `python -m dihedral classify EXPR --json`
  on one input over fp:7 and one over q, as a user or the bench's cli
  workload runs it.

This process and so every child are pinned to one CPU.  The package is
imported from the `src/` directory of the checkout this script sits in.  The
object printed gives each command's median and quartiles in ms, and whether
PYTHONDONTWRITEBYTECODE is set: when it is, every process compiles
dihedral's sources again, about 25 ms of `cli_import` on a 2-vCPU machine.

The `-c` children end with the interpreter's exit-time collection over every
object their imports built.  `python -m dihedral` freezes that heap before it
runs, so `classify_*` can read less than `cli_import`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = {
    "pass": ["-c", "pass"],
    "numpy": ["-c", "import numpy"],
    "cli_import": ["-c", "import dihedral.cli"],
    "classify_fp7": ["-m", "dihedral", "classify", "(t^-1 - t)/2 + s*(1 + (t - t^-1)/2)", "--field", "fp:7", "--json"],
    "classify_q": ["-m", "dihedral", "classify", "s*t^2", "--field", "q", "--json"],
}


def time_child(args, env):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"coldstart: {args} exited {proc.returncode}: {proc.stderr.decode().strip()}")
    return elapsed * 1e3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=20, help="fresh processes per command (default 20)")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = {name: [] for name in COMMANDS}
    for _ in range(args.rounds):
        for name, command in COMMANDS.items():
            times[name].append(time_child(command, env))
    summary = {}
    for name, xs in times.items():
        q1, median, q3 = statistics.quantiles(xs, n=4)
        summary[name] = {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2)}
    print(json.dumps({
        "rounds": args.rounds,
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "ms": summary,
    }, indent=1))


if __name__ == "__main__":
    main()
