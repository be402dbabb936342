#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Configures and builds perfbench/ (which compiles the repository's src/) into
.bench_build/perfbench at the repository root, then runs the benchmark
binary with the given arguments. Build output goes to stderr; the binary's
stdout passes through unchanged, so its last line is the result object.
With --trace 1 the spans are also written to
.bench_build/traces/<workload>-seed<n>.json (Chrome trace-event format).
"""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build() -> bool:
    """Configures (once) and builds; False when either step fails."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def run(cmd: list) -> int:
    """Runs `cmd` in the foreground; a SIGTERM/SIGINT to this script is
    passed on to it, and the script always waits for it to end."""
    child = subprocess.Popen(cmd, cwd=ROOT)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


def option(args: list, name: str) -> str:
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return ""


def main() -> int:
    args = sys.argv[1:]
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("perfbench: the repository sources (src/) are not here",
              file=sys.stderr)
        return 1
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args == ["--self-test"]:
        return (run([str(BUILD / "perfbench_selftest")]) or
                run([sys.executable, str(HERE / "tests" / "test_compare.py")]))
    if option(args, "--trace") == "1" and not option(args, "--trace-out"):
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        name = f"{option(args, '--workload')}-seed{option(args, '--seed')}.json"
        args = args + ["--trace-out", str(traces / name)]
    return run([str(BUILD / "perfbench")] + args)


if __name__ == "__main__":
    sys.exit(main())
