#!/usr/bin/env python3
"""Builds the program from source and runs one benchmark workload.

    python3 perfbench/run.py --workload expand --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build lands in
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run
configures and compiles (about 1.5 minutes on 4 cores); later runs only
rebuild what changed. The benchmark binary's output is passed through; its
last line is the JSON result, checked here against the metric names and
units that BENCHMARK.json declares for the chosen --trace mode.
"""
import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("expand", "quality", "serve", "expand-mpp")
# The benchmark binary stops its own loops long before this.
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env(build_dir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PROBKB_")}
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def build(build_dir, env):
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=log, stderr=log, env=env, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4", "--target",
                    "probkb_perfbench", "perfbench_lib_test"],
                   stdout=log, stderr=log, env=env, check=True)


def run_child(argv, env):
    """Runs argv in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True, process_group=0)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{argv[0]} did not finish within {RUN_TIMEOUT_S} s", 1)
    return proc.returncode, out


def check_result(line, trace):
    """The result line must carry exactly the declared metrics and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, or units differ"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper checks only")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "BENCHMARK.json").is_file():
        die("BENCHMARK.json missing at the checkout root")
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no program sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "perfbench"
    env = child_env(build_dir)
    try:
        build(build_dir, env)
    except subprocess.CalledProcessError as e:
        die(f"build failed: {e}", 1)

    if args.self_test:
        code, out = run_child([str(build_dir / "perfbench_lib_test")], env)
        sys.stdout.write(out)
        return code

    spans = build_dir / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    code, out = run_child(
        [str(build_dir / "probkb_perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out-dir", str(spans)], env)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out)
        die(f"benchmark exited with code {code}", 1)
    problem = check_result(lines[-1], args.trace == 1)
    if problem is not None:
        sys.stderr.write(out)
        die(problem, 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
