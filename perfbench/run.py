"""KG-TOSA pipeline benchmark: one command for every workload.

    python3 perfbench/run.py --workload nc-pv-mag --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the program and the benchmark
(perfbench/build.py), runs one workload in a single JVM on Spark
``local[N]`` with N = the usable core count, forwards the JVM's log to
stderr, and prints as the last line of stdout one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its
per-layer metrics. The run's metadata (scale, N, shuffle partitions, driver
heap, seed, git sha, source hash) is printed on the line before and, with
the result, saved under .bench_build/results/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep perfbench/ free of build output
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

JVM_TIMEOUT_S = 170

# Module openings Spark needs on Java 17 (what spark-submit adds).
JAVA_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def driver_heap():
    """SPARK_DRIVER_MEM, else half the machine's memory clamped to 2..8 GiB (as the tier-1 tests derive it)."""
    if os.environ.get("SPARK_DRIVER_MEM"):
        return os.environ["SPARK_DRIVER_MEM"]
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
        return f"{min(8, max(2, kb // 2097152))}g"
    except (OSError, StopIteration, ValueError):
        return "2g"


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def expected_metrics(trace):
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec, want = expected_metrics(args.trace)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"run: unknown workload {args.workload}; known: {', '.join(names)}")

    classpath = build.build()
    cores = len(os.sched_getaffinity(0))
    heap = driver_heap()
    tmp = os.path.join(build.OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", f"-Xmx{heap}", "-Xss8m", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           f"-Dperfbench.heap={heap}"] + JAVA_MODULE_OPTS + [
        "-cp", os.pathsep.join(classpath), "repro.perfbench.Main",
        "--workload", args.workload, "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--cores", str(cores)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]

    t0 = time.time()
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        stdout, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    meta = result = None
    for line in stdout.splitlines():
        if line.startswith("META "):
            meta = json.loads(line[5:])
        elif line.startswith("RESULT "):
            result = json.loads(line[7:])
        else:
            print(line, file=sys.stderr)
    if proc.returncode != 0 or result is None or meta is None:
        sys.exit(f"run: benchmark JVM failed (exit {proc.returncode})")

    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.exit(f"run: metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
                 f"extra {sorted(set(got) - set(want))}, units {[(k, got[k], want[k]) for k in want if k in got and got[k] != want[k]]}")

    meta.update(git_sha=git_sha(), source_sha256=build.source_stamp(), wall_s=round(time.time() - t0, 3))
    os.makedirs(os.path.join(build.OUT, "results"), exist_ok=True)
    out = os.path.join(build.OUT, "results", f"{args.workload}-seed{meta['seed']}-trace{args.trace}-{int(t0)}.json")
    with open(out, "w") as f:
        json.dump({"meta": meta, "result": result}, f, indent=1, sort_keys=True)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
