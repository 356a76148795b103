#!/usr/bin/env python3
"""Build and run the vppstudy end-to-end benchmark.

Usage, from the root of a source checkout:

  python3 e2ebench/run.py --workload <name> --seed N --seconds S --trace 0|1
  python3 e2ebench/run.py --self-test         # unit tests + digest-corruption check
  python3 e2ebench/run.py --pin               # re-pin output digests (outputs changed on purpose)
  python3 e2ebench/run.py --compare A B       # compare two result files

The first run configures and builds the library sources and the benchmark binary into
.bench_build/e2ebench (a Release build); later runs only re-check the build.
The binary's standard output ends with one JSON result line.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK = os.path.join(ROOT, ".bench_build", "e2ebench-work")
DIGESTS = os.path.join(ROOT, "e2ebench", "digests.txt")
RUN_TIMEOUT_S = 175


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src; run from a full source checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step = ["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build of %s failed" % target)
    os.makedirs(WORK, exist_ok=True)
    return os.path.join(BUILD, target)


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Run the binary; returns (exit code, stdout text). A binary that
    outlives `timeout` is killed and waited for."""
    binary = build("e2ebench")
    cmd = [binary] + args + ["--workdir", WORK]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        return 124, out
    return proc.returncode, proc.stdout


def last_result(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def measure(argv):
    code, stdout = run_binary(argv + ["--digests", DIGESTS])
    result = last_result(stdout)
    if result is None:
        # Never end with a partial result line the caller could mistake for
        # a measurement.
        sys.stdout.write("\n".join(l for l in stdout.splitlines()
                                   if not l.startswith("{")) + "\n")
        fail("benchmark exited %d without a result" % code)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


def self_test():
    tests = build("e2ebench_tests")
    if subprocess.run([tests], cwd=WORK).returncode != 0:
        fail("unit tests failed")

    base = ["--workload", "campaign_grid", "--seed", "1", "--seconds", "1",
            "--trace", "0"]
    code, stdout = run_binary(base + ["--digests", DIGESTS])
    result = last_result(stdout)
    if code != 0 or result is None or not result["correct"]:
        fail("self-test: a run against the pinned digests did not pass")

    # Alter the digest the run above checked: the same run must now fail.
    corrupt = os.path.join(WORK, "corrupt-digests.txt")
    with open(DIGESTS) as src, open(corrupt, "w") as dst:
        for line in src:
            fields = line.split()
            if fields[:3] == ["campaign_grid", "1", "grid"]:
                digest = fields[3]
                flipped = ("1" if digest[0] == "0" else "0") + digest[1:]
                line = " ".join(fields[:3] + [flipped]) + "\n"
            dst.write(line)
    code, stdout = run_binary(base + ["--digests", corrupt])
    os.remove(corrupt)
    result = last_result(stdout)
    if code == 0 or result is None or result["correct"]:
        fail("self-test: an altered pinned digest did not fail the run")
    print("self-test passed: unit tests, pinned digests match, "
          "an altered digest fails the run")
    return 0


def compare(path_a, path_b):
    docs = []
    for path in (path_a, path_b):
        with open(path) as f:
            docs.append(json.load(f))
    classes = [d["host"]["host_class"] for d in docs]
    if classes[0] != classes[1]:
        print("WARNING: result sets come from different host classes:\n"
              "  %s: %s\n  %s: %s" % (path_a, classes[0], path_b, classes[1]))
    metrics_a = docs[0]["result"]["metrics"]
    metrics_b = docs[1]["result"]["metrics"]
    print("%-26s %16s %16s %8s" % ("metric", "A", "B", "B/A"))
    for name, a in metrics_a.items():
        b = metrics_b.get(name)
        if b is None:
            continue
        ratio = b["value"] / a["value"] if a["value"] else float("nan")
        print("%-26s %16.6g %16.6g %8.3f %s" % (name, a["value"], b["value"],
                                                 ratio, a["unit"]))
    return 0


def main(argv):
    if argv[:1] == ["--self-test"]:
        return self_test()
    if argv[:1] == ["--pin"]:
        code, _ = run_binary(["--pin", "--digests", DIGESTS], timeout=None)
        return code
    if argv[:1] == ["--compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    return measure(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
