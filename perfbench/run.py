#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print one JSON result.

    python3 perfbench/run.py --workload serve-uniform --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The first run builds perfbench/ (which builds
the ftc library from ../src) into $CARGO_TARGET_DIR or .bench_build/. The
last line of standard output is {"correct", "attempted", "failed",
"metrics"}: with --trace 0 every end_to_end metric of BENCHMARK.json, with
--trace 1 every per_layer metric. The line before it carries provenance.
A wrong answer, a missing metric or a failed build exits non-zero without
a result line. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"
WORKLOADS = ("serve-uniform", "serve-site", "churn")
WRONG_ANSWER_EXIT = 3


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=subprocess.DEVNULL)
        if r.returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                        "-j", jobs], stdout=subprocess.DEVNULL)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "perfbench")


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not
    be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def work_dir(workload, seed, trace):
    return os.path.join(OUT_DIR, "%s-s%d-t%d-p%d" % (workload, seed, trace,
                                                   os.getpid()))


def run_workload(binary, workload, seed, seconds, trace, smoke=False,
                 flip_check=None):
    """Runs the benchmark program once; returns (exit code, parsed result
    or None, stderr text). A traced run leaves <work dir>.trace.jsonl
    behind."""
    os.makedirs(OUT_DIR, exist_ok=True)
    work = work_dir(workload, seed, trace)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--work-dir", work]
    if smoke:
        cmd.append("--smoke")
    if flip_check is not None:
        cmd += ["--flip-check", str(flip_check)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = None
    for line in p.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
    return p.returncode, result, p.stderr


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        return json.load(fh)


def select_metrics(result, spec, trace):
    """The BENCHMARK.json metric set for this mode, with units checked."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    out = {}
    for m in wanted:
        if m["name"] not in got:
            raise KeyError("metric %s not emitted" % m["name"])
        if got[m["name"]]["unit"] != m["unit"]:
            raise KeyError("metric %s has unit %s, expected %s" % (
                m["name"], got[m["name"]]["unit"], m["unit"]))
        out[m["name"]] = got[m["name"]]
    return out


def smoke(binary, spec):
    """Every workload in both modes at toy size: every named metric comes
    out with its unit, both answers occur in every checked set, the
    benchmark's build writes the same store as make_scheme (checked inside
    the program), and a deliberately flipped answer is rejected by the
    gate."""
    for w in WORKLOADS:
        for trace in (0, 1):
            code, result, err = run_workload(binary, w, 7, 0.5, trace, True)
            if trace:
                trace_file = work_dir(w, 7, trace) + ".trace.jsonl"
                if not os.path.exists(trace_file):
                    fail("smoke %s: no trace file written" % w)
                os.remove(trace_file)
            if code != 0 or result is None:
                fail("smoke %s trace=%d exited %d: %s" % (w, trace, code, err))
            try:
                select_metrics(result, spec, trace)
            except KeyError as e:
                fail("smoke %s trace=%d: %s" % (w, trace, e))
            chk = result["provenance"]["checked"]
            if chk["connected"] == 0 or chk["disconnected"] == 0:
                fail("smoke %s trace=%d: checked set lacks an answer: %s" % (
                    w, trace, chk))
            print("smoke %-13s trace=%d ok: %d metrics, %d checked "
                  "(%d connected, %d disconnected), store identical to "
                  "make_scheme's" % (
                      w, trace, len(result["metrics"]), chk["total"],
                      chk["connected"], chk["disconnected"]))
        code, result, err = run_workload(binary, w, 7, 0.5, 0, True,
                                         flip_check=5)
        if code != WRONG_ANSWER_EXIT or result is not None or \
                "WRONG ANSWER" not in err:
            fail("smoke %s: a flipped answer was not rejected (exit %d)" % (
                w, code))
        print("smoke %-13s flipped answer rejected: %s" % (
            w, err.strip().splitlines()[-1]))
    print("smoke ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long self-check of every workload")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    spec = load_spec()
    binary = build()
    if args.smoke:
        smoke(binary, spec)
        return

    code, result, err = run_workload(binary, args.workload, args.seed,
                                     args.seconds, args.trace)
    sys.stderr.write(err)
    if code != 0 or result is None:
        fail("run exited %d without a result" % code,
             code if code != 0 else 2)
    try:
        metrics = select_metrics(result, spec, args.trace)
    except KeyError as e:
        fail(str(e))
    prov = result["provenance"]
    prov["commit"] = commit()
    prov["source_sha256"] = source_digest()
    prov["all_metrics"] = result["metrics"]
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
