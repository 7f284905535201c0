#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload tls_full --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --smoke

The first form configures and builds perfbench/ (and with it the phissl
libraries from src/) into the build directory, then runs one workload; the
benchmark binary's stdout is passed through, so its last line is the result
object. --smoke runs every workload briefly, untraced and traced, and checks
that every metric BENCHMARK.json names is printed with its unit and that the
trace file passes tools/check_trace_json.py.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    root = BUILD_ROOT if os.path.isabs(BUILD_ROOT) else os.path.join(ROOT, BUILD_ROOT)
    return os.path.join(root, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ssl", "async", "transport.hpp")):
        log("phissl sources not found next to perfbench/; nothing to benchmark")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if res.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            sys.exit(2)
    return os.path.join(out, "perfbench")


def source_digest():
    """Commit id when the tree is a git checkout, else a digest of the
    sources (benchmark checkouts carry no .git)."""
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0 and res.stdout.strip():
            return res.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, trace_out):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--key", os.path.join(HERE, "key2048.pem"),
           "--commit", source_digest()]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    checker = os.path.join(ROOT, "tools", "check_trace_json.py")
    failures = 0
    for wl in spec["workloads"]:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            trace_out = os.path.join(build_dir(), f"smoke-{wl['name']}.trace.json")
            res = run_once(binary, wl["name"], 1, 2, trace, trace_out if trace else None)
            lines = res.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                log(f"{wl['name']} trace={int(trace)}: no result line")
                failures += 1
                continue
            problems = []
            if res.returncode != 0 or result.get("correct") is not True:
                problems.append(f"exit {res.returncode}, correct={result.get('correct')}")
            got = result.get("metrics", {})
            for m in wanted:
                entry = got.get(m["name"])
                if entry is None:
                    problems.append(f"missing metric {m['name']}")
                elif entry.get("unit") != m["unit"] or not isinstance(
                        entry.get("value"), (int, float)):
                    problems.append(f"bad metric {m['name']}: {entry}")
            if trace and subprocess.run([sys.executable, checker, "--trace", trace_out],
                                        cwd=ROOT).returncode != 0:
                problems.append("trace file rejected by check_trace_json.py")
            status = "ok" if not problems else "; ".join(problems)
            log(f"smoke {wl['name']} trace={int(trace)}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if "PHISSL_FORCE_BACKEND" in os.environ:
        log("PHISSL_FORCE_BACKEND is set; the benchmark measures library defaults only")
        return 2
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")
    binary = build()
    if args.smoke:
        return smoke(binary)
    trace_out = None
    if args.trace:
        trace_out = os.path.join(build_dir(), f"trace-{args.workload}-{args.seed}.json")
    res = run_once(binary, args.workload, args.seed, args.seconds, args.trace, trace_out)
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
