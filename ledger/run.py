#!/usr/bin/env python3
"""The latency ledger: dprle's end-to-end and per-layer benchmark.

Run from the repository root:

    python3 ledger/run.py --workload serve_mix --seed 7 --seconds 10 --trace 0

builds ledger/ (the dprle libraries from src/ plus the benchmark program)
into .bench_build/, runs one workload, and prints its report; the last
line is one JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 1 reports the per-layer metrics instead of the end-to-end ones.
--seed heldout uses the held-out seed of ledger/workloads.json.

Other modes:
    --write-manifest   regenerate BENCHMARK.json from ledger/workloads.json
    --selfcheck        smoke-run every workload, check every named metric
                       and unit, and check that an injected fault shows up
                       as a non-zero error rate
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join(HERE, "workloads.json")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    out = os.path.join(".bench_build", "ledger-build")
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT) != 0:
                f.flush()
                with open(log) as r:
                    sys.stderr.write("".join(r.readlines()[-30:]))
                sys.stderr.write("ledger: build failed (%s)\n" % log)
                sys.exit(1)
    return os.path.join(out, "ledger_bench")


def load_config():
    with open(CONFIG) as f:
        return json.load(f)


def run(binary, args, env=None):
    """Runs the benchmark program; returns (exit code, stdout)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, env=env,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("ledger: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1, ""
    return proc.returncode, out


def why_line(name, w):
    """The BENCHMARK.json `why` of a workload: the reason, then how it
    loads the server, its latency limit and its cache state."""
    load = ("%g ops/s offered" % w["offered_rate_ops_s"] if w["loop"] == "open"
            else "%d client%s" % (w["clients"], "" if w["clients"] == 1 else "s"))
    line = "%s [%s loop, %s, limit %g ms, %s]" % (
        w["why"], w["loop"], load, w["latency_limit_ms"], w["cache_state"])
    if len(line) > 200:
        raise SystemExit("why of %s is %d > 200 characters" % (name, len(line)))
    return line


def manifest(config):
    return {
        "command": ["python3", "ledger/run.py"],
        "paths": ["ledger"],
        "run_seconds": config["run_seconds"],
        "workloads": [{"name": n, "why": why_line(n, w)}
                      for n, w in config["workloads"].items()],
        "end_to_end": config["end_to_end"],
        "per_layer": [{"name": m["name"], "unit": m["unit"],
                       "better": m["better"]} for m in config["per_layer"]],
    }


def result_of(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selfcheck(binary, config):
    failures = []
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if bench != manifest(config):
        failures.append("BENCHMARK.json is stale: run --write-manifest")
    layer_names = {m["name"] for m in config["per_layer"]}
    for row in config["predictions"]:
        layer_names.difference_update(row["metrics"])
    if layer_names:
        failures.append("per-layer metrics without a prediction: %s"
                        % sorted(layer_names))
    for name in config["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run(binary, ["--workload", name, "--seed", "1",
                                     "--seconds", "1", "--trace", trace,
                                     "--smoke"])
            res = result_of(out) if code == 0 else None
            if res is None:
                failures.append("%s trace=%s: exit %d" % (name, trace, code))
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            if got != want:
                failures.append("%s trace=%s: metrics %s, want %s"
                                % (name, trace, got, want))
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                failures.append("%s trace=%s: %s" % (name, trace, res))
            print("selfcheck %-12s trace=%s ok (%d ops)"
                  % (name, trace, res["attempted"]))
    for name, site in config["fault_checks"].items():
        env = dict(os.environ, DPRLE_FAULT=site)
        code, out = run(binary, ["--workload", name, "--seed", "1",
                                 "--seconds", "1", "--trace", "0", "--smoke"],
                        env)
        res = result_of(out) if code == 0 else None
        if res is None or res["failed"] == 0 or res["correct"]:
            failures.append("%s under DPRLE_FAULT=%s: failures not counted (%s)"
                            % (name, site, res))
        else:
            print("selfcheck %-12s DPRLE_FAULT=%s: error_rate %.4f"
                  % (name, site, res["failed"] / res["attempted"]))
    for f in failures:
        sys.stderr.write("selfcheck FAILED: %s\n" % f)
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed")
    p.add_argument("--seconds")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--write-manifest", action="store_true")
    p.add_argument("--selfcheck", action="store_true")
    a = p.parse_args()

    if not os.path.isdir("src") or not os.path.exists(CONFIG):
        sys.stderr.write("ledger: run from the dprle repository root\n")
        return 1
    config = load_config()
    if a.write_manifest:
        with open("BENCHMARK.json", "w") as f:
            json.dump(manifest(config), f, indent=2)
            f.write("\n")
        return 0
    binary = build()
    if a.selfcheck:
        return selfcheck(binary, config)
    if not (a.workload and a.seed and a.seconds):
        p.error("--workload, --seed and --seconds are required")
    seed = str(config["heldout_seed"]) if a.seed == "heldout" else a.seed
    args = ["--workload", a.workload, "--seed", seed, "--seconds", a.seconds,
            "--trace", a.trace]
    if a.smoke:
        args.append("--smoke")
    code, out = run(binary, args)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
