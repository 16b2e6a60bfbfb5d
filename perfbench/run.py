#!/usr/bin/env python3
"""perfbench: the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the program from the checkout's sources (CMake, into .bench_build),
makes the workload's inputs from --seed with dna::generate_genome /
dna::sample_reads, runs the workload for about S seconds through the
program's entry points, checks every output with perfbench/checker.py and
prints one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. See perfbench/README.md for the workloads, metrics and seeds.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import checker  # noqa: E402
import harvest  # noqa: E402
import service  # noqa: E402

BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
K = 22  # the harness's kK
DAEMON_SETUPS = 21
TAIL_SAMPLES = 100
ISOLATED_DEVICES = 4

# Every workload: k=22, 101 bp error-free reads, repeat-free genome (see
# README: a seed-independent contig structure keeps n50_bp comparable
# between seeds).
WORKLOADS = {
    "traverse-24k": dict(length=24000, coverage=20, shards=120, threads=4,
                         devices=1, min_ops=3),
    "kmer-10k-vote": dict(length=10000, coverage=300, shards=40, threads=4,
                          devices=1, min_ops=3, fault_variation=0.10,
                          fault_seed=2020, recovery="vote"),
    "service-3k": dict(length=3000, coverage=15, shards=8, threads=1,
                       devices=1, min_ops=3, service=True, clients=2,
                       max_jobs=2, inputs=32),
}



def metric_units(section):
    """Metric name -> unit for one list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def derived_seed(*parts):
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def tail(values):
    """p90 when at least ten samples lie beyond it; with fewer samples there
    is no tail to report, and the median stands in."""
    if len(values) < TAIL_SAMPLES:
        return statistics.median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def build():
    """Builds pima_asm, pima_devd and the harness; returns their paths."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: program sources not found beside "
                         "perfbench/ (src/CMakeLists.txt)")

    def cmake(*args):
        subprocess.run(["cmake", *args], check=True, stdout=sys.stderr,
                       stderr=sys.stderr, timeout=880)

    if not (BUILD / "CMakeCache.txt").is_file():
        cmake("-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release")
    cmake("--build", str(BUILD), "-j", str(nproc()), "--target", "pima_asm",
          "pima_devd", "perfbench_harness")
    return {"harness": str(BUILD / "perfbench_harness"),
            "pima_asm": str(BUILD / "pima_tools" / "pima_asm"),
            "pima_devd": str(BUILD / "pima_tools" / "pima_devd")}


def generate(bins, wl, seed, index, work):
    """Writes genome/reads for input `index` of a run; returns the paths."""
    genome = work / f"genome{index}.fa"
    reads = work / f"reads{index}.fa"
    subprocess.run(
        [bins["harness"], "gen", "--length", str(wl["length"]),
         "--coverage", str(wl["coverage"]), "--seed", str(seed),
         "--genome", str(genome), "--reads", str(reads)],
        check=True, stdout=subprocess.DEVNULL, timeout=120)
    return genome, reads


def reference(genome, reads):
    return checker.Reference(checker.read_fasta(reads),
                             checker.read_fasta(genome)[0], K)


def harness_run(bins, wl, reads, out, seconds, min_ops, trace):
    cmd = [bins["harness"], "run", "--reads", str(reads),
           "--shards", str(wl["shards"]), "--threads", str(wl["threads"]),
           "--devices", str(wl["devices"]), "--seconds", str(seconds),
           "--min-ops", str(min_ops), "--out", str(out)]
    if wl.get("isolate"):
        cmd += ["--isolate", "--devd", bins["pima_devd"]]
    if wl.get("fault_variation"):
        cmd += ["--fault-variation", str(wl["fault_variation"]),
                "--fault-seed", str(wl["fault_seed"]),
                "--recovery", wl["recovery"]]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_harness_output(raw, out, ref):
    """Failures of one harness run: the checker on the first assembly's
    contigs, plus the program's own cross-run identities."""
    errors = []
    if raw["k"] != K:
        errors.append(f"harness assembled with k={raw['k']}, checker uses {K}")
    if raw["op_s"]:
        contigs = checker.read_fasta(out / "contigs.fa")
        errors += checker.check_assembly(contigs, raw, ref)
        errors += checker.self_test(contigs, raw, ref)
    if not raw["identical"]:
        errors.append("assemblies of the same input differ")
    if raw.get("inproc_match") is False:
        errors.append("isolated run differs from the in-process run")
    if raw.get("traced_match") is False:
        errors.append("traced run differs from the untraced run")
    return errors


def layer_metrics(raw, out, wl):
    """Per-layer metrics of a traced harness run."""
    m = harvest.harvest(out / "trace.json", out / "metrics.json",
                        wl["threads"] * wl["devices"])
    assembly_s = statistics.median(raw["op_s"])
    for key, value in raw["ns_per_cmd"].items():
        m[f"dram.ns_per_cmd.{key}"] = value
    m["dram.sim_cmds_per_s"] = raw["sim_commands"] / assembly_s
    m["core.hash.ns_per_insert"] = raw["hash_ns_per_insert"]
    m["core.hash.cmds_per_insert"] = raw["hash_cmds_per_insert"]
    m["core.degree.s"] = raw["degree_s"]
    m["core.degree.blocks"] = raw["degree_blocks"]
    m["core.degree.us_per_block"] = \
        raw["degree_s"] * 1e6 / max(1, raw["degree_blocks"])
    m["core.pipeline.host_walk_s"] = raw["host_walk_s"]
    for key, value in raw["fault"].items():
        m[f"runtime.recovery.{key}"] = value
    m["telemetry.traced_extra_s"] = raw["traced_s"] - assembly_s
    m["telemetry.dropped_events"] = raw["dropped_events"]
    for key in ("service.submit_ms", "service.queue_ms", "service.run_s",
                "service.result_ms"):
        m[key] = 0.0
    return m


def run_pipeline_workload(bins, wl, args, work):
    genome, reads = generate(bins, wl, derived_seed(args.workload, args.seed),
                             0, work)
    raw = harness_run(bins, wl, reads, work, args.seconds, wl["min_ops"],
                      args.trace)
    ref = reference(genome, reads)
    errors = check_harness_output(raw, work, ref)
    if raw["failed"]:
        log(f"failed assembly: {raw['error']}")
    attempted = len(raw["op_s"]) + int(raw["failed"])
    if not raw["op_s"]:
        raise SystemExit(f"perfbench: no assembly succeeded: {raw['error']}")
    if args.trace:
        return errors, attempted, int(raw["failed"]), \
            layer_metrics(raw, work, wl)
    op_s = raw["op_s"]
    log(f"assembly seconds: {op_s}")
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "assembly_s": statistics.median(op_s),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        "sim_time_us": raw["sim_time_ns"] / 1e3,
        "sim_energy_uj": raw["sim_energy_pj"] / 1e6,
        "n50_bp": raw["n50"],
        "job_p50_s": statistics.median(op_s),
        "job_p90_s": tail(op_s),
        "jobs_per_s": len(op_s) / raw["loop_s"],
    }
    return errors, attempted, int(raw["failed"]), metrics


def run_service_workload(bins, wl, args, work):
    inputs = [generate(bins, wl, derived_seed(args.workload, args.seed, i), i,
                       work) for i in range(wl["inputs"])]
    specs = [{"reads": str(reads.resolve()), "k": K, "shards": wl["shards"],
              "threads": wl["threads"], "devices": wl["devices"]}
             for _, reads in inputs]
    setups = []
    daemon = None
    try:
        for i in range(DAEMON_SETUPS):
            daemon = service.Daemon(bins["pima_asm"], str(work / f"state{i}"),
                                    wl["max_jobs"])
            setups.append(daemon.setup_s)
            if i + 1 < DAEMON_SETUPS:
                daemon.stop()
        jobs, wall = service.closed_loop(daemon.sock, specs, wl["clients"],
                                         args.seconds, TAIL_SAMPLES)
        body = service.request(daemon.sock, {"verb": "metrics",
                                             "format": "json"})["body"]
        rss_kb = daemon.peak_rss_kb()
    finally:
        if daemon is not None:
            daemon.stop()

    refs = [reference(genome, reads) for genome, reads in inputs]
    sim = service.job_sim_stats(body)
    errors, done = [], []
    per_input = {}
    failed = 0
    for spec_index, outcome in jobs:
        if not outcome["ok"]:
            failed += 1
            log(f"failed job: {outcome['error']}")
            continue
        result = outcome["result"]
        contigs = checker.parse_fasta(result["fasta"])
        errors += checker.check_assembly(contigs, result, refs[spec_index])
        done.append(outcome)
        stats = sim[outcome["job"]]
        per_input.setdefault(spec_index, set()).add(
            (stats["time_ns"], stats["energy_pj"], result["n50"]))
    if not done:
        raise SystemExit("perfbench: no service job succeeded")
    if any(len(v) > 1 for v in per_input.values()):
        errors.append("jobs on the same input report different simulated "
                      "time, energy or N50")
    first_index, first = next((i, o) for i, o in jobs if o["ok"])
    errors += checker.self_test(checker.parse_fasta(first["result"]["fasta"]),
                                first["result"], refs[first_index])
    if args.trace:
        # The job's pipeline layers, in-process on input 0 with the job's
        # configuration, plus the service's own phases from the loop.
        out = work / "layers"
        out.mkdir()
        raw = harness_run(bins, wl, inputs[0][1], out, min(args.seconds, 2.0),
                          wl["min_ops"], True)
        errors += check_harness_output(raw, out, refs[0])
        metrics = layer_metrics(raw, out, wl)
        for key in ("submit_ms", "queue_ms", "run_s", "result_ms"):
            metrics[f"service.{key}"] = statistics.median(o[key] for o in done)
        # runtime.procpool: the same input once more, each of 4 device
        # shards in its own pima_devd (a job submitted with
        # "isolation": "process"), checked against the in-process run.
        iso = dict(wl, devices=ISOLATED_DEVICES, isolate=True)
        iso_out = work / "isolated"
        iso_out.mkdir()
        raw_iso = harness_run(bins, iso, inputs[0][1], iso_out, 0.0, 1, True)
        errors += check_harness_output(raw_iso, iso_out, refs[0])
        for key, value in harvest.harvest(iso_out / "trace.json",
                                          iso_out / "metrics.json",
                                          ISOLATED_DEVICES).items():
            if key.startswith("runtime.procpool."):
                metrics[key] = value
        harness_ops = [raw, raw_iso]
        harness_failed = sum(int(r["failed"]) for r in harness_ops)
        return errors, len(jobs) + harness_failed + \
            sum(len(r["op_s"]) for r in harness_ops), \
            failed + harness_failed, metrics
    # Simulated figures and N50 are fixed per input: average over inputs.
    fixed = [next(iter(v)) for v in per_input.values()]
    turnaround = [o["turnaround_s"] for o in done]
    log(f"{len(done)} jobs, turnaround p50 "
        f"{statistics.median(turnaround):.4f} s")
    metrics = {
        "setup_s": statistics.median(setups),
        "assembly_s": statistics.median(o["run_s"] for o in done),
        "peak_rss_mb": rss_kb / 1024,
        "sim_time_us": statistics.mean(v[0] for v in fixed) / 1e3,
        "sim_energy_uj": statistics.mean(v[1] for v in fixed) / 1e6,
        "n50_bp": statistics.mean(v[2] for v in fixed),
        "job_p50_s": statistics.median(turnaround),
        "job_p90_s": tail(turnaround),
        "jobs_per_s": len(done) / wall,
    }
    return errors, len(jobs), failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bins = build()
    wl = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = run_service_workload if wl.get("service") \
            else run_pipeline_workload
        errors, attempted, failed, values = runner(bins, wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors:
        log(f"check failed: {e}")
    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = set(units) - set(values)
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {sorted(missing)}")
    print(json.dumps({
        "correct": not errors and attempted > failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
