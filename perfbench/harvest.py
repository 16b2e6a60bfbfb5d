"""Per-layer figures from one traced run.

Reads the Chrome trace the program wrote while tracing (controller spans
`pipeline` and `stage:*`, engine `task` spans on every channel track, and,
under process isolation, the stitched `rpc:<verb>` controller spans and the
`devd:<verb>` spans of every `pima_devd` worker) plus the run's metrics
snapshot, and folds them into the per-layer metrics of BENCHMARK.json.

A span's self time is its duration minus the spans directly nested in it
on the same process and track.
"""

import json
from collections import defaultdict

STAGES = ("hashmap", "debruijn", "traverse")
KINDS = ("ROW_READ", "ROW_WRITE", "AAP_COPY", "AAP_2ROW", "AAP_TRA",
         "SUM_CYCLE", "DPU_REDUCE")
RPC_VERBS = ("kmers", "program", "extract", "degree_block", "telemetry")


def self_times(spans):
    """Self time (s) of each span in `spans` (dicts with ts/dur in us, all on
    one track), keyed by index. Children are spans lying inside a parent;
    only the direct children's time is subtracted."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["ts"], -spans[i]["dur"]))
    self_us = {i: spans[i]["dur"] for i in order}
    stack = []
    for i in order:
        start = spans[i]["ts"]
        while stack and spans[stack[-1]]["ts"] + spans[stack[-1]]["dur"] \
                <= start:
            stack.pop()
        if stack:
            self_us[stack[-1]] -= spans[i]["dur"]
        stack.append(i)
    return {i: us / 1e6 for i, us in self_us.items()}


def harvest(trace_path, metrics_path, channels_total):
    with open(trace_path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    process_names = {e["pid"]: e["args"]["name"] for e in events
                     if e.get("ph") == "M" and e.get("name") == "process_name"}
    tracks = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            tracks[(e["pid"], e.get("tid", 0))].append(e)
    pipeline = next(e for spans in tracks.values() for e in spans
                    if e["name"] == "pipeline")
    controller = (pipeline["pid"], pipeline.get("tid", 0))
    workers = [pid for pid, name in process_names.items()
               if name.startswith("pima_devd")]

    out = {}
    main = tracks[controller]
    main_self = self_times(main)
    stage_wall = 0.0
    for stage in STAGES:
        idx = [i for i, e in enumerate(main) if e["name"] == "stage:" + stage]
        out[f"core.pipeline.stage_s.{stage}"] = \
            sum(main[i]["dur"] for i in idx) / 1e6
        out[f"core.pipeline.stage_self_s.{stage}"] = \
            sum(main_self[i] for i in idx)
        stage_wall += out[f"core.pipeline.stage_s.{stage}"]

    def spans(pids, match):
        return [e for (pid, _), es in tracks.items() if pid in pids
                for e in es if match(e["name"])]

    def seconds(es):
        return sum(e["dur"] for e in es) / 1e6

    busy = seconds(spans({pid for pid, _ in tracks}, "task".__eq__))
    out["runtime.engine.busy_s"] = busy
    out["runtime.engine.idle_s"] = max(0.0, channels_total * stage_wall - busy)

    ctrl, devd = {controller[0]}, set(workers)
    # init carries no span: every worker incarnation runs exactly one.
    out["runtime.procpool.rpc_count.init"] = len(workers)
    for verb in RPC_VERBS:
        rpcs = spans(ctrl, f"rpc:{verb}".__eq__)
        out[f"runtime.procpool.rpc_count.{verb}"] = len(rpcs)
        out[f"runtime.procpool.rpc_s.{verb}"] = seconds(rpcs)
        out[f"runtime.procpool.worker_s.{verb}"] = \
            seconds(spans(devd, f"devd:{verb}".__eq__))
    # Controller time inside rpcs not covered by worker-side execution:
    # serialisation, the socket round trip and waiting.
    out["runtime.procpool.rpc_self_s"] = max(
        0.0, seconds(spans(ctrl, lambda n: n.startswith("rpc:")))
        - seconds(spans(devd, lambda n: n.startswith("devd:"))))
    first_stage = min((e["ts"] for e in main if e["name"].startswith("stage:")),
                      default=pipeline["ts"])
    out["runtime.procpool.spawn_s"] = \
        (first_stage - pipeline["ts"]) / 1e6 if workers else 0.0

    with open(metrics_path, encoding="utf-8") as f:
        metrics = json.load(f)["metrics"]
    commands = defaultdict(float)
    for m in metrics:
        if m["name"] == "pima_dram_commands_total":
            commands[m["labels"]["kind"]] += m["value"]
    for kind in KINDS:
        out[f"dram.commands.{kind}"] = commands[kind]
    return out
