"""Closed-loop load against a `pima_asm serve` daemon.

Speaks the daemon's NDJSON protocol over its unix socket (one request per
connection, as `pima_asm submit/status/result` do). Each client submits a
job, follows its status until it is terminal, fetches the result with the
contigs, and only then submits its next job.
"""

import json
import os
import socket
import subprocess
import threading
import time

TERMINAL = ("done", "failed", "cancelled")


def _connect(sock_path, timeout):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    try:
        s.connect(sock_path)
    except OSError:
        s.close()
        raise
    return s


def request(sock_path, obj, timeout=60.0):
    with _connect(sock_path, timeout) as s:
        s.sendall((json.dumps(obj) + "\n").encode())
        with s.makefile("rb") as f:
            line = f.readline()
    if not line:
        raise OSError("daemon closed the connection without a response")
    return json.loads(line)


def follow(sock_path, job, timeout=120.0):
    """(monotonic time, status) for every line of `status --follow`."""
    lines = []
    with _connect(sock_path, timeout) as s:
        s.sendall((json.dumps({"verb": "status", "job": job,
                               "follow": True}) + "\n").encode())
        with s.makefile("rb") as f:
            for line in f:
                lines.append((time.monotonic(), json.loads(line)))
    return lines


class Daemon:
    """One `pima_asm serve` process with its own state directory."""

    def __init__(self, pima_asm, state_dir, max_jobs):
        os.makedirs(state_dir, exist_ok=True)
        # Unix socket paths are short-limited: bind relative to the daemon's
        # working directory and reach it by a path relative to ours.
        self.sock = os.path.relpath(os.path.join(state_dir, "pima.sock"))
        if len(self.sock) > 100:
            raise RuntimeError(f"socket path too long: {self.sock}")
        self.log = open(os.path.join(state_dir, "daemon.log"), "wb")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [pima_asm, "serve", "--state-dir", ".", "--socket", "pima.sock",
             "--max-jobs", str(max_jobs)],
            cwd=state_dir, stdout=self.log, stderr=subprocess.STDOUT)
        deadline = t0 + 30.0
        while True:
            try:
                if request(self.sock, {"verb": "ping"}, 5.0).get("ok"):
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon did not answer ping")
            # A short poll: the daemon answers within about 2 ms, and a
            # coarser step would quantise setup_s.
            time.sleep(0.0001)
        self.setup_s = time.monotonic() - t0

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            try:
                request(self.sock, {"verb": "shutdown"}, 10.0)
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def run_job(sock_path, spec):
    """One closed-loop iteration; returns its timings and fetched result."""
    t_submit = time.monotonic()
    sub = request(sock_path, dict(spec, verb="submit"))
    t_accepted = time.monotonic()
    if not sub.get("ok"):
        return {"ok": False, "error": sub.get("message", "submit refused")}
    job = sub["job"]
    t_running = t_done = None
    state = sub.get("state")
    for t, status in follow(sock_path, job):
        state = status.get("state", state)
        if t_running is None and state not in ("queued", "admitted"):
            t_running = t
        if state in TERMINAL:
            t_done = t
    if state != "done":
        return {"ok": False, "error": f"job {job} ended {state}"}
    res = request(sock_path, {"verb": "result", "job": job, "fetch": True})
    t_result = time.monotonic()
    if not res.get("ok"):
        return {"ok": False, "error": res.get("message", "result failed")}
    return {
        "ok": True,
        "job": job,
        "turnaround_s": t_result - t_submit,
        "submit_ms": (t_accepted - t_submit) * 1e3,
        "queue_ms": ((t_running or t_done) - t_accepted) * 1e3,
        "run_s": t_done - (t_running or t_done),
        "result_ms": (t_result - t_done) * 1e3,
        "result": res,
    }


def closed_loop(sock_path, specs, clients, seconds, min_jobs):
    """`clients` threads, each running jobs back to back until `seconds`
    have passed and `min_jobs` were started; job i uses
    specs[i % len(specs)]. Returns (jobs, wall s), jobs in submission order
    as (spec index, outcome)."""
    lock = threading.Lock()
    jobs = []
    start = time.monotonic()

    def client():
        while True:
            with lock:
                if time.monotonic() - start >= seconds and \
                        len(jobs) >= min_jobs:
                    return
                index = len(jobs)
                jobs.append(None)
            spec_index = index % len(specs)
            try:
                outcome = run_job(sock_path, specs[spec_index])
            except (OSError, ValueError) as e:
                outcome = {"ok": False, "error": str(e)}
            jobs[index] = (spec_index, outcome)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return jobs, time.monotonic() - start


def job_sim_stats(metrics_body):
    """Per-job simulated time (ns) and energy (pJ), summed over stages, from
    the daemon's `metrics` verb in JSON form."""
    stats = {}
    for m in json.loads(metrics_body)["metrics"]:
        labels = m.get("labels", {})
        if "job" not in labels:
            continue
        key = {"pima_stage_time_ns_total": "time_ns",
               "pima_stage_energy_pj_total": "energy_pj"}.get(m["name"])
        if key:
            entry = stats.setdefault(labels["job"],
                                     {"time_ns": 0.0, "energy_pj": 0.0})
            entry[key] += m["value"]
    return stats
