#!/usr/bin/env python3
"""The repository benchmark: three workloads, each loading a different layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds `cntpower` and the in-process
probe (perfbench/probe.ml) with dune, then drives the built binary through
child processes in a fresh working directory under `.perfbench/`, so the
checkout's own `_cache/` and `_runs/` are never touched.

Workloads (perfbench/README.md gives the reasons and the layer each loads):

  table1-640k   `cntpower table1` at 640 K patterns over des and C6288
  serve-mixed   `cntpower serve --workers 2`, a closed loop of 2 clients
  campaign-65k  `cntpower campaign` over six Table 1 circuits x 4 families x 2 seeds

With --trace 0 the run measures the end-to-end metrics with nothing traced.
With --trace 1 it runs the same workload untraced, then replays the same
operations in process through the layer functions with a span around each
call (probe replay), and reports the per-layer metrics. Every output the
program produces is checked; a mismatch makes the run exit 1.

Progress goes to stderr. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table1-640k", "serve-mixed", "campaign-65k")
PTL = os.path.join("data", "libraries", "ptl-ambipolar.genlibp")
TABLE1_REFERENCE = os.path.join(HERE, "table1_reference.txt")
SETUPS = 9  # set-ups per run; setup_s is their median
SETUPS_FIRST = 5  # set-ups before the timed phase; the rest come after it,
                  # so that the median samples the machine across the run
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
SERVE_MIN_REQUESTS = 120  # p90 then has at least 12 samples beyond it
SERVE_BLOCK = 20  # the generator's block: whole blocks have the same mix
SERVE_SINGLE = 20  # requests sent one at a time for serve_overhead_ms
SERVE_TIMEOUT_S = 120.0  # a request's client-side time limit
SERVE_MAX_RPS = 32  # the pool lasts --seconds up to this rate (4x the baseline)
CAMPAIGN_WORKERS = 2
# The paper's improvement vs CMOS, printed next to ours as information only.
PAPER_VS_CMOS = {"cntfet-generalized": ("57.1%", "19.5x"),
                 "cntfet-conventional": ("36.7%", "8.1x")}


class Failure(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def now():
    return time.perf_counter()


def median(xs):
    return statistics.median(xs)


def percentile(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def program_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("CNTPOWER_")}
    env.pop("OCAMLRUNPARAM", None)
    return env


# ---------------------------------------------------------------------------
# Building and running the program


def build(root):
    for need in ("dune-project", os.path.join("bin", "cntpower.ml"), "lib", PTL,
                 os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            raise Failure(f"not a cntpower checkout: {need} is missing")
    # Dune's shared cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    rc = subprocess.run(
        ["dune", "build", "--root", ".", "bin/cntpower.exe", "perfbench/probe.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode
    if rc != 0:
        raise Failure(f"dune build failed with exit code {rc}")
    bdir = os.path.join(root, "_build", "default")
    return (os.path.join(bdir, "bin", "cntpower.exe"),
            os.path.join(bdir, "perfbench", "probe.exe"))


class Proc:
    """A child process reaped with wait4, so its peak RSS (ru_maxrss, which
    covers the descendants it reaped, e.g. forked workers) is known."""

    def __init__(self, args, cwd, tag):
        self.out = os.path.join(cwd, tag + ".out")
        self.err = os.path.join(cwd, tag + ".err")
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            self.t0 = now()
            self.p = subprocess.Popen(args, cwd=cwd, env=program_env(),
                                      stdout=out, stderr=err)
        self.rc = None
        self.wall = None
        self.maxrss_mb = None

    def wait(self):
        if self.rc is None:
            _, status, ru = os.wait4(self.p.pid, 0)
            self.wall = now() - self.t0
            self.rc = os.waitstatus_to_exitcode(status)
            self.p.returncode = self.rc
            self.maxrss_mb = ru.ru_maxrss / 1024.0
        return self

    def stdout(self):
        with open(self.out) as f:
            return f.read()

    def stderr(self):
        with open(self.err) as f:
            return f.read()


def run_program(args, cwd, tag):
    return Proc(args, cwd, tag).wait()


def probe(probe_exe, args, cwd, tag):
    p = run_program([probe_exe] + args, cwd, tag)
    if p.rc != 0:
        raise Failure(f"probe {args[0]} failed ({p.rc}): {p.stderr().strip()}")
    return json.loads(p.stdout().strip().splitlines()[-1])


def probe_parallel(probe_exe, argsets, cwd, tag):
    """Run at most two probe processes at a time (sized for two cores)."""
    procs = [Proc([probe_exe] + a, cwd, f"{tag}{i}") for i, a in enumerate(argsets)]
    out = []
    for p in procs:
        p.wait()
        if p.rc != 0:
            raise Failure(f"probe failed ({p.rc}): {p.stderr().strip()}")
        out.append(json.loads(p.stdout().strip().splitlines()[-1]))
    return out


def reset_state(work):
    for d in ("_cache", "_runs"):
        shutil.rmtree(os.path.join(work, d), ignore_errors=True)


# ---------------------------------------------------------------------------
# Serve protocol: a 4-byte big-endian length, then that many bytes of JSON.


def serve_call(sock_path, request, timeout=SERVE_TIMEOUT_S):
    data = json.dumps(request).encode()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        s.sendall(struct.pack(">I", len(data)) + data)
        head = recv_exact(s, 4)
        return json.loads(recv_exact(s, struct.unpack(">I", head)[0]))


def recv_exact(s, n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        buf += chunk
    return buf


def timed_call(sock_path, request):
    t0 = now()
    resp = serve_call(sock_path, request)
    return now() - t0, resp


# ---------------------------------------------------------------------------
# Workloads. Each returns a dict with the end-to-end figures, the outputs
# checked, and (traced) the inputs of the replay.


def table1_cells(text):
    """{(circuit, family tag): [6 printed cells]} from a printed Table 1."""
    lines = text.splitlines()
    header = next(l for l in lines if l.lstrip().startswith("Circuit"))
    cols = [c.strip() for c in header.split("|")]
    cells = {}
    for line in lines:
        parts = [c.strip() for c in line.split("|")]
        if len(parts) != len(cols) or parts[0] in ("Circuit", "Average", ""):
            continue
        for i, col in enumerate(cols):
            if col.endswith(":No."):
                tag = col[:-4]
                cells[(parts[0], tag)] = parts[i:i + 6]
    return cells


def improvement(text, family):
    for line in text.splitlines():
        if line.startswith(f"Improvement of {family} vs CMOS:"):
            words = line.split(":", 1)[1].split()
            return dict(zip(words[0::2], words[1::2]))
    return {}


def setup_dir(ctx):
    """An empty directory of its own for each set-up, so that set-ups after
    the timed phase leave the run's _runs/ alone."""
    d = os.path.join(ctx["work"], "setup")
    os.makedirs(d, exist_ok=True)
    reset_state(d)
    return d


def setup_check(ctx, libfile):
    """One set-up: launch on an empty _cache/ and warm one small operation
    per family (`cntpower check` maps the warm-up netlist with every
    family). Returns its wall time."""
    args = [ctx["cntpower"], "check", os.path.join(ctx["work"], ctx["plan"]["warmup"]),
            "-p", "4096"]
    if libfile:
        args += ["--library-file", libfile]
    p = run_program(args, setup_dir(ctx), "setup")
    if p.rc != 0:
        raise Failure(f"set-up failed ({p.rc}): {p.stderr().strip()}")
    return p.wall


def run_table1(ctx):
    plan, work = ctx["plan"], ctx["work"]
    args = [ctx["cntpower"], "table1"]
    for c in plan["circuits"]:
        args += ["--only", c]
    p = run_program(args, work, "table1")
    text = p.stdout()
    with open(TABLE1_REFERENCE) as f:
        reference = f.read()
    ref_cells = table1_cells(reference)
    got = table1_cells(text) if p.rc == 0 else {}
    failed = sum(1 for k, v in ref_cells.items() if got.get(k) != v)
    if p.rc == 0 and text != reference and failed == 0:
        failed = len(ref_cells)  # same cells, different table text
    info = []
    for family, (pt, edp) in PAPER_VS_CMOS.items():
        ours = improvement(text, family)
        info.append(f"{family} vs CMOS: P_T saving {ours.get('pt')} (paper {pt}), "
                    f"EDP {ours.get('edp')} (paper {edp})")
    wall = p.wall
    return {
        "attempted": len(ref_cells),
        "failed": failed if p.rc == 0 else len(ref_cells),
        "peak_rss_mb": p.maxrss_mb,
        "wall_s": wall,
        "throughput_per_s": len(ref_cells) / wall,
        "latencies_s": [wall],
        "aliases": {"table1.wall_s": (wall, "s")},
        # Information only: the suite circuits are generated substitutes.
        "info": info,
        "outputs": {f"{c}/{t}": v for (c, t), v in got.items()},
        "ops": plan["circuits"],
    }


def start_daemon(ctx, cwd):
    args = [ctx["cntpower"], "serve", "--socket", "bench.sock",
            "--workers", str(SERVE_WORKERS), "--library-file", ctx["ptl"],
            "--run", "bench", "--log-level", "quiet"]
    d = Proc(args, cwd, "serve")
    ctx["daemon"] = d
    # Relative to the run directory, which is the current directory: an
    # AF_UNIX path is limited to about 100 bytes.
    sock = os.path.relpath(os.path.join(cwd, "bench.sock"))
    deadline = now() + 60.0
    while True:
        if d.p.poll() is not None:
            raise Failure(f"daemon exited early: {d.stderr().strip()}")
        try:
            if serve_call(sock, {"verb": "health"}, timeout=5.0).get("status") == "ok":
                return d, sock
        except OSError:
            pass
        if now() > deadline:
            raise Failure("daemon never became ready")
        time.sleep(0.02)


def stop_daemon(ctx):
    d = ctx.pop("daemon", None)
    if d is None:
        return None
    if d.rc is None:
        d.p.send_signal(signal.SIGTERM)
        d.wait()
    return d


def stop_daemon_cleanly(ctx):
    d = stop_daemon(ctx)
    if d.rc != 0:
        raise Failure(f"daemon did not drain cleanly ({d.rc}): {d.stderr().strip()}")
    return d


def serve_pool_size(seconds):
    """Requests in the serve pool: whole blocks, enough for --seconds at
    SERVE_MAX_RPS and never fewer than SERVE_MIN_REQUESTS."""
    n = max(SERVE_MIN_REQUESTS, math.ceil(seconds * SERVE_MAX_RPS))
    return SERVE_BLOCK * math.ceil(n / SERVE_BLOCK)


def estimate_request(plan, blif, library):
    return {"verb": "estimate", "blif": blif, "library": library,
            "patterns": plan["patterns"], "domains": 1}


def warm_up(ctx, sock):
    """One small estimate per family."""
    plan = ctx["plan"]
    with open(os.path.join(ctx["work"], plan["warmup"])) as f:
        warm = f.read()
    for lib in plan["libraries"]:
        resp = serve_call(sock, estimate_request(plan, warm, lib))
        if resp.get("status") != "ok":
            raise Failure(f"warm-up request failed: {resp}")


def setup_serve(ctx):
    """One set-up: daemon launch on an empty _cache/ to the end of the
    warm-up. Returns its wall time."""
    t0 = now()
    _, sock = start_daemon(ctx, setup_dir(ctx))
    warm_up(ctx, sock)
    dt = now() - t0
    stop_daemon_cleanly(ctx)
    return dt


def run_serve(ctx):
    plan, work = ctx["plan"], ctx["work"]
    _, sock = start_daemon(ctx, work)
    warm_up(ctx, sock)

    pool = plan["pool"]
    texts = []
    for entry in pool:
        with open(os.path.join(work, entry["file"])) as f:
            texts.append(f.read())
    draws = plan["draws"]

    def request_of(i):
        p, l = draws[i]
        return (f"{pool[p]['name']}/{plan['libraries'][l]}",
                estimate_request(plan, texts[p], plan["libraries"][l]))

    lock = threading.Lock()
    state = {"next": 0, "exhausted": False}
    done = []  # (draw index, key, latency s, response)
    t_start = now()
    stop_at = t_start + ctx["seconds"]
    hard_stop = t_start + 150.0

    def client():
        while True:
            with lock:
                i = state["next"]
                t = now()
                if i >= len(draws) and t < stop_at:
                    state["exhausted"] = True
                if i >= len(draws) or t > hard_stop or (
                        t >= stop_at and i >= SERVE_MIN_REQUESTS and i % SERVE_BLOCK == 0):
                    return
                state["next"] = i + 1
            key, req = request_of(i)
            try:
                lat, resp = timed_call(sock, req)
            except OSError as e:
                lat, resp = SERVE_TIMEOUT_S, {"status": "transport", "error": str(e)}
            with lock:
                done.append((i, key, lat, resp))

    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    t_end = now()
    done.sort()
    if state["exhausted"]:
        # Still whole blocks, so the same mix; only the run is shorter.
        log(f"  the pool of {len(draws)} requests ran out before --seconds; "
            "raise SERVE_MAX_RPS")

    extra = {}
    single = []
    if ctx["trace"]:
        for i in range(SERVE_SINGLE):
            key, req = request_of(i)
            lat, resp = timed_call(sock, req)
            single.append((i, key, lat, resp))
        extra["runtime.serve_health_ms"] = 1e3 * median(
            [timed_call(sock, {"verb": "health"})[0] for _ in range(5)])
        extra["runtime.metrics_verb_ms"] = 1e3 * median(
            [timed_call(sock, {"verb": "metrics"})[0] for _ in range(5)])
        counters = serve_call(sock, {"verb": "metrics"}).get("metrics", {}).get("counters", {})
        if "serve.shed" not in counters:
            raise Failure("the metrics verb reported no serve.shed counter")
        extra["runtime.shed"] = counters["serve.shed"]
    d = stop_daemon_cleanly(ctx)

    outputs = {}
    for _, key, _, resp in done + single:
        if resp.get("status") == "ok":
            r = resp["result"]
            outputs.setdefault(key, []).append(
                {"gates": r["gates"], "delay_s": r["delay_s"], "total_W": r["total_W"]})
    failed = sum(1 for _, _, _, resp in done + single if resp.get("status") != "ok")
    # A failed or refused request misses any latency limit: it counts as
    # the client's time limit, a finite figure the JSON line can carry.
    lat = [t if resp.get("status") == "ok" else SERVE_TIMEOUT_S for _, _, t, resp in done]
    wall = t_end - t_start
    completed = sum(1 for _, _, _, resp in done if resp.get("status") == "ok")
    if ctx["trace"]:
        run_dir = os.path.join(work, "_runs", "bench")
        extra["runtime.registry_span_nodes"] = span_nodes(os.path.join(run_dir, "profile.json"))
        extra["runtime.journal_bytes_per_op"] = journal_bytes(run_dir) / (len(done) + len(single))
        extra["single_latencies_s"] = {key: lat for _, key, lat, _ in single}
    return {
        "attempted": len(done) + len(single),
        "failed": failed,
        "peak_rss_mb": d.maxrss_mb,
        "wall_s": wall,
        "throughput_per_s": completed / wall,
        "latencies_s": lat,
        "aliases": {"serve.rps": (completed / wall, "req/s"),
                    "serve.latency_p50_ms": (1e3 * percentile(lat, 0.5), "ms"),
                    "serve.latency_p90_ms": (1e3 * percentile(lat, 0.9), "ms"),
                    "serve.requests": (len(done), "count"),
                    "serve.pool_exhausted": (int(state["exhausted"]), "count")},
        "outputs": outputs,
        "ops": list(dict.fromkeys(key for _, key, _, _ in done + single)),
        "extra": extra,
    }


def span_nodes(profile_path):
    with open(profile_path) as f:
        prof = json.load(f)

    def count(nodes):
        return sum(1 + count(n.get("children", [])) for n in nodes)
    return count(prof.get("spans", []))


def journal_bytes(run_dir):
    return sum(os.path.getsize(os.path.join(run_dir, f))
               for f in os.listdir(run_dir) if f.startswith("events.jsonl"))


def campaign_shards(plan):
    """Shard ids in the coordinator's enumeration order (circuit-major)."""
    seeds = [plan["seed"] + i for i in range(plan["seeds"])]
    return [f"{c}/{l}/{s}" for c in plan["circuits"] for l in plan["libraries"]
            for s in seeds]


def run_campaign(ctx):
    plan, work = ctx["plan"], ctx["work"]
    args = [ctx["cntpower"], "campaign", "--run", "bench", "--library-file", ctx["ptl"],
            "--seeds", str(plan["seeds"]), "--seed", str(plan["seed"]),
            "-p", str(plan["patterns"]), "--workers", str(CAMPAIGN_WORKERS),
            "--domains", "1", "--log-level", "quiet"]
    for c in plan["circuits"]:
        args += ["--only", c]
    p = run_program(args, work, "campaign")
    shards = campaign_shards(plan)
    run_dir = os.path.join(work, "_runs", "bench")
    done = {}
    if p.rc == 0:
        with open(os.path.join(run_dir, "queue.jsonl")) as f:
            for line in f:
                rec = json.loads(line)
                if rec["state"] == "done":
                    done.setdefault(rec["shard"], []).append(rec["fields"])
    outputs = {s: v[0] for s, v in done.items() if len(v) == 1}
    failed = sum(1 for s in shards if s not in outputs)
    failed += sum(1 for s in done if s not in shards)
    walls = [p.wall]
    if p.rc == 0:
        with open(os.path.join(run_dir, "manifest.json")) as f:
            walls = [e["wall_time"] for e in json.load(f)["entries"]]
    extra = {}
    if ctx["trace"] and p.rc == 0:
        extra["runtime.registry_span_nodes"] = span_nodes(os.path.join(run_dir, "profile.json"))
        extra["runtime.journal_bytes_per_op"] = journal_bytes(run_dir) / len(shards)
        extra["runtime.workqueue_bytes_per_shard"] = (
            os.path.getsize(os.path.join(run_dir, "queue.jsonl")) / len(shards))
        extra["runtime.campaign_busy_ratio"] = sum(walls) / (p.wall * CAMPAIGN_WORKERS)
    completed = len(shards) - failed
    return {
        "attempted": len(shards),
        "failed": failed if p.rc == 0 else len(shards),
        "peak_rss_mb": p.maxrss_mb,
        "wall_s": p.wall,
        "throughput_per_s": completed / p.wall,
        # The campaign's latency is its wall time, like table1's. Shard wall
        # times cluster by circuit and their median falls between two
        # clusters, so it moves with the seed's order far more than the
        # campaign does; they are printed, not bounded.
        "latencies_s": [p.wall],
        "aliases": {"campaign.shards_per_s": (completed / p.wall, "shards/s"),
                    "campaign.wall_s": (p.wall, "s"),
                    "campaign.shard_p50_ms": (1e3 * percentile(walls, 0.5), "ms"),
                    "campaign.shard_p90_ms": (1e3 * percentile(walls, 0.9), "ms")},
        "outputs": outputs,
        "ops": shards,
        "extra": extra,
    }


# ---------------------------------------------------------------------------
# Output checks against in-process results


def serve_mismatches(outputs, ref):
    bad = 0
    for key, responses in outputs.items():
        r = ref.get(key)
        for got in responses:
            if r is None or any(got[k] != r[k] for k in ("gates", "delay_s", "total_W")):
                bad += 1
    return bad


def campaign_scalars(r):
    """The scalars a campaign shard records, as Campaign.shard_scalars
    computes them from a report."""
    return {"gates": float(r["gates"]), "area": r["area"],
            "delay_ps": r["delay_s"] * 1e12, "dynamic_uW": r["dynamic_W"] * 1e6,
            "static_uW": r["static_W"] * 1e6, "total_uW": r["total_W"] * 1e6,
            "edp_1e-24Js": r["edp_Js"] * 1e24}


def campaign_mismatches(outputs, ref):
    bad = 0
    for shard, fields in outputs.items():
        r = ref.get(shard)
        want = campaign_scalars(r) if r else None
        if want is None or any(float(fields.get("s:" + k, "nan")) != v
                               for k, v in want.items()):
            bad += 1
    return bad


def table1_mismatches(outputs, ref):
    """Replayed reports formatted the way Table 1 prints them."""
    tags = {"cntfet-generalized": "GEN", "cntfet-conventional": "CNV", "cmos": "CMOS"}
    bad = 0
    for key, r in ref.items():
        circuit, lib = key.split("/")
        cells = [str(r["gates"]), f"{r['delay_s'] * 1e12:.1f}",
                 f"{r['dynamic_W'] * 1e6:.2f}", f"{r['static_W'] * 1e6:.2f}",
                 f"{r['total_W'] * 1e6:.2f}", f"{r['edp_Js'] * 1e24:.2f}"]
        if outputs.get(f"{circuit}/{tags[lib]}") != cells:
            bad += 1
    return bad


MISMATCH = {"table1-640k": table1_mismatches, "serve-mixed": serve_mismatches,
            "campaign-65k": campaign_mismatches}


def reference_results(ctx, res):
    """In-process results for the checks; two probe processes at most."""
    # Ops sharing a netlist or circuit go to the same process.
    by_source = {}
    for k in res["ops"]:
        by_source.setdefault(k.split("/")[0], []).append(k)
    groups = [[], []]
    for i, name in enumerate(sorted(by_source)):
        groups[i % 2] += by_source[name]
    argsets = []
    for i, g in enumerate(g for g in groups if g):
        path = os.path.join(ctx["work"], f"ref-ops{i}.json")
        with open(path, "w") as f:
            json.dump(g, f)
        argsets.append(["ref", "--plan", ctx["plan_path"], "--ops", path,
                        "--library-file", ctx["ptl"]])
    ref = {}
    for out in probe_parallel(ctx["probe"], argsets, ctx["work"], "ref"):
        ref.update(out["results"])
    return ref


# ---------------------------------------------------------------------------


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def end_to_end(res, setups):
    lat = res["latencies_s"]
    return {
        "setup_s": median(setups),
        "throughput_per_s": res["throughput_per_s"],
        "latency_p50_ms": 1e3 * percentile(lat, 0.5),
        "latency_p90_ms": 1e3 * percentile(lat, 0.9),
    }


DES_METRICS = ("techmap.estimate_heap_mb", "techmap.sim_parallel_speedup")

PER_LAYER_DEFAULTS = {
    # Components a workload does not run read 0 there. The des estimator
    # probe belongs to table1-640k.
    "techmap.estimate_heap_mb": 0.0, "techmap.sim_parallel_speedup": 0.0,
    "runtime.serve_overhead_ms": 0.0, "runtime.serve_health_ms": 0.0,
    "runtime.metrics_verb_ms": 0.0, "runtime.registry_span_nodes": 0,
    "runtime.journal_bytes_per_op": 0.0, "runtime.workqueue_bytes_per_shard": 0.0,
    "runtime.campaign_busy_ratio": 0.0, "runtime.shed": 0,
}


def traced(ctx, res):
    """Replay the run's operations in process with spans; returns the
    per-layer metrics and the number of replayed outputs that differ from
    the end-to-end run's."""
    work = ctx["work"]
    ops_path = os.path.join(work, "replay-ops.json")
    with open(ops_path, "w") as f:
        json.dump(res["ops"], f)
    args = ["replay", "--plan", ctx["plan_path"], "--ops", ops_path,
            "--spans", os.path.join(work, "spans.jsonl")]
    if ctx["workload"] != "table1-640k":
        args += ["--library-file", ctx["ptl"]]
    rep = probe(ctx["probe"], args, work, "replay")
    metrics = dict(PER_LAYER_DEFAULTS)
    metrics.update(rep["metrics"])
    if ctx["workload"] == "table1-640k":
        des = probe(ctx["probe"], ["des"], work, "des")
        metrics.update({k: des[k] for k in DES_METRICS})
    extra = dict(res.get("extra", {}))
    single = extra.pop("single_latencies_s", None)
    if single:
        # The in-process side runs the same requests through
        # Estimate.run_blif, one at a time in one fresh process.
        path = os.path.join(work, "single-ops.json")
        with open(path, "w") as f:
            json.dump(list(single), f)
        inproc = probe(ctx["probe"], ["ref", "--plan", ctx["plan_path"], "--ops", path,
                                      "--library-file", ctx["ptl"]], work, "single-ref")
        metrics["runtime.serve_overhead_ms"] = 1e3 * (
            median(single.values()) - median(inproc["op_wall_s"].values()))
    metrics.update(extra)
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    metrics["trace.overhead_ratio"] = rep["wall_s"] / res["wall_s"]
    log("  layer self time (traced replay):")
    for row in sorted(rep["layers"], key=lambda r: -r["self_s"]):
        log(f"    {row['name']:<24} calls {row['calls']:>5}  total {row['total_s']:9.3f} s"
            f"  self {row['self_s']:9.3f} s")
    log(f"  spans: {os.path.join(work, 'spans.jsonl')}")
    return metrics, MISMATCH[ctx["workload"]](res["outputs"], rep["results"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if a.workload == "all":
        # One workload after the other, each in its own run; the exit code
        # is the worst of theirs.
        rcs = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                               "--seed", str(a.seed), "--seconds", str(a.seconds),
                               "--trace", str(a.trace)]).returncode for w in WORKLOADS]
        return max(rcs)
    root = os.getcwd()
    spec = load_spec(root)
    cntpower, probe_exe = build(root)
    work = os.path.join(root, ".perfbench", f"{a.workload}-s{a.seed}-t{a.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)
    ctx = {"workload": a.workload, "seconds": a.seconds, "trace": bool(a.trace),
           "cntpower": cntpower, "probe": probe_exe, "work": work,
           "ptl": os.path.join(root, PTL)}
    try:
        gen = ["gen", "--workload", a.workload, "--seed", str(a.seed), "--out", work,
               "--library-file", ctx["ptl"], "--requests", str(serve_pool_size(a.seconds))]
        ctx["plan_path"] = probe(probe_exe, gen, work, "gen")["plan"]
        with open(ctx["plan_path"]) as f:
            ctx["plan"] = json.load(f)
        log(f"{a.workload}: seed {a.seed}, tracing {'on' if a.trace else 'off'}")
        # Set-up is measured untraced only; the traced run has no setup_s.
        setup = {"table1-640k": lambda c: setup_check(c, None), "serve-mixed": setup_serve,
                 "campaign-65k": lambda c: setup_check(c, c["ptl"])}[a.workload]
        setups = [] if a.trace else [setup(ctx) for _ in range(SETUPS_FIRST)]
        res = {"table1-640k": run_table1, "serve-mixed": run_serve,
               "campaign-65k": run_campaign}[a.workload](ctx)
        if not a.trace:
            setups += [setup(ctx) for _ in range(SETUPS - SETUPS_FIRST)]
        failed = res["failed"]
        if a.workload != "table1-640k":
            failed += MISMATCH[a.workload](res["outputs"], reference_results(ctx, res))
        if a.trace:
            metrics, replay_bad = traced(ctx, res)
            failed += replay_bad
        else:
            metrics = end_to_end(res, setups)
    finally:
        stop_daemon(ctx)
    attempted = res["attempted"]
    kind = "per_layer" if a.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        raise Failure("metric names differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(units))}")
    print(f"workload {a.workload}  seed {a.seed}  trace {a.trace}")
    for name, (value, unit) in res["aliases"].items():
        print(f"  {name:<32} {value:14.6g} {unit}")
    for line in res.get("info", []):
        print(f"  {line}")
    if "peak_rss_mb" not in units:
        print(f"  {'peak_rss_mb':<32} {res['peak_rss_mb']:14.6g} MB")
    print(f"  {'failed_ratio':<32} {failed / attempted:14.6g}   ({failed} failed of {attempted})")
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:14.6g} {unit}")
    if not a.trace:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }, allow_nan=False))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as e:
        log(f"perfbench: {e}")
        sys.exit(2)
