"""Running a workload: set-up, timed passes, digest checks and metrics.

A run is one process and one thread.  Each workload is a closed loop
with a single caller: the next job starts only when the previous one
has returned.  A pass runs the whole job list once; passes repeat until
the run's time is used up.  Every result is digested outside the timed
region and compared with the digest pinned for its job.
"""

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter, perf_counter_ns

from . import program
from .instances import Picker
from .probe import Probe
from .trace import COUNTED, LAYERS, Tracer
from .workloads import WORKLOADS, CliContext

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_REPEATS = 9        # set-up is short; its median needs several samples
# work between probe slices: a set-up takes 50-300 ms and needs denser
# slices than a pass of seconds; each slice takes about 7.5 ms
SETUP_PERIOD_S = 0.04
PASS_PERIOD_S = 0.1
MIN_PASSES = 2
COLD_START_SPAWNS = 15

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-size traced times: function -> size labels, smallest first; the
# growth metric is the largest size's time over the next smaller one's
SWEEPS = {"enumerate_actions": ("n4", "n5", "n6"),
          "verify_model": ("n3", "n4"),
          "count_homs": ("n2", "n3", "n4", "n5"),
          "compose": ("k4", "k5", "k6")}
GROWTH = {"enumerate_actions": "diagram.enumerate_actions.growth",
          "verify_model": "model.verify_model.growth",
          "count_homs": "cgx.count_homs.growth",
          "compose": "corr.compose.growth"}


def per_layer_units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    units.update({
        "diagram.actions_found": "count",
        "diagram.actions_isomorphic.hit_ratio": "ratio",
        "diagram.equivariant_maps.yield_ratio": "ratio",
        "cgx.homs_counted": "count",
        "corr.compose.out_elems": "count",
        "corr.compose.us_per_elem": "us",
        "mn.omega_depth.configs": "count",
        "cli.out_bytes": "bytes",
    })
    for fn, sizes in SWEEPS.items():
        for size in sizes:
            units[f"sweep.{fn}.{size}_s"] = "s"
        units[GROWTH[fn]] = "ratio"
    units.update({
        "trace.overhead_ratio": "ratio", "trace.wall_s": "s",
        "trace.setup_s": "s", "bench.fail_ratio": "ratio",
        "cli.req_p50_ms": "ms", "cli.req_p95_ms": "ms",
        "cli.cold_start_ms": "ms"})
    return units


def load_expected(workload):
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)[workload]


class Run:
    """Mutable state of one benchmark run."""

    def __init__(self, root, workload, seed, select=None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.select = select     # job-key predicate; tests run a few jobs
        self.attempted = 0
        self.failures = []
        self.ctx = CliContext(root) if workload == "cli" else None
        self.P = None
        self.jobs = None

    def setup(self, picker=None):
        """Import the program and build the workload's inputs."""
        self.P = program.load(self.root)
        self.build(picker)

    def build(self, picker=None):
        """Build the workload's inputs and its job list."""
        self.jobs = WORKLOADS[self.workload](
            self.P, picker or Picker(self.seed), self.ctx)
        if self.select is not None:
            self.jobs = [j for j in self.jobs if self.select(j.key)]

    def run_pass(self, expected, tracer=None, probe=None):
        """One pass over the job list.

        Returns the per-job ns, the CLI output bytes and, with a running
        probe, the pass's ns at nominal host speed.  Probe slices taken
        inside a job are not part of its time.
        """
        times, out_bytes = [], 0
        since = busy = 0
        if probe is not None:
            since = len(probe.samples)
        for job in self.jobs:
            if tracer is not None:
                tracer.job = job.key
            if probe is not None:
                busy = probe.busy_ns
            t0 = perf_counter_ns()
            try:
                result = job.run()
                error = None
            except Exception as exc:   # counted as a failed job
                result, error = None, exc
            times.append(perf_counter_ns() - t0)
            if probe is not None:
                times[-1] -= probe.busy_ns - busy
            self.attempted += 1
            if error is not None:
                self.failures.append((job.key, f"raised {error!r}"))
                continue
            if tracer is not None:
                tracer.paused = True
            try:
                got = job.digest(result)
            finally:
                if tracer is not None:
                    tracer.paused = False
            if got != expected.get(job.key):
                self.failures.append(
                    (job.key, f"digest {got} != {expected.get(job.key)}"))
            if job.layer == "cli":
                out_bytes += len(result[1])
        nominal = None if probe is None else \
            probe.nominal(sum(times), since)
        return times, out_bytes, nominal

    def passes(self, expected, seconds, minimum, tracer=None, probe=None):
        """Repeat passes while another fits in ``seconds``."""
        out = []
        start = perf_counter()
        while True:
            gc.collect()       # each pass starts from a collected heap
            out.append(self.run_pass(expected, tracer, probe))
            elapsed = perf_counter() - start
            if len(out) >= minimum and \
                    elapsed + elapsed / len(out) > seconds:
                return out

    def cold_start(self, expected):
        """Spawn the CLI as a fresh process, one at a time."""
        job = next(j for j in self.jobs if j.key.startswith("validate/"))
        argv = job.key.split("/", 1)[1].replace(
            "DOCS", os.path.relpath(self.ctx.docs)).split(" ")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [self.P.src] + [p for p in env.get("PYTHONPATH", "").split(
                os.pathsep) if p])
        times = []
        for _ in range(COLD_START_SPAWNS):
            t0 = perf_counter_ns()
            proc = subprocess.run([sys.executable, "-m", "gpdcorr.cli"] + argv,
                                  capture_output=True, env=env, timeout=60,
                                  check=False)
            times.append(perf_counter_ns() - t0)
            self.attempted += 1
            got = job.digest((proc.returncode, proc.stdout, proc.stderr))
            if got != expected.get(job.key):
                self.failures.append((job.key, f"spawned digest {got}"))
        return times

    def close(self):
        if self.ctx is not None:
            self.ctx.close()


def _median_s(samples_ns):
    return statistics.median(samples_ns) / 1e9


def _pairs(raw_ns, nominal_ns):
    return " ".join(f"{r / 1e9:.4f}/{r / n:.3f}"
                    for r, n in zip(raw_ns, nominal_ns))


def untraced(run, seconds):
    expected = load_expected(run.workload)
    probe = Probe()
    raw_setups, setups = [], []
    probe.start(SETUP_PERIOD_S)
    try:
        for _ in range(SETUP_REPEATS):
            gc.collect()   # garbage of the previous set-up is not charged
            since, busy = len(probe.samples), probe.busy_ns
            t0 = perf_counter_ns()
            run.setup()
            raw_setups.append(perf_counter_ns() - t0 - (probe.busy_ns - busy))
            setups.append(probe.nominal(raw_setups[-1], since))
        setup_slices = len(probe.samples)
        probe.stop()
        probe.start(PASS_PERIOD_S)
        done = run.passes(expected, seconds, MIN_PASSES, probe=probe)
    finally:
        probe.stop()
    raw_walls = [sum(times) for times, _, _ in done]
    walls = [nominal for _, _, nominal in done]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {"wall_s": _median_s(walls), "setup_s": _median_s(setups),
              "peak_rss_mb": peak}
    notes = ["wall_s and setup_s: seconds at nominal host speed; raw time "
             "without probe slices, divided by the host's slowdown that "
             "the probe slices taken during it show",
             f"wall_s: median of {len(walls)} passes of {len(run.jobs)} "
             f"jobs ({len(probe.samples) - setup_slices} slices), raw "
             "s/slowdown: " + _pairs(raw_walls, walls),
             f"setup_s: median of {len(setups)} set-ups ({setup_slices} "
             "slices), raw s/slowdown: " + _pairs(raw_setups, setups),
             "peak_rss_mb: ru_maxrss of the process"]
    return {k: {"value": v, "unit": END_TO_END[k]}
            for k, v in values.items()}, notes


def _quantile(samples, q):
    """The q-quantile of the samples, by the inclusive method."""
    return statistics.quantiles(samples, n=100, method="inclusive")[
        round(q * 100) - 1]


def traced(run, seconds):
    start = perf_counter()
    expected = load_expected(run.workload)
    run.setup()
    base_times, _, _ = run.run_pass(expected)
    base_wall = sum(base_times)
    units = per_layer_units()
    values = dict.fromkeys(units, 0.0)
    notes = []
    if run.workload == "cli":
        ms = [t / 1e6 for t in base_times]
        values["cli.req_p50_ms"] = statistics.median(ms)
        values["cli.req_p95_ms"] = _quantile(ms, 0.95)
        spawns = run.cold_start(expected)
        values["cli.cold_start_ms"] = statistics.median(spawns) / 1e6
        notes.append(f"cli.req_p50_ms, cli.req_p95_ms: over the {len(ms)} "
                     f"requests of the untraced pass; cli.cold_start_ms: "
                     f"median of {len(spawns)} spawns")

    tracer = Tracer(run.P)
    tracer.install()
    try:
        tracer.job = "setup"
        t0 = perf_counter_ns()
        run.build()
        setup_ns = perf_counter_ns() - t0
        at_setup = tracer.snapshot()
        # the untraced pass, the spawns and the set-up count against
        # the run's time
        done = run.passes(expected, seconds - (perf_counter() - start), 1,
                          tracer)
    finally:
        tracer.uninstall()
    at_end = tracer.snapshot()
    n = len(done)

    def per_run(i, key):
        start, end = at_setup[i].get(key, 0), at_end[i].get(key, 0)
        return start + (end - start) / n

    for layer in LAYERS:
        values[f"{layer}.self_s"] = per_run(0, layer) / 1e9
        values[f"{layer}.calls"] = per_run(1, layer)
    for name in COUNTED:
        values[f"{name}.calls"] = per_run(1, name)
    values["diagram.actions_found"] = per_run(2, "diagram.actions_found")
    iso_calls = per_run(1, "diagram.actions_isomorphic")
    if iso_calls:
        values["diagram.actions_isomorphic.hit_ratio"] = \
            per_run(2, "diagram.actions_isomorphic.true") / iso_calls
    cand = per_run(2, "diagram.equivariant_maps.candidates")
    if cand:
        values["diagram.equivariant_maps.yield_ratio"] = \
            per_run(2, "diagram.equivariant_maps.returned") / cand
    values["cgx.homs_counted"] = per_run(2, "cgx.homs_counted")
    elems = per_run(2, "corr.compose.out_elems")
    values["corr.compose.out_elems"] = elems
    if elems:
        values["corr.compose.us_per_elem"] = \
            values["corr.compose.self_s"] * 1e6 / elems
    values["mn.omega_depth.configs"] = per_run(2, "mn.omega_depth.configs")
    if run.workload == "cli":
        values["cli.out_bytes"] = statistics.mean(b for _, b, _ in done)

    # per-size traced times: mean traced duration of each sweep job
    sweep = {}
    for times, _, _ in done:
        for job, t in zip(run.jobs, times):
            if job.sweep is not None:
                sweep.setdefault(job.sweep, []).append(t)
    for (fn, size), ts in sweep.items():
        values[f"sweep.{fn}.{size}_s"] = statistics.mean(ts) / 1e9
    for fn, sizes in SWEEPS.items():
        top = values[f"sweep.{fn}.{sizes[-1]}_s"]
        below = values[f"sweep.{fn}.{sizes[-2]}_s"]
        if below:
            values[GROWTH[fn]] = top / below

    traced_wall = statistics.mean(sum(times) for times, _, _ in done)
    values["trace.wall_s"] = traced_wall / 1e9
    values["trace.setup_s"] = setup_ns / 1e9
    values["trace.overhead_ratio"] = traced_wall / base_wall
    values["bench.fail_ratio"] = len(run.failures) / run.attempted

    out_dir = os.path.join(run.root, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{run.workload}-seed{run.seed}.jsonl")
    tracer.write(path)
    notes += [f"traced: {n} passes after one traced set-up; per-layer "
              f"values are one set-up plus the mean pass",
              f"spans: {len(tracer.spans)} written to "
              f"{os.path.relpath(path, run.root)}"]
    return {k: {"value": values[k], "unit": units[k]} for k in units}, notes


def run(root, workload, seed, seconds, trace):
    """Run one workload and return the result object for the last line."""
    r = Run(root, workload, seed)
    try:
        metrics, notes = (traced if trace else untraced)(r, seconds)
    finally:
        r.close()
    for key, why in r.failures[:20]:
        notes.append(f"FAILED {key}: {why}")
    return {"correct": not r.failures, "attempted": r.attempted,
            "failed": len(r.failures), "metrics": metrics}, notes


def digests(root, workload):
    """Every job of every family member and its digest, untimed."""
    r = Run(root, workload, None)
    try:
        r.setup(Picker(None))
        out = {}
        for job in r.jobs:
            try:
                out[job.key] = job.digest(job.run())
            except Exception as exc:   # recorded so that --check shows it
                out[job.key] = f"raised {exc!r}"
        return out
    finally:
        r.close()
