#!/usr/bin/env python3
"""Apiary simulator benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rack-kv --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py compare OLD.json NEW.json

A run builds perfbench/src/main.exe with dune, then runs one-episode
processes of the workload back to back until --seconds have passed
(at least MIN_EPISODES of them). Every episode of a run uses the same
seed, so its simulated metrics and layer counters must be identical
across episodes. cycles_per_s and wall_s are the slow-side decile
over episodes (see slow_decile); setup_s and peak_heap_mb the median.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced episodes (APIARY_PROF=1 ticker timers, runtime GC events,
span tree) and prints the per-layer metrics. Metric names and units
come from BENCHMARK.json. The last line of stdout is the result JSON;
the full result is also saved under .perfbench_out/ for `compare`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "src", "main.exe")
OUT = ".perfbench_out"
MIN_EPISODES = 3
EPISODE_TIMEOUT_S = 120
# Stop starting episodes once this much time is spent, so a run stays
# well under three minutes whatever --seconds asks for.
BUDGET_S = 150

# Identity fields two results must share to be comparable at all.
IDENTITY = ("workload", "cycles", "mode", "domains_used", "nproc", "trace")


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("dune-project or lib/ missing: run from the root of a full checkout", 2)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
         "./perfbench/src/main.exe"],
        capture_output=True, text=True)
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed")


def episode_env(traced):
    # Only the knobs the benchmark sets: a stray APIARY_* variable would
    # change the model (APIARY_PROF=0 even turns profiling *on*), and
    # OCAMLRUNPARAM would change the GC.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("APIARY_") and k != "OCAMLRUNPARAM"}
    if traced:
        env["APIARY_PROF"] = "1"
        env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(OUT)
    return env


def episode(workload, seed, traced, trace_out=None):
    cmd = [EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--traced"] + (["--trace-out", trace_out] if trace_out else [])
    try:
        r = subprocess.run(cmd, env=episode_env(traced), capture_output=True,
                           text=True, timeout=EPISODE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("episode timed out: " + " ".join(cmd))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die("episode failed (exit %d): %s" % (r.returncode, " ".join(cmd)))
    return json.loads(r.stdout.strip().splitlines()[-1])


def identity(ep):
    ident = dict(ep["identity"])
    ident.pop("traced")
    return ident


def run_episodes(workload, seed, seconds, trace):
    """Untraced episodes (and, with trace, a traced one after each)."""
    start = time.monotonic()
    plain, traced = [], []
    trace_out = os.path.join(OUT, "%s-seed%d.trace.json" % (workload, seed))
    while True:
        plain.append(episode(workload, seed, False))
        if trace:
            traced.append(episode(workload, seed, True, trace_out))
        spent = time.monotonic() - start
        per = spent / len(plain)
        if len(plain) >= MIN_EPISODES and (spent >= seconds or spent + per > BUDGET_S):
            return plain, traced


def consistency(plain, traced):
    """Determinism checks across the run's episodes. Differing identity
    is a usage error and stops the run; differing simulated output is a
    correctness failure."""
    problems = []
    ref = plain[0]
    for ep in plain[1:] + traced:
        if identity(ep) != identity(ref):
            die("episodes differ in identity: %s vs %s" % (identity(ep), identity(ref)), 3)
        for part in ("sim", "counters"):
            if ep[part] != ref[part]:
                diff = sorted(k for k in ref[part] if ep[part].get(k) != ref[part][k])
                kind = "traced" if ep["identity"]["traced"] else "untraced"
                problems.append("%s episode's %s differ in %s" % (kind, part, ", ".join(diff)))
    return problems


def median(eps, part, key):
    return statistics.median(ep[part][key] for ep in eps)


def slow_decile(values, better):
    """The decile on the slow side: the lower decile of a rate, the
    upper decile of a time.

    On the shared 2-vCPU VM this benchmark was tuned on, the host runs
    at a steady slow level for seconds to minutes, then up to 2.5x
    faster for a while. The median and even the lower quartile move
    with how much of a run was fast; the lower decile sits on the slow
    level whenever the run caught one. Over seven ten-run sets its
    spread was 0.04-0.14, against 0.05-0.28 for the quartile."""
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[0] if better == "higher" else cuts[-1]


def end_to_end(plain):
    ref = plain[0]["sim"]
    host = lambda key: [ep["host"][key] for ep in plain]
    return {
        "cycles_per_s": slow_decile(host("cycles_per_s"), "higher"),
        "wall_s": slow_decile(host("wall_s"), "lower"),
        # One set-up per episode, so the median is over many set-ups.
        "setup_s": statistics.median(host("setup_s")),
        "peak_heap_mb": statistics.median(host("peak_heap_mb")),
        "sim_ops_per_kcycle": ref["sim_ops_per_kcycle"],
        "sim_p50_cycles": ref["sim_p50_cycles"],
        "sim_p99_cycles": ref["sim_p99_cycles"],
        "ok_pct": 100.0 * (1.0 - ref["failed_frac"]),
        "slo_attainment_pct": ref["slo_attainment_pct"],
    }


def per_layer(plain, traced):
    ref = traced[0]
    values = dict(ref["counters"])
    for key in ref["layers_s"]:
        values[key] = median(traced, "layers_s", key)
    for key in ref["runtime"]:
        values[key] = median(traced, "runtime", key)
    values["failed_frac"] = ref["sim"]["failed_frac"]
    values["trace.overhead_s"] = (median(traced, "host", "wall_s")
                                  - median(plain, "host", "wall_s"))
    return values


def span_table(traced):
    rows = {}
    for ep in traced:
        for s in ep["spans"]:
            rows.setdefault(s["name"], []).append(s)
    print("%-44s %6s %12s %12s" % ("span (median of traced episodes)", "count", "total_s", "self_s"))
    for name in sorted(rows):
        ss = rows[name]
        print("%-44s %6d %12.6f %12.6f" % (
            name, ss[0]["count"], statistics.median(s["total_s"] for s in ss),
            statistics.median(s["self_s"] for s in ss)))


def measure(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die("unknown workload %r (have: %s)" % (args.workload, ", ".join(names)), 2)
    build()
    os.makedirs(OUT, exist_ok=True)
    plain, traced = run_episodes(args.workload, args.seed, args.seconds, args.trace)
    problems = consistency(plain, traced)
    failed_checks = ["%s: %s" % (c["name"], c["detail"])
                     for ep in plain + traced for c in ep["checks"] if not c["ok"]]
    problems += sorted(set(failed_checks))
    eps = plain + traced

    if args.trace:
        listed = spec["per_layer"]
        values = per_layer(plain, traced)
    else:
        listed = spec["end_to_end"]
        values = end_to_end(plain)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        die("metrics listed in BENCHMARK.json but not produced: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    ident = identity(plain[0])
    ident.update(seed=args.seed, trace=args.trace, episodes=len(plain), traced_episodes=len(traced))
    print("perfbench %s" % json.dumps(ident, sort_keys=True))
    print("%-36s %18s  %-9s %s" % ("metric", "value", "unit", "better"))
    for m in listed:
        print("%-36s %18.6g  %-9s %s" % (m["name"], values[m["name"]], m["unit"],
                                         m.get("better", "")))
    if args.trace:
        span_table(traced)
    else:
        for key in ("cycles_per_s", "wall_s", "setup_s"):
            xs = sorted(ep["host"][key] for ep in plain)
            print("  %s over %d episodes: min %.6g, median %.6g, max %.6g"
                  % (key, len(xs), xs[0], statistics.median(xs), xs[-1]))
        print("  outcomes (latency samples) per episode: %d" % plain[0]["sim"]["outcomes"])
    print("checks: %d per episode, %d episodes, %d problems"
          % (len(plain[0]["checks"]), len(eps), len(problems)))
    for p in problems:
        print("FAILED " + p)

    result = {
        "correct": not problems,
        "attempted": sum(ep["sim"]["attempted"] for ep in eps),
        "failed": sum(ep["sim"]["failed"] for ep in eps),
        "metrics": metrics,
    }
    # Per-episode host values, so a result can be re-read with another
    # statistic (quartiles, pairing) without re-running it.
    per_episode = {key: [ep["host"][key] for ep in plain]
                   for key in ("cycles_per_s", "wall_s", "setup_s", "peak_heap_mb")}
    saved = dict(result, identity=ident, episodes=per_episode)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(saved, f, indent=1, sort_keys=True)
    print(json.dumps(result))


def compare(args):
    """Gate NEW against OLD with BENCHMARK.json's bounds. Results of a
    different workload, size or flags are not comparable: that is an
    error (exit 3), never a skip."""
    spec = load_spec()
    with open(args.old) as f:
        old = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    mismatch = [k for k in IDENTITY if old["identity"].get(k) != new["identity"].get(k)]
    if mismatch:
        die("refusing to compare results that differ in %s: %s vs %s" % (
            ", ".join(mismatch),
            {k: old["identity"].get(k) for k in mismatch},
            {k: new["identity"].get(k) for k in mismatch}), 3)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = []
    for name, o in sorted(old["metrics"].items()):
        if name not in new["metrics"]:
            die("metric %s missing from %s" % (name, args.new), 3)
        a, b = o["value"], new["metrics"][name]["value"]
        m = bounds.get(name, {})
        change = (b - a) / a if a else 0.0
        if m.get("better") == "higher":
            change = -change
        flag = ""
        if "bound" in m and change > m["bound"]:
            flag = "  WORSE (bound %.0f%%)" % (100 * m["bound"])
            worse.append(name)
        print("%-36s %14.6g -> %14.6g  %+7.2f%%%s" % (name, a, b, 100 * (b - a) / a if a else 0.0, flag))
    if not (old["correct"] and new["correct"]):
        die("a compared result failed its output checks", 1)
    sys.exit(1 if worse else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        compare(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure(p.parse_args())


if __name__ == "__main__":
    main()
