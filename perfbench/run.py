#!/usr/bin/env python3
"""Spec→report benchmark of the torpartial simulator.

Run from the repository root:

    python3 perfbench/run.py --workload distribute-32k --seed 1 --seconds 30 --trace 0

Builds perfbench/perfbench.exe with dune, then starts one process per
repetition (every repetition has cold caches and a fresh heap) until
--seconds have passed.  Each repetition's outcome must equal the first
one's, the reference value recorded for the seed in
perfbench/reference.json (when there is one), and, in a traced run, the
untraced outcome and vote digests.

--trace 0 reports the end-to-end metrics from untraced repetitions.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics from the traced ones; the spans of each traced
repetition and a summary (layer self times, tracing overhead, settings)
are written under perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --record stores the outcome of
the run as the seed's reference value instead of checking it.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
REFERENCE = os.path.join("perfbench", "reference.json")
OUT = os.path.join("perfbench", "out")
REP_TIMEOUT_S = 150

# Worker domains of each workload's timed operation; every run is at
# shards = 1 (the default of Runenv.Spec).
WORKERS = {"distribute-32k": 1, "chaos-4k": 1, "fig10-sweep": 2}
# chaos-4k runs a fixed plan sample, so its outcome does not depend on
# the seed and one reference value covers every seed.
SEEDED = {"distribute-32k": True, "chaos-4k": False, "fig10-sweep": True}

PROTOCOLS = ("current", "sync", "ours")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no dune-project and lib/ here: run from the repository root")
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        fail("build failed")


def repetition(workload, seed, spans_path):
    """One process: returns (setup seconds, parsed JSON line or None, error)."""
    args = [EXE, workload, "--seed", str(seed)]
    if spans_path:
        args += ["--trace", "--spans", spans_path]
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(REP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        killer.cancel()
    if ready.strip() != "ready" or proc.returncode != 0:
        return setup_s, None, "exit code %d" % proc.returncode
    try:
        return setup_s, json.loads(rest.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return setup_s, None, "unreadable output"


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans):
    """Per span name: count, total and self seconds (minus children), MB."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    table = {}
    for s in spans:
        dur = s["end"] - s["start"]
        kids = sum(k["end"] - k["start"] for k in children.get(s["id"], []))
        row = table.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0, "alloc_mb": 0.0})
        row["count"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - kids
        row["alloc_mb"] += s["alloc_mb"]
    return table


def coverage(spans):
    """Share of the timed operation's root span covered by its children."""
    roots = [s for s in spans if s["op"] == 1 and s["parent"] == 0]
    if len(roots) != 1:
        return None
    root = roots[0]
    kids = sum(s["end"] - s["start"] for s in spans if s["parent"] == root["id"])
    return kids / (root["end"] - root["start"])


def layer_metrics(table, sim):
    def total(name, key="total_s"):
        return table.get(name, {}).get(key, 0.0)

    m = {
        "workload.relays_s": total("workload.relays"),
        "workload.views_s": total("workload.views"),
        "workload.views_mb": total("workload.views", "alloc_mb"),
        "vote.create_s": total("vote.create"),
        "vote.create_mb": total("vote.create", "alloc_mb"),
        "runenv.of_spec_s": total("runenv.of_spec"),
        "aggregate.consensus_s": total("aggregate.consensus"),
    }
    for p in PROTOCOLS:
        m["protocol.%s_s" % p] = total("protocol." + p)
        m["protocol.%s_mb" % p] = total("protocol." + p, "alloc_mb")
    m["client.tier_s"] = total("client.run") - total("client.baseline")
    m["client.tier_mb"] = total("client.run", "alloc_mb") - total("client.baseline", "alloc_mb")
    m["sim.messages"] = sim["messages"]
    m["sim.bytes"] = sim["bytes"]
    return m


def workload_extras(workload, spans, table):
    """Layer figures that only one workload has; kept in the summary file."""
    if workload == "chaos-4k":
        check = [s for s in spans if s["name"] == "chaos.check"][0]
        drivers = [s for s in spans if s["parent"] == check["id"]]
        prefix = min(s["start"] for s in drivers) - check["start"]
        return {
            "chaos.check_s": table["chaos.check"]["total_s"],
            "chaos.votes_s": table["chaos.votes"]["total_s"],
            "chaos.prefix_s": prefix,
            "chaos.overhead_s": table["chaos.check"]["self_s"] - prefix,
            "campaign.env_of_s": table["campaign.env_of"]["total_s"],
        }
    if workload == "fig10-sweep":
        return {
            "sweep.votes_s": table["sweep.votes"]["total_s"],
            "sweep.vote_builds": table["sweep.votes"]["count"],
        }
    return {"spec_to_report_s": table["spec_to_report"]["total_s"]}


def median_of(rows, key):
    values = [r[key] for r in rows if r.get(key) is not None]
    return statistics.median(values) if values else None


def git_commit():
    if not os.path.isdir(".git"):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout the
    benchmark runs in is not always a git repository)."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "out")
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    with open(REFERENCE) as f:
        references = json.load(f)
    ref_key = str(args.seed) if SEEDED[args.workload] else "any"
    reference = None if args.record else references.get(args.workload, {}).get(ref_key)
    tag = "%s-seed%d" % (args.workload, args.seed)

    reps = []
    first = None
    start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        spans_path = os.path.join(OUT, "%s-rep%d.spans.jsonl" % (tag, len(reps))) if traced else None
        setup_s, out, error = repetition(args.workload, args.seed, spans_path)
        rep = {"traced": traced, "setup_s": setup_s, "error": error}
        if out is not None:
            rep.update(op_s=out["op_s"], peak_heap_mb=out["peak_heap_mb"], ocaml=out["ocaml"])
            errors = list(out["failures"])
            if first is None:
                first = out
            elif out["outcome"] != first["outcome"]:
                errors.append("outcome differs from the first repetition's")
            if reference is not None and out["outcome"] != reference:
                errors.append("outcome differs from the reference for this seed")
            if out["votes"] is not None and first["votes"] is not None and out["votes"] != first["votes"]:
                errors.append("vote digests differ from the first repetition's")
            if traced:
                try:
                    spans = load_spans(spans_path)
                    table = self_times(spans)
                    rep["coverage"] = coverage(spans)
                    rep["layers"] = layer_metrics(table, out["sim"])
                    rep["extras"] = workload_extras(args.workload, spans, table)
                    rep["extras"].update({"sim." + k: out["sim"][k] for k in ("dropped", "rejected")})
                    rep["self_times"] = table
                except (OSError, ValueError, KeyError, IndexError) as e:
                    errors.append("unreadable spans: %r" % e)
                if args.workload == "distribute-32k" and not (rep.get("coverage") or 0) >= 0.9:
                    errors.append("spans cover less than 90% of spec→report")
            rep["error"] = "; ".join(errors) or None
        reps.append(rep)
        elapsed = time.perf_counter() - start
        done = [r["op_s"] for r in reps if "op_s" in r] or [elapsed]
        pair_done = args.trace == 0 or len(reps) % 2 == 0
        if pair_done and elapsed + statistics.median(done) * (1 + args.trace) > args.seconds:
            break

    failed = sum(1 for r in reps if r["error"])
    plain = [r for r in reps if not r["traced"] and "op_s" in r]
    traced_reps = [r for r in reps if r["traced"] and "layers" in r]
    summary = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "shards": 1,
            "workers": WORKERS[args.workload],
            "cores": len(os.sched_getaffinity(0)),
            "ocaml": first["ocaml"] if first else None,
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "repetitions": len(reps),
        },
        "repetitions": [{k: v for k, v in r.items() if k != "self_times"} for r in reps],
    }
    if args.trace == 0:
        times = [r["op_s"] for r in plain]
        if times:
            summary["report_s"] = {
                "samples": len(times),
                "min": min(times),
                "median": statistics.median(times),
                "max": max(times),
            }
        metrics = {
            # The fastest repetition: host interference only ever adds
            # time, and on a shared 2-core host the minimum varied less
            # across runs than the median (README.md, "Steadiness").
            "report_s": (min(times) if times else None, "s"),
            "setup_s": (median_of(reps, "setup_s"), "s"),
            "peak_heap_mb": (median_of(plain, "peak_heap_mb"), "MB"),
        }
    else:
        metrics = {}
        if traced_reps:
            for name in traced_reps[0]["layers"]:
                unit = "count" if name.startswith("sim.") else ("MB" if name.endswith("_mb") else "s")
                metrics[name] = (statistics.median(r["layers"][name] for r in traced_reps), unit)
            plain_s = median_of(plain, "op_s")
            traced_s = median_of(traced_reps, "op_s")
            extras = {k: statistics.median(r["extras"][k] for r in traced_reps) for k in traced_reps[0]["extras"]}
            if WORKERS[args.workload] == 1:
                extras["tracing_overhead_s"] = traced_s - plain_s
            else:
                # The traced pass is sequential: its wall time over the
                # untraced pool's is the pool's speed-up.
                extras["pool.speedup"] = traced_s / plain_s
            extras["coverage"] = median_of(traced_reps, "coverage")
            summary["extras"] = extras
            last = traced_reps[-1]["self_times"]
            summary["self_times"] = {k: last[k] for k in sorted(last)}
    summary["metrics"] = {k: v for k, (v, _) in metrics.items()}
    with open(os.path.join(OUT, "%s-trace%d.json" % (tag, args.trace)), "w") as f:
        json.dump(summary, f, indent=1)

    if args.record and failed == 0 and first is not None:
        references.setdefault(args.workload, {})[ref_key] = first["outcome"]
        with open(REFERENCE, "w") as f:
            json.dump(references, f, indent=1, sort_keys=True)
            f.write("\n")

    correct = failed == 0 and len(reps) > 0 and all(v is not None for v, _ in metrics.values())
    print(json.dumps({"meta": summary["meta"], "extras": summary.get("extras")}))
    for r in reps:
        if r["error"]:
            print("perfbench: repetition failed: " + r["error"], file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(reps),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
