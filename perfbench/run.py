#!/usr/bin/env python3
"""Census benchmark: three n = 9 census workloads of bilatnet.

    python3 perfbench/run.py --workload curve-n9 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds perfbench/census_bench, and
the library through the repository's own CMakeLists.txt, into .bench_build/.
It runs one workload, checks every result against perfbench/expected.json,
and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The workloads are exhaustive enumerations with no random input, so --seed
is accepted and changes nothing. perfbench/README.md maps each metric to
the layer it measures and the workload where it should move.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("curve-n9", "curve-bcg-n9-2pass", "census-band-n9")
RUN_TIMEOUT_S = 170
# Few compile jobs: the build may share its machine with other work.
BUILD_JOBS = "2"


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no bilatnet sources in {ROOT}", 2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "census_bench",
                  "-j", BUILD_JOBS])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            die("build failed: " + " ".join(step))
    return BUILD / "census_bench"


def measure(binary, args):
    command = [str(binary), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die(f"census_bench ran longer than {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        die(f"census_bench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        die("census_bench printed nothing")
    return json.loads(lines[-1])


class Checker:
    """Counts attempted runs and the runs whose outputs were wrong."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def run(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: {what}: {problem}", file=sys.stderr)

    def census_problems(self, result):
        want = self.expected
        problems = []
        for key, wanted in (("topologies", want["topologies"]),
                            ("rows", want["rows"]),
                            ("digest", want["digest"])):
            if result[key] != wanted:
                problems.append(f"{key} {result[key]!r}, expected {wanted!r}")
        return problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw, check):
    for i, rep in enumerate(raw["reps"]):
        check.run(f"rep {i}", check.census_problems(rep))
    if "reference" in raw:
        # The cross-budget contract: re-streamed rows equal one-pass rows.
        reference = raw["reference"]
        problems = check.census_problems(reference)
        problems += [f"rep {i} digest {rep['digest']} differs from the "
                     f"one-pass run's {reference['digest']}"
                     for i, rep in enumerate(raw["reps"])
                     if rep["digest"] != reference["digest"]]
        check.run("one-pass reference", problems)
    wall = statistics.median(rep["wall_s"] for rep in raw["reps"])
    peak = statistics.median(rep["peak_rss_bytes"] for rep in raw["reps"])
    return {
        "wall_s": metric(wall, "s"),
        "topologies_per_s": metric(check.expected["topologies"] / wall,
                                   "1/s"),
        "peak_rss_mb": metric(peak / 2**20, "MB"),
        "setup_s": metric(statistics.median(raw["setup_s"]), "s"),
    }


def block_imbalance(costs, threads):
    """Slowest of parallel_for_chunks' contiguous blocks over the mean."""
    chunk = -(-len(costs) // threads)
    blocks = [sum(costs[i:i + chunk]) for i in range(0, len(costs), chunk)]
    return max(blocks) / statistics.mean(blocks)


def per_layer(raw, check):
    want = check.expected
    threads = raw["threads"]
    censuses = raw["censuses"]
    for i, census in enumerate(censuses):
        problems = check.census_problems(census)
        if i == 0:
            problems += [f"counter {name} moved {raw['counters'][name]}, "
                         f"expected {value}"
                         for name, value in want["counters"].items()
                         if raw["counters"][name] != value]
        check.run(f"census {i} ({census['threads']} threads)", problems)

    rounds = raw["rounds"]
    hardest = [[h["key"], h["orientations"], h["player_intervals"]]
               for h in raw["hardest"]]
    for i, walk in enumerate(rounds):
        problems = [f"walk {key} {walk[key]}, expected {value}"
                    for key, value in want["walk"].items()
                    if walk[key] != value]
        if walk["topologies"] != want["topologies"]:
            problems.append(f"walk topologies {walk['topologies']}")
        if not walk["sample_checksums_match"]:
            problems.append("traced and untraced walks disagree")
        if i == 0 and hardest != want["hardest"]:
            problems.append(f"hardest topologies {hardest}, "
                            f"expected {want['hardest']}")
        check.run(f"layer walk {i}", problems)

    def median_of(key):
        return statistics.median(walk[key] for walk in rounds)

    topologies = want["topologies"]
    walk = rounds[0]
    passes = censuses[0]["profile_passes"]
    serial = [c["wall_s"] for c in censuses if c["threads"] == 1]
    configured = [c["wall_s"] for c in censuses if c["threads"] == threads]
    residuals = [(wall - passes * (r["gen_s"] + r["graph_s"] + r["bcg_s"])
                  - r["ucg_s"]) / wall for wall, r in zip(serial, rounds)]
    costs = raw["shard_s"]
    traced = sum(r["sample_traced_s"] for r in rounds)
    untraced = sum(r["sample_untraced_s"] for r in rounds)
    ns = 1e9 / topologies
    return {
        "gen.ns_per_topology": metric(median_of("gen_s") * ns, "ns"),
        "gen.candidates_per_topology": metric(
            walk["candidates"] / topologies, "count"),
        "gen.accept_ratio": metric(walk["accepts"] / walk["candidates"],
                                   "ratio"),
        "graph.ns_per_topology": metric(median_of("graph_s") * ns, "ns"),
        "bcg.ns_per_topology": metric(median_of("bcg_s") * ns, "ns"),
        "ucg.ns_per_topology": metric(median_of("ucg_s") * ns, "ns"),
        "ucg.ns_p99": metric(median_of("ucg_ns_p99"), "ns"),
        "ucg.player_intervals_per_topology": metric(
            walk["player_intervals"] / topologies, "count"),
        "ucg.orientations_per_topology": metric(
            walk["orientations"] / topologies, "count"),
        "analysis.residual_share": metric(statistics.median(residuals),
                                          "ratio"),
        "analysis.breakpoints": metric(censuses[0]["rows"], "count"),
        "analysis.arena_bytes": metric(
            raw["counters"]["poa_stream.profile_arena_bytes"], "bytes"),
        "sched.shard_cost_max_over_median": metric(
            max(costs) / statistics.median(costs), "ratio"),
        "sched.block_imbalance": metric(block_imbalance(costs, threads),
                                        "ratio"),
        "sched.block_imbalance_topologies": metric(
            block_imbalance(raw["shard_topologies"], threads), "ratio"),
        # A two-pass census profiles every shard twice.
        "sched.parallel_efficiency": metric(
            passes * sum(costs) / (threads * statistics.median(configured)),
            "ratio"),
        "sched.pool_dispatches": metric(
            raw["counters"]["thread_pool.dispatches"], "count"),
        "obs.trace_overhead_pct": metric(100.0 * (traced - untraced)
                                         / untraced, "%"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for the harness; the workloads are "
                             "exhaustive and take no random input")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive", 2)

    binary = build()
    expected = json.loads((HERE / "expected.json").read_text())
    pins = dict(expected["workloads"][args.workload],
                topologies=expected["topologies"])
    check = Checker(pins)
    raw = measure(binary, args)
    if args.trace:
        metrics = per_layer(raw, check)
        for rank, h in enumerate(raw["hardest"], 1):
            print(f"hardest {rank:2d} key={h['key']} "
                  f"orientations={h['orientations']} "
                  f"player_intervals={h['player_intervals']}")
    else:
        metrics = end_to_end(raw, check)
    print(json.dumps({"correct": check.failed == 0,
                      "attempted": check.attempted,
                      "failed": check.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
