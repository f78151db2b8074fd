"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload field-sweep --seed 1 --seconds 35 --trace 0

Closed loop from one process and one thread: queries are asked one at a
time, a round asks every query of the workload once, and as many whole
rounds run as fit in ``--seconds`` (at least one).  The answers are checked
against the oracles after the timed loop.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 1`` the
metrics are the per-layer ones from wrapped ``foundry`` functions, and the
spans go to ``bench/out/``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5
TAIL_BEYOND = 10   # query_tail_ms has this many queries above it


def importFoundry():
    """Import the package from this checkout's src/; seconds per import."""
    if not (SRC / "foundry" / "__init__.py").is_file():
        raise SystemExit("bench: no foundry package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    start = time.perf_counter()
    import foundry._gf
    gfDone = time.perf_counter()
    import foundry.cli
    cliDone = time.perf_counter()
    if Path(foundry.__file__).resolve().parent != SRC / "foundry":
        raise SystemExit("bench: imported foundry from %s, not %s" % (foundry.__file__, SRC))
    return {"gf.import_s": gfDone - start, "cli.import_s": cliDone - start}


def parseArgs(argv):
    parser = argparse.ArgumentParser(description="Run one foundry benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit (times set-up)")
    return parser.parse_args(argv)


def measureSetup(args):
    """Median wall time of fresh processes that import foundry and build
    this run's inputs, from process start to exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def runRounds(workload, seconds, failedMarker):
    """Ask every query once per round, for as many whole rounds as fit in
    the time (at least one).  Keeps the first round's answers and checks
    every later round against them."""
    queries = workload.queries
    latencies = [[] for _ in queries]
    roundTimes = []
    first = None
    failed = 0
    changed = {}
    start = time.perf_counter()
    while True:
        answers = []
        roundStart = time.perf_counter()
        for i, query in enumerate(queries):
            t = time.perf_counter()
            try:
                answer = query.run()
            except Exception:  # a failing query is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                answer = failedMarker
                failed += 1
            latencies[i].append(time.perf_counter() - t)
            answers.append(answer)
        roundTimes.append(time.perf_counter() - roundStart)
        if first is None:
            first = answers
        else:
            for i, (a, b) in enumerate(zip(first, answers)):
                if a != b:
                    changed[i] = ["answer differs from the first round's"]
        # stop before a round that would likely end past the time budget
        if time.perf_counter() - start + statistics.mean(roundTimes) > seconds:
            break
    return first, latencies, roundTimes, failed, changed


def endToEndMetrics(latencies, roundTimes, setup, peakRss):
    """A query's latency is the median of its rounds, and wall_s the median
    round time; p50 and tail are taken over the queries' latencies."""
    perQuery = sorted(statistics.median(samples) for samples in latencies)
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "wall_s": {"value": statistics.median(roundTimes), "unit": "s"},
        "query_p50_ms": {"value": 1000 * statistics.median(perQuery), "unit": "ms"},
        "query_tail_ms": {"value": 1000 * perQuery[-(TAIL_BEYOND + 1)], "unit": "ms"},
        "peak_rss_mb": {"value": peakRss, "unit": "MB"},
    }


def main(argv=None):
    args = parseArgs(argv)
    importTimes = importFoundry()
    import oracles
    import workloads
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("bench: unknown workload %r; choose from %s"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    else:
        setup = measureSetup(args)

    first, latencies, roundTimes, failed, changed = runRounds(
        workload, args.seconds, workloads.FAILED)
    peakRss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checkStart = time.perf_counter()
    bruteForce = json.loads(oracles.BRUTEFORCE_FILE.read_text())["counts"]
    problems = workload.check(first, bruteForce)
    for i, found in changed.items():
        problems.setdefault(i, []).extend(found)
    for i in sorted(problems):
        print("wrong answer to %r: %s" % (workload.queries[i].label, "; ".join(problems[i])),
              file=sys.stderr)

    rounds = len(roundTimes)
    print("checked %d answers in %.2f s" % (len(first), time.perf_counter() - checkStart),
          file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if tracer is not None:
        metrics = tracing.perLayerMetrics(tracer, rounds, importTimes)
        tracer.write(OUT / ("spans-%s.tsv" % stem))
        print("traced: %d rounds, wall_s %.4f per round, %d spans"
              % (rounds, statistics.median(roundTimes), len(tracer.spanName)), file=sys.stderr)
    else:
        metrics = endToEndMetrics(latencies, roundTimes, setup, peakRss)
        print("untraced: %d rounds of %d queries, rounds %s s"
              % (rounds, len(workload.queries), " ".join("%.3f" % t for t in roundTimes)),
              file=sys.stderr)
        (OUT / ("latencies-%s.json" % stem)).write_text(json.dumps(
            {"labels": [repr(q.label) for q in workload.queries], "latencies": latencies}))
    result = {
        "correct": not problems,
        "attempted": rounds * len(workload.queries),
        "failed": failed,
        "metrics": metrics,
    }
    line = json.dumps(result, sort_keys=True)
    (OUT / ("result-%s.json" % stem)).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
