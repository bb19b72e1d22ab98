"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload gloss-batch --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark drives the public API of
``hybridmt`` from outside, in one process and one thread, as a closed
loop: each job builds fresh set-up, then makes one pass over the
workload's inputs, then the next job starts.  A fixed kernel runs
between timed calls, and times are calibrated by it (see timing.py).

Before timing, one untimed job produces the reference outputs, and the
workload's output checks run on them.  Every timed job must reproduce
those outputs byte for byte.  With ``--trace 1`` the timed jobs
alternate between untraced and traced ones, and the per-layer metrics
come from the traced jobs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the seed, the input and output digests and diagnostics.  The
exit code is 1 if an output check failed.
"""

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import tracemalloc

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "hybridmt")):
    sys.exit("bench/run.py: no hybridmt sources under %s; run from a repository checkout" % SRC)
sys.path.insert(0, SRC)

from hybridmt import lattice_lm  # noqa: E402

import timing  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, brute_force_best  # noqa: E402

# per-layer time metric -> tracer layer whose self time it reports
LAYER_MS = {
    "chunker.ms": "chunker",
    "parser.ms": "parser",
    "featstruct.apply_equations.ms": "featstruct.apply_equations",
    "featstruct.subsumes.ms": "featstruct.subsumes",
    "glosser.ms": "glosser",
    "semantics.analyze_ms": "semantics.analyze",
    "semantics.rank_ms": "semantics.rank",
    "realizer.ms": "realizer",
    "lattice_lm.best_path_ms": "lattice_lm",
    "posteditor.ms": "posteditor",
    "pipeline.self_ms": "pipeline",
}
# per-layer counts reported per operation as the tracer counted them
LAYER_COUNTS = (
    "chunker.markers",
    "parser.constituents",
    "parser.errors",
    "featstruct.apply_equations.calls",
    "featstruct.subsumes.calls",
    "glosser.lattice_nodes",
    "glosser.lattice_paths",
    "semantics.candidates",
    "realizer.lattice_nodes",
    "realizer.errors",
    "lattice_lm.prob_calls",
    "lattice_lm.distinct_contexts",
    "lattice_lm.lattice_nodes",
    "posteditor.articles_inserted",
)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Job:
    """One job's calibrated samples and (if traced) layer data."""

    def __init__(self, traced, count):
        self.traced = traced
        self.setup_s = None
        self.raw_op_s = [0.0] * count  # by input index
        self.op_s = [0.0] * count  # calibrated, by input index
        self.failed = 0
        self.layer_s = {}  # calibrated seconds per layer
        self.counts = {}
        self.setup_layer_s = {}
        self.digest = None


def _fold(into, values, factor=1.0):
    for key, value in values.items():
        into[key] = into.get(key, 0.0) + value * factor


def run_job(workload, inputs, sampler, order, tracer=None):
    """Fresh set-up, then one operation per input, in the given order of
    input indices.  Returns the job, the set-up and the outputs by index."""
    job = Job(tracer is not None, len(inputs.items))
    outputs = [None] * len(inputs.items)

    start = time.perf_counter()
    for _ in range(workload.setup_repeat):
        state = workload.setup(inputs)
    raw = time.perf_counter() - start
    factor = sampler.calibrate()
    job.setup_s = raw * factor / workload.setup_repeat
    if tracer is not None:
        _fold(job.setup_layer_s, tracer.take()[0], factor / workload.setup_repeat)

    segment, segment_s, segment_layers = [], 0.0, {}
    for position, index in enumerate(order):
        start = time.perf_counter()
        output, failed = workload.op(state, inputs.items[index])
        raw = time.perf_counter() - start
        job.raw_op_s[index] = raw
        job.failed += failed
        outputs[index] = output
        segment.append(index)
        segment_s += raw
        if tracer is not None:
            seconds, counts = tracer.take()
            _fold(segment_layers, seconds)
            _fold(job.counts, counts)
            _fold(job.counts, path_counts(output))
        if segment_s >= timing.SEGMENT_S or position == len(order) - 1:
            factor = sampler.calibrate()
            for i in segment:
                job.op_s[i] = job.raw_op_s[i] * factor
            _fold(job.layer_s, segment_layers, factor)
            segment, segment_s, segment_layers = [], 0.0, {}
    job.digest = hashlib.sha256(
        "\n".join(workload.output_text(i, o) for i, o in zip(inputs.items, outputs)).encode()
    ).hexdigest()
    return job, state, outputs


def path_counts(output):
    """Counts the pipeline already records in its sentence trace."""
    stages = getattr(output, "stages", None)
    if stages is None:
        return {}
    names = [s.name for s in stages]
    return {
        "glosser.lattice_paths": sum(s.n_out for s in stages if s.name == "gloss"),
        "semantics.fallbacks": 1 if "analyze" in names and "gloss" in names else 0,
    }


class BestPathRecorder:
    """Records every ``lattice_lm.best_path`` call the pipeline makes."""

    def __init__(self):
        self.calls = []

    def __enter__(self):
        self.saved = lattice_lm.best_path

        def best_path(lattice, model):
            result = self.saved(lattice, model)
            self.calls.append((lattice, model, result))
            return result

        lattice_lm.best_path = best_path
        return self

    def __exit__(self, *exc):
        lattice_lm.best_path = self.saved
        return False


def reference_job(workload, inputs):
    """The untimed job whose outputs every timed job must reproduce,
    the output digest to print, and the output checks run on them."""
    with BestPathRecorder() as recorder:
        job, state, outputs = run_job(
            workload, inputs, timing.Sampler(), range(len(inputs.items)))
    errors = workload.check(inputs, state, outputs)
    for lattice, model, result in recorder.calls:
        want = brute_force_best(lattice, model)
        if want is not None and want != result:
            errors.append("best_path %r, enumeration %r" % (result, want))
    # the pipeline notes lm_score to six decimals only: the printed
    # digest also takes the exact repr of every best_path score
    digest = hashlib.sha256("\n".join(
        [job.digest] + [repr(result[1]) for _lattice, _model, result in recorder.calls]
    ).encode()).hexdigest()
    return job, digest, errors


def setup_alloc_kb(workload, inputs):
    tracemalloc.start()
    try:
        workload.setup(inputs)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def latency_ms(workload, jobs):
    """p50 and p90 calibrated latency and the sample count behind them.

    The synthetic workloads have an odd number of inputs, so both
    percentiles fall inside one input's samples.  batch50 has 50 lines,
    where they would fall between two lines and follow those lines'
    tails, so there each line's median is taken first.
    """
    by_input = list(zip(*(j.op_s for j in jobs)))
    if workload.per_input_median:
        values = [statistics.median(v) for v in by_input]
    else:
        values = [x for v in by_input for x in v]
    samples = sum(len(v) for v in by_input)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49] * 1e3, cuts[89] * 1e3, samples


def end_to_end(workload, jobs, attempted, failed):
    p50, p90, _samples = latency_ms(workload, jobs)
    return {
        "throughput_per_s": attempted / sum(sum(j.op_s) for j in jobs),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "setup_s": statistics.median(j.setup_s for j in jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_share": (attempted - failed) / attempted,
    }


def per_layer(workload, inputs, traced, untraced, sampler):
    """Per-layer metrics from the traced jobs: calibrated self ms and
    counts per operation, set-up split per set-up."""
    ops = sum(len(j.op_s) for j in traced)
    layer_s, counts, setup_s = {}, {}, {}
    for j in traced:
        _fold(layer_s, j.layer_s)
        _fold(counts, j.counts)
        _fold(setup_s, j.setup_layer_s)
    out = {name: layer_s.get(layer, 0.0) * 1e3 / ops for name, layer in LAYER_MS.items()}
    out.update({name: counts.get(name, 0) / ops for name in LAYER_COUNTS})
    parses = max(counts.get("parser.calls", 0), 1)
    out["parser.derivations_per_constituent"] = (
        counts.get("parser.derivations", 0) / max(counts.get("parser.constituents", 0), 1))
    out["parser.full_parse_share"] = counts.get("parser.full_parses", 0) / parses
    out["parser.truncated_share"] = counts.get("parser.truncated", 0) / parses
    out["semantics.fallback_share"] = counts.get("semantics.fallbacks", 0) / ops

    setup_ms = statistics.mean(j.setup_s for j in traced) * 1e3
    out["setup.rulebase_ms"] = setup_s.get("setup.rulebase", 0.0) * 1e3 / len(traced)
    out["setup.lm_load_ms"] = setup_s.get("setup.lm_load", 0.0) * 1e3 / len(traced)
    out["setup.other_ms"] = setup_ms - out["setup.rulebase_ms"] - out["setup.lm_load_ms"]
    out["setup.alloc_kb"] = setup_alloc_kb(workload, inputs)

    traced_ms = sum(sum(j.op_s) for j in traced) * 1e3 / ops
    plain_ms = sum(sum(j.op_s) for j in untraced) * 1e3 / sum(len(j.op_s) for j in untraced)
    out["trace.op_ms"] = traced_ms
    out["trace.accounted_share"] = sum(out[name] for name in LAYER_MS) / traced_ms
    out["trace.overhead_share"] = traced_ms / plain_ms - 1
    out["calibration.kernel_ms"] = sampler.kernel_ms()
    out["raw.throughput_per_s"] = raw_throughput(untraced)
    return out


def raw_throughput(jobs):
    return sum(len(j.raw_op_s) for j in jobs) / sum(sum(j.raw_op_s) for j in jobs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = load_spec()
    workload = WORKLOADS[args.workload]

    inputs = workload.make_inputs(args.seed)
    reference, output_digest, errors = reference_job(workload, inputs)

    # what the benchmark itself holds is no part of the program's heap:
    # keep the collector from scanning it in every timed job
    gc.collect()
    gc.freeze()
    sampler = timing.Sampler()
    rng = random.Random(args.seed)
    order = list(range(len(inputs.items)))
    jobs = []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < args.seconds or (args.trace and len(jobs) < 2):
        gc.collect()
        traced = bool(args.trace) and len(jobs) % 2 == 1
        if workload.shuffle_per_job:
            rng.shuffle(order)
        if traced:
            with Tracer() as tracer:
                job = run_job(workload, inputs, sampler, order, tracer)[0]
        else:
            job = run_job(workload, inputs, sampler, order)[0]
        if job.digest != reference.digest:
            errors.append("job %d%s: outputs differ from the reference job" % (
                len(jobs), " (traced)" if traced else ""))
        jobs.append(job)

    plain = [j for j in jobs if not j.traced]
    attempted = sum(len(j.op_s) for j in jobs)
    failed = sum(j.failed for j in jobs)
    _p50, _p90, samples = latency_ms(workload, plain)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": inputs.digest,
        "output_digest": output_digest,
        "jobs": len(jobs),
        "latency_samples": samples,
        "error_share": failed / attempted,
        "raw_throughput_per_s": raw_throughput(plain),
        "kernel_ms": sampler.kernel_ms(),
        "check_errors": errors,
    }
    if args.trace:
        metrics = per_layer(workload, inputs, [j for j in jobs if j.traced], plain, sampler)
        kinds = spec["per_layer"]
    else:
        metrics = end_to_end(workload, plain, attempted, failed)
        kinds = spec["end_to_end"]
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in kinds},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
