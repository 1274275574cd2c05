#!/usr/bin/env python3
"""seqforge benchmark: the `forge` CLI end to end, and each layer traced.

    python3 forgebench/run.py --workload thinker|talker|eval --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. Each workload is a closed loop: one
process runs the workload's commands one after another, each in a fresh
`forge` process (at most `--jobs 2`), and repeats the round until the time
budget is spent. Inputs are generated from the seed once and cached under
`.forgebench/cache/`.

`--trace 0` reports the end-to-end metrics of the untraced commands.
`--trace 1` reports per-layer metrics from an in-process replay of the same
calls with spans around each (see tracing.py), the per-command throughput of
untraced runs, and kernel micro-benchmarks.

Every output is checked (oracles.py), bodies of runs at `--jobs 1` and
`--jobs 2` and of every round must be identical, and at the default seed
their sha256 must match digests.json. The last stdout line is one JSON
object; the exit code is 1 when any check fails and 2 on a usage error.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import inputs
import oracles
from forge import Forge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".forgebench"
DEFAULT_SEED = 1
MIN_ROUNDS = 3
SETUP_SAMPLES = 9

# End-to-end metrics, reported by every workload with --trace 0.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "output_mb": "MB",
              "ok_frac": "frac"}
# Command throughput in records per second of command wall time.
THROUGHPUT = {"validate": "dialogues", "clean": "dialogues", "build_thinker": "dialogues",
              "build_thinker.jobs2": "dialogues", "build_talker": "dialogues",
              "build_talker.jobs2": "dialogues", "eval_cer": "pairs", "eval_wer": "pairs"}
WORKLOADS = ("thinker", "talker", "eval")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# workloads: commands and the outputs they write
# --------------------------------------------------------------------------

def _rel(path: Path) -> str:
    """Commands run in ROOT and name files relative to it, so manifests do not
    depend on where the checkout lives."""
    return str(path.relative_to(ROOT))


def commands(workload: str, inp: Path, work: Path, seed: int) -> list[tuple[str, list[str]]]:
    """(metric name, forge arguments) for one round."""
    if workload == "thinker":
        cleaned = work / "clean.jsonl"

        def build(jobs):
            return ["build-thinker", "--corpus", _rel(cleaned), "--seed", str(seed),
                    "--p-user", "0.5", "--p-assistant", "0.5",
                    "--masks", _rel(cleaned) + ".outcomes.jsonl",
                    "--out", _rel(work / f"thinker.jobs{jobs}.jsonl"), "--jobs", str(jobs)]
        return [("validate", ["validate", "--corpus", _rel(inp / "corpus.jsonl")]),
                ("clean", ["clean", "--corpus", _rel(inp / "corpus.jsonl"), "--client", "mock",
                           "--out", _rel(cleaned)]),
                ("build_thinker", build(1)),
                ("build_thinker.jobs2", build(2))]
    if workload == "talker":
        def build(jobs):
            return ["build-talker", "--corpus", _rel(inp / "corpus.jsonl"), "--mode", "dialogue",
                    "--ratio", "5:15", "--seed", str(seed),
                    "--out", _rel(work / f"talker.jobs{jobs}.jsonl"), "--jobs", str(jobs)]
        return [("build_talker", build(1)), ("build_talker.jobs2", build(2))]
    pair = ["--ref", _rel(inp / "ref.txt"), "--hyp", _rel(inp / "hyp.txt")]
    return [("eval_cer", ["eval", "cer", *pair]),
            ("eval_wer", ["eval", "wer", *pair, "--lang", "en"])]


def outputs(workload: str, work: Path) -> dict[str, tuple[Path, bool]]:
    """Output name -> (file, has a manifest header line)."""
    if workload == "thinker":
        return {"clean": (work / "clean.jsonl", False),
                "clean.outcomes": (work / "clean.jsonl.outcomes.jsonl", False),
                "build_thinker": (work / "thinker.jobs1.jsonl", True),
                "build_thinker.jobs2": (work / "thinker.jobs2.jsonl", True)}
    if workload == "talker":
        return {"build_talker": (work / "talker.jobs1.jsonl", True),
                "build_talker.jobs2": (work / "talker.jobs2.jsonl", True)}
    return {"eval_cer": (work / "eval_cer.stdout", False),
            "eval_wer": (work / "eval_wer.stdout", False)}


# --------------------------------------------------------------------------
# timed rounds
# --------------------------------------------------------------------------

def timed_rounds(forge, cmds, out_files, budget_s: float, min_rounds: int) -> dict:
    """Repeat the round while the next one is expected to fit the budget.

    Two `forge --version` cold starts are measured before each round, so
    set-up samples spread over the run like the commands do.
    """
    walls = {name: [] for name, _ in cmds}
    rss_kb, setup, digests, errors = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    while len(walls[cmds[0][0]]) < min_rounds or time.perf_counter() - start + last <= budget_s:
        setup += [forge.run("version", "--version") for _ in range(2)]
        round_start = time.perf_counter()
        for name, argv in cmds:
            run = forge.run(name, *argv)
            walls[name].append(run.wall_s)
            rss_kb.append(run.peak_rss_kb)
            if run.returncode != 0:
                errors.append(f"{name} exited {run.returncode}; see {run.stderr}")
        last = time.perf_counter() - round_start
        if errors:
            break
        digests.append({k: oracles.body_digest(path, header) for k, (path, header)
                        in out_files.items()})
    while len(setup) < SETUP_SAMPLES:
        setup.append(forge.run("version", "--version"))
    errors += [f"forge --version exited {r.returncode}" for r in setup if r.returncode]
    return {"walls": walls, "rss_kb": rss_kb, "setup": [r.wall_s for r in setup],
            "digests": digests, "errors": errors}


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def check_outputs(workload: str, inp: Path, work: Path, seed: int, digests: list[dict]):
    """Returns (ids of records with a wrong output, failure messages).

    `digests` holds each round's body digests; the last round's files are
    the ones on disk and are checked in full.
    """
    n = inputs.SIZES[workload]
    messages = []
    final = digests[-1]
    for i, round_digests in enumerate(digests[:-1]):
        for name in final:
            if round_digests[name] != final[name]:
                messages.append(f"round {i + 1} {name} body differs from the last round")
    for name in final:
        if name.endswith(".jobs2") and final[name] != final[name.removesuffix(".jobs2")]:
            messages.append(f"{name} body differs from --jobs 1")
    if seed == DEFAULT_SEED:
        pinned = json.loads((BENCH / "digests.json").read_text())[workload]
        for name, sha in pinned.items():
            if final[name][0] != sha:
                messages.append(f"{name} sha256 {final[name][0]} != pinned {sha}")

    bad: set[str] = set()
    if workload == "eval":
        expected = json.loads((inp / "expected.json").read_text())
        for mode in ("cer", "wer"):
            if not oracles.check_eval((work / f"eval_{mode}.stdout").read_text(), expected[mode]):
                messages.append(f"eval {mode} result differs from the reference Levenshtein")
                bad.update(str(i) for i in range(n))
        return bad, messages

    src_lines = oracles.read_lines(inp / "corpus.jsonl")
    docs = [json.loads(line) for line in src_lines]
    if workload == "talker":
        from seqforge.talker import parse_sequence
        bad = oracles.check_talker(oracles.read_lines(work / "talker.jobs1.jsonl")[1:], docs,
                                   parse_sequence)
    else:
        if not oracles.check_validate((work / "validate.stdout").read_text(), n):
            messages.append("validate reported rejects or violations on a valid corpus")
            bad.update(d["id"] for d in docs)
        cleaned = oracles.read_lines(work / "clean.jsonl")
        bad |= oracles.check_clean(src_lines, docs, cleaned,
                                   oracles.read_lines(work / "clean.jsonl.outcomes.jsonl"),
                                   oracles.read_lines(work / "clean.jsonl.deferred.jsonl"))
        bad |= oracles.check_thinker(oracles.read_lines(work / "thinker.jobs1.jsonl")[1:],
                                     [json.loads(line) for line in cleaned],
                                     oracles.severe_masks(docs))
    if bad:
        messages.append(f"{len(bad)} records failed the {workload} output oracle")
    return bad, messages


def run_probe(forge, inp: Path, work: Path, seed: int) -> tuple[int, int]:
    """README chain `clean` -> `build-thinker --masks` on missing_context dialogues.

    Known defect: `clean` backfills a user turn with text but no audio, and
    `build-thinker --p-user 0.5` then fails the whole command when it draws
    speech for that turn. Returns (dialogues, failed dialogues); untimed.
    """
    src, cleaned, out = inp / "probe.jsonl", work / "probe.clean.jsonl", work / "probe.thinker.jsonl"
    n = len(oracles.read_lines(src))
    clean = forge.run("probe.clean", "clean", "--corpus", _rel(src), "--client", "mock",
                      "--out", _rel(cleaned))
    if clean.returncode != 0:
        return n, n
    build = forge.run("probe.build_thinker", "build-thinker", "--corpus", _rel(cleaned),
                      "--seed", str(seed), "--p-user", "0.5", "--p-assistant", "0.5",
                      "--masks", _rel(cleaned) + ".outcomes.jsonl", "--out", _rel(out),
                      "--jobs", "1")
    if build.returncode != 0:
        return n, n
    docs = [json.loads(line) for line in oracles.read_lines(cleaned)]
    return n, len(oracles.check_thinker(oracles.read_lines(out)[1:], docs, {}))


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

def machine_facts() -> dict:
    import numpy
    from seqforge import kernels
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "kernels_backend": kernels.BACKEND}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in ((".mcells_per_s", "Mcell/s"), (".mhash_per_s", "Mhash/s"),
                         (".mops_per_s", "Mop/s"), ("_us", "us")):
        if name.endswith(suffix):
            return unit
    if name.endswith("_per_s"):
        return name.rsplit(".", 1)[1].removesuffix("_per_s") + "/s"
    if name.endswith("_s"):
        return "s"
    if name.startswith("trace."):
        return "frac"
    if name == "corpus.bytes_in":
        return "bytes"
    if name in ("kernels.backend_c", "kernels.micro.cross_backend_checked"):
        return "bool"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "seqforge" / "cli.py").is_file():
        print(f"forgebench: no seqforge sources under {ROOT / 'src'}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("forgebench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    started = time.perf_counter()
    facts = machine_facts()
    inp, gen_s = inputs.prepare(args.workload, args.seed, WORK / "cache")
    work = WORK / "runs" / args.workload  # outputs of the latest run only
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    forge = Forge(ROOT, work)
    forge.run("warmup", "--version")  # bytecode compilation of a fresh checkout
    phases = {"prepare": time.perf_counter() - started}

    cmds = commands(args.workload, inp, work, args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    rounds = timed_rounds(forge, cmds, outputs(args.workload, work), budget,
                          1 if args.trace else MIN_ROUNDS)
    phases["rounds"] = time.perf_counter() - started - sum(phases.values())
    messages = list(rounds["errors"])
    n = inputs.SIZES[args.workload]
    bad: set[str] = set()
    if not messages:
        bad, found = check_outputs(args.workload, inp, work, args.seed, rounds["digests"])
        messages += found
    if messages and not bad:
        bad = {str(i) for i in range(n)}  # a failure no single record explains
    phases["checks"] = time.perf_counter() - started - sum(phases.values())
    probe_n, probe_failed = (run_probe(forge, inp, work, args.seed)
                             if args.workload == "thinker" else (0, 0))
    phases["probe"] = time.perf_counter() - started - sum(phases.values())

    median_wall = {name: statistics.median(w) for name, w in rounds["walls"].items()}
    n_rounds = len(rounds["walls"][cmds[0][0]])
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "generation_s": gen_s,
              "rounds": n_rounds, "command_walls_s": rounds["walls"],
              "setup_samples_s": rounds["setup"],
              "probe": {"dialogues": probe_n, "failed": probe_failed},
              "digests": rounds["digests"][-1] if rounds["digests"] else None,
              "phases_s": phases, "failures": messages}

    print(f"# machine: {json.dumps(facts)}")
    print(f"# inputs: {inp.relative_to(ROOT)} "
          + ("(cached)" if gen_s is None else f"(generated in {gen_s:.2f} s)"))
    for name, walls in rounds["walls"].items():
        print(f"# {name:20s} median {median_wall[name]:7.3f} s over {len(walls)} rounds, "
              f"{n / median_wall[name]:9.1f} {THROUGHPUT[name]}/s")
    if probe_n:
        print(f"# probe clean -> build-thinker: {probe_failed} of {probe_n} dialogues failed")
    for message in messages:
        print(f"# FAILED: {message}")

    if args.trace:
        metrics, kernels_agree = trace_metrics(args, inp, work, median_wall, record)
        if not kernels_agree:
            messages.append("compiled and pure-Python kernels disagree")
    else:
        out_bytes = sum(size for _, size in rounds["digests"][-1].values()) \
            if rounds["digests"] else 0
        metrics = {
            "setup_s": statistics.median(rounds["setup"]),
            "wall_s": sum(median_wall.values()),
            "peak_rss_mb": max(rounds["rss_kb"]) / 1024,
            "output_mb": out_bytes / 1e6,
            "ok_frac": 1 - (len(bad) + probe_failed) / (n + probe_n),
        }
    record["metrics"] = metrics
    phases["trace"] = time.perf_counter() - started - sum(phases.values())
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(json.dumps({"correct": not messages, "attempted": n * n_rounds,
                      "failed": len(bad) * n_rounds,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 1 if messages else 0


def trace_metrics(args, inp: Path, work: Path, median_wall: dict,
                  record: dict) -> tuple[dict, bool]:
    """Per-layer metrics, and whether the kernel backends agreed."""
    import tracing
    n = inputs.SIZES[args.workload]
    out = {f"{name}.{unit}_per_s": (n / median_wall[name] if name in median_wall else 0.0)
           for name, unit in THROUGHPUT.items()}

    # A warm-up replay, then spans on, then spans off.
    elapsed = []
    for enabled in (False, True, False):
        tr = tracing.Tracer(enabled)
        start = time.perf_counter()
        tracing.replay_workload(tr, args.workload, inp, work, args.seed)
        elapsed.append(time.perf_counter() - start)
        if enabled:
            traced = tr
    out.update(tracing.reduce_spans(traced, THROUGHPUT, median_wall))
    out["trace.overhead_frac"] = elapsed[1] / elapsed[2] - 1
    tracing.write_spans(traced, work / "spans.jsonl")
    micro, agree = tracing.kernel_micro(args.seed)
    out.update(micro)
    record["replay_s"] = elapsed
    return out, agree


if __name__ == "__main__":
    sys.exit(main())
