"""Traced in-process replay of each workload's commands, layer by layer.

The replay makes the same calls into the program's public functions that
the CLI makes, in the same order and on the same files, and records a span
around each call: name, start, end, parent (the command span) and record
id. Spans stay in memory, are written out when the run ends, and are
reduced to per-layer self time. Nothing inside the program is instrumented.

Two passes are replays of calls nested inside other layers and therefore
sit under their own spans, outside every command: `kernels.edit_ops` on the
token ids that `eval cer`/`eval wer` score, and `seeding.derive_seed` on the
per-dialogue derivations that thinker and talker compilation make.
"""
import json
import random
import time
from collections import defaultdict
from pathlib import Path

from seqforge import cleaning, corpus, kernels, manifest, metrics, seeding
from seqforge import talker as talker_mod
from seqforge import thinker as thinker_mod

clock = time.perf_counter_ns

# Layer calls made once per record; their per-call distribution is reported.
PER_RECORD = ("corpus.decode", "corpus.parse", "corpus.serialize", "cleaning.clean",
              "cleaning.outcome_encode", "thinker.interleave", "thinker.serialize",
              "talker.select_reference", "talker.assemble", "talker.serialize",
              "metrics.normalize", "metrics.score", "kernels.edit_ops")
LAYERS = ("corpus.read", "corpus.decode", "corpus.parse", "corpus.validate",
          "corpus.serialize", "cleaning.clean", "cleaning.outcome_encode",
          "thinker.interleave", "thinker.serialize", "talker.index",
          "talker.select_reference", "talker.assemble", "talker.serialize",
          "metrics.normalize", "metrics.score", "kernels.edit_ops",
          "seeding.derive_seed", "manifest.file_digest", "io.read", "io.write")
COUNTS = ("corpus.dialogues", "corpus.bytes_in", "corpus.rejects", "corpus.violations",
          *(f"cleaning.branch.{b}" for b in ("logic_correction", "information_preservation",
                                             "context_completion", "passthrough")),
          "cleaning.client_calls", "cleaning.client_failures", "cleaning.deferred",
          "thinker.elements", "thinker.speech_elements", "thinker.loss_targets",
          "thinker.masked_segments", "talker.ref_candidates_scanned", "talker.tokens_out",
          "talker.skipped_no_reference", "metrics.ref_tokens", "kernels.edit_ops.cells")


class Tracer:
    """Span recorder; when disabled, `call` is a plain call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []  # (name, start_ns, end_ns, parent index, record id)
        self.parent: int | None = None
        self.counts: dict[str, int] = defaultdict(int)

    def call(self, name, record, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, clock(), self.parent, record))

    def command(self, name: str):
        return _CommandSpan(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n


class _CommandSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr.parent = self.index
        self.start = clock()

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index] = ("cmd." + self.name, self.start, clock(), None, None)
        tr.parent = None


class _CountingClient:
    """Counts the calls the cleaning pipeline makes into a client."""

    def __init__(self, inner, tracer: Tracer):
        self._inner, self._tracer = inner, tracer

    def __getattr__(self, name):
        method = getattr(self._inner, name)

        def counted(*args, **kwargs):
            self._tracer.count("cleaning.client_calls")
            try:
                return method(*args, **kwargs)
            except cleaning.ClientError:
                self._tracer.count("cleaning.client_failures")
                raise
        return counted


# --------------------------------------------------------------------------
# replays, one per CLI command
# --------------------------------------------------------------------------

def _read_text(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.readlines()


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def _encode_outcome(outcome) -> str:
    return json.dumps(cleaning.outcome_to_dict(outcome), ensure_ascii=False,
                      separators=(",", ":"))


def _load_masks(path: Path) -> dict[str, list]:
    masks = {}
    for line in _read_text(path):
        doc = json.loads(line)
        if doc["masked_spans"]:
            masks[doc["dialogue_id"]] = [(ti, tuple(rng)) for ti, rng in doc["masked_spans"]]
    return masks


def _read_corpus(tr: Tracer, path: Path) -> list:
    lines = tr.call("corpus.read", None, _read_text, path)
    tr.count("corpus.bytes_in", path.stat().st_size)
    dialogues = []
    for n, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped:
            continue
        doc = tr.call("corpus.decode", n, json.loads, stripped)
        try:
            dialogues.append(tr.call("corpus.parse", n, corpus.parse_dialogue, doc))
        except corpus.SchemaError:
            tr.count("corpus.rejects")
    tr.count("corpus.dialogues", len(dialogues))
    return dialogues


def replay_validate(tr: Tracer, src: Path) -> None:
    with tr.command("validate"):
        dialogues = _read_corpus(tr, src)
        report = tr.call("corpus.validate", None, corpus.validate_corpus, dialogues)
        tr.count("corpus.violations", len(report.violations))


def replay_clean(tr: Tracer, src: Path, out: Path) -> None:
    with tr.command("clean"):
        dialogues = _read_corpus(tr, src)
        corrector = _CountingClient(cleaning.MockCorrector(), tr)
        synth = _CountingClient(cleaning.MockSynth(), tr)
        corpus_lines, outcome_lines = [], []
        for d in dialogues:
            outcome = tr.call("cleaning.clean", d.id, cleaning.clean_dialogue, d, corrector,
                              synth, seed=0, retries=cleaning.DEFAULT_RETRIES)
            tr.count(f"cleaning.branch.{outcome.branch}")
            tr.count("cleaning.deferred", outcome.status == "deferred")
            corpus_lines.append(tr.call("corpus.serialize", d.id, corpus.serialize_dialogue,
                                        outcome.dialogue))
            outcome_lines.append(tr.call("cleaning.outcome_encode", d.id, _encode_outcome,
                                         outcome))
        tr.call("io.write", None, _write_lines, out, corpus_lines)
        tr.call("io.write", None, _write_lines, Path(f"{out}.outcomes.jsonl"), outcome_lines)
        tr.call("manifest.file_digest", None, manifest.file_digest, src)


def replay_build_thinker(tr: Tracer, src: Path, masks_path: Path, seed: int,
                         out: Path) -> None:
    with tr.command("build_thinker"):
        dialogues = _read_corpus(tr, src)
        masks = tr.call("io.read", None, _load_masks, masks_path)
        policy = thinker_mod.InterleavePolicy(p_user_speech=0.5, p_assistant_segment_speech=0.5)
        lines = []
        for d in dialogues:
            seq = tr.call("thinker.interleave", d.id, thinker_mod.interleave_dialogue, d,
                          policy, seed, masked_spans=masks.get(d.id))
            lines.append(tr.call("thinker.serialize", d.id, thinker_mod.serialize_sequence, seq))
            for e in seq.elements:
                tr.count("thinker.elements")
                tr.count("thinker.speech_elements", e.modality == thinker_mod.SPEECH)
                tr.count("thinker.loss_targets", e.loss_target)
                tr.count("thinker.masked_segments", e.role == "assistant"
                         and e.modality == thinker_mod.TEXT and not e.loss_target)
        tr.call("manifest.file_digest", None, manifest.file_digest, src)
        tr.call("io.write", None, _write_lines, out, lines)


def _talker_speaker(d) -> str:
    return next((t.speaker_id for t in d.turns if t.role == "assistant"), d.turns[0].speaker_id)


def replay_build_talker(tr: Tracer, src: Path, seed: int, out: Path) -> None:
    with tr.command("build_talker"):
        dialogues = _read_corpus(tr, src)
        index = tr.call("talker.index", None, talker_mod.build_reference_index, dialogues)
        ratio = talker_mod.StreamRatio.parse("5:15")
        lines = []
        for d in dialogues:
            speaker = _talker_speaker(d)
            # Pool size the reference draw considers: every segment of the speaker.
            tr.count("talker.ref_candidates_scanned", len(index.get(speaker, ())))
            try:
                ref = tr.call("talker.select_reference", d.id, talker_mod.select_reference,
                              speaker, index, d.id, seed)
            except talker_mod.NoReferenceError:
                tr.count("talker.skipped_no_reference")
                continue
            seq = tr.call("talker.assemble", d.id, talker_mod.assemble, d, "dialogue", ratio,
                          seed, ref)
            tr.count("talker.tokens_out", len(seq.tokens))
            lines.append(tr.call("talker.serialize", d.id, talker_mod.serialize_sequence, seq))
        tr.call("manifest.file_digest", None, manifest.file_digest, src)
        tr.call("io.write", None, _write_lines, out, lines)


def _read_pairs(ref: Path, hyp: Path) -> list[tuple[str, str]]:
    return list(zip((line.rstrip("\n") for line in _read_text(ref)),
                    (line.rstrip("\n") for line in _read_text(hyp))))


def replay_eval(tr: Tracer, mode: str, ref: Path, hyp: Path) -> list[tuple[str, str]]:
    """Returns the normalized pairs, for the kernel replay."""
    normalized = []
    with tr.command("eval_" + mode):
        pairs = tr.call("io.read", None, _read_pairs, ref, hyp)
        for n, (r, h) in enumerate(pairs):
            rn = tr.call("metrics.normalize", n, metrics.normalize_text, r)
            hn = tr.call("metrics.normalize", n, metrics.normalize_text, h)
            if mode == "cer":
                ops = tr.call("metrics.score", n, metrics.cer, rn, hn, normalize=False)
            else:
                ops = tr.call("metrics.score", n, metrics.wer, rn, hn, "en", normalize=False)
            tr.count("metrics.ref_tokens", ops.reference_length)
            normalized.append((rn, hn))
    return normalized


def replay_edit_ops(tr: Tracer, cer_pairs, wer_pairs) -> None:
    """The edit_ops calls `eval cer` (characters) and `eval wer` (words) make."""
    jobs = [([ord(c) for c in r], [ord(c) for c in h]) for r, h in cer_pairs]
    for r, h in wer_pairs:
        ids: dict[str, int] = {}
        jobs.append(([ids.setdefault(w, len(ids)) for w in r.split()],
                     [ids.setdefault(w, len(ids)) for w in h.split()]))
    with tr.command("kernels_replay"):
        for n, (a, b) in enumerate(jobs):
            tr.call("kernels.edit_ops", n, kernels.edit_ops, a, b)
            tr.count("kernels.edit_ops.cells", len(a) * len(b))


def _derive_all(derivations) -> int:
    acc = 0
    for parts in derivations:
        acc ^= seeding.derive_seed(*parts)
    return acc


def replay_derive_seed(tr: Tracer, derivations: list[tuple]) -> None:
    with tr.command("seeding_replay"):
        tr.call("seeding.derive_seed", None, _derive_all, derivations)


# --------------------------------------------------------------------------
# workload replays and reduction
# --------------------------------------------------------------------------

def replay_workload(tr: Tracer, workload: str, inputs: Path, work: Path, seed: int) -> None:
    if workload == "thinker":
        src, cleaned = inputs / "corpus.jsonl", work / "replay-clean.jsonl"
        replay_validate(tr, src)
        replay_clean(tr, src, cleaned)
        replay_build_thinker(tr, cleaned, Path(f"{cleaned}.outcomes.jsonl"), seed,
                             work / "replay-thinker.jsonl")
        ids = [json.loads(line)["id"] for line in _read_text(src)]
        replay_derive_seed(tr, [(seed, i, "thinker") for i in ids])
    elif workload == "talker":
        src = inputs / "corpus.jsonl"
        replay_build_talker(tr, src, seed, work / "replay-talker.jsonl")
        derivations = []
        for line in _read_text(src):
            doc = json.loads(line)
            speaker = next(t["speaker_id"] for t in doc["turns"] if t["role"] == "assistant")
            derivations += [(seed, speaker, doc["id"], "reference"), (seed, doc["id"], "talker")]
        replay_derive_seed(tr, derivations)
    else:
        ref, hyp = inputs / "ref.txt", inputs / "hyp.txt"
        cer_pairs = replay_eval(tr, "cer", ref, hyp)
        wer_pairs = replay_eval(tr, "wer", ref, hyp)
        replay_edit_ops(tr, cer_pairs, wer_pairs)


def _percentile(sorted_values: list[int], q: float) -> int:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def reduce_spans(tr: Tracer, commands, cli_wall: dict[str, float]) -> dict[str, float]:
    """Per-layer self time, per-call p50/p99, counts, and coverage of each of
    `commands` (metric names; `cli_wall` holds the untraced wall times)."""
    child_ns: dict[int, int] = defaultdict(int)
    for name, start, end, parent, _ in tr.spans:
        if parent is not None:
            child_ns[parent] += end - start
    self_ns: dict[str, int] = defaultdict(int)
    under_command: dict[str, int] = defaultdict(int)
    per_call: dict[str, list[int]] = defaultdict(list)
    for i, (name, start, end, parent, _) in enumerate(tr.spans):
        own = end - start - child_ns[i]
        self_ns[name] += own
        if parent is not None:
            per_call[name].append(end - start)
            under_command[tr.spans[parent][0].removeprefix("cmd.")] += own
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}_s"] = self_ns[layer] / 1e9
    for layer in PER_RECORD:
        calls = sorted(per_call[layer])
        out[f"{layer}.p50_us"] = _percentile(calls, 0.50) / 1e3 if calls else 0.0
        out[f"{layer}.p99_us"] = _percentile(calls, 0.99) / 1e3 if calls else 0.0
        out[f"{layer}.n"] = len(calls)
    for name in COUNTS:
        out[name] = tr.counts[name]
    edit_s = self_ns["kernels.edit_ops"] / 1e9
    out["kernels.edit_ops.mcells_per_s"] = (tr.counts["kernels.edit_ops.cells"] / edit_s / 1e6
                                            if edit_s else 0.0)
    for command in commands:
        # --jobs 2 runs the same calls as --jobs 1, spread over workers.
        replayed = under_command[command.removesuffix(".jobs2")]
        wall = cli_wall.get(command)
        out[f"trace.coverage.{command}"] = replayed / 1e9 / wall if wall else 0.0
    return out


def write_spans(tr: Tracer, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, record in tr.spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "record": record}))
            fh.write("\n")


# --------------------------------------------------------------------------
# kernel micro-benchmarks (the measurements of benchmarks/bench_kernels.py)
# --------------------------------------------------------------------------

def kernel_micro(seed: int) -> tuple[dict[str, float], bool]:
    """Rates of the selected backend; cross-checks backends when both import.

    Returns the metrics and whether every cross-backend comparison agreed.
    """
    rng = random.Random(f"forgebench/kernels/{seed}")
    pairs = [([rng.randrange(30) for _ in range(80)], [rng.randrange(30) for _ in range(80)])
             for _ in range(150)]
    blobs = [rng.randbytes(32) for _ in range(20000)]
    n_steps = 100000

    def run_edit(impl):
        return sum(sum(impl.edit_ops(a, b)) for a, b in pairs)

    def run_hash(impl):
        acc = 0
        for blob in blobs:
            acc ^= impl.hash_bytes64(blob, 7)
        return acc

    def run_next(impl):
        state = acc = 0
        for _ in range(n_steps):
            state, out = impl.next_u64(state)
            acc ^= out
        return acc

    def timed(fn, impl):
        start = time.perf_counter()
        result = fn(impl)
        return time.perf_counter() - start, result

    edit_t, edit_r = timed(run_edit, kernels)
    hash_t, hash_r = timed(run_hash, kernels)
    next_t, next_r = timed(run_next, kernels)
    metrics_out = {
        "kernels.micro.edit_ops.mcells_per_s": len(pairs) * 80 * 80 / edit_t / 1e6,
        "kernels.micro.hash_bytes64.mhash_per_s": len(blobs) / hash_t / 1e6,
        "kernels.micro.next_u64.mops_per_s": n_steps / next_t / 1e6,
        "kernels.backend_c": 1 if kernels.BACKEND == "c" else 0,
        "kernels.micro.cross_backend_checked": 0,
    }
    try:
        from seqforge import _ckernels, _pykernels
    except ImportError:
        return metrics_out, True
    agree = all(fn(_pykernels) == fn(_ckernels) for fn in (run_edit, run_hash, run_next))
    metrics_out["kernels.micro.cross_backend_checked"] = 1
    return metrics_out, agree
