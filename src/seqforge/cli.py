"""forge: command-line entry point.

Exit codes: 0 success, 1 validation/compile failures, 2 usage errors, 130
interrupted. Every mutating command writes a reproducibility manifest
(embedded as a header line in sequence outputs, plus a .manifest.json
sidecar). All randomness flows from --seed; worker count never changes
output bytes.
"""
import argparse
import contextlib
import json
import os
import sys

from seqforge import LANGUAGES, __version__

# Each command imports the modules only it needs, so no command pays for
# loading the others': eval, plan, templates and loss-check never load the
# corpus data model, the corpus commands' driver or manifests, only loss-check
# loads numpy, only --jobs > 1 loads pickle and signal, and --version loads no
# seqforge module but this one.


class UsageError(Exception):
    pass


def _jobs(flag: int | None) -> int:
    """--jobs, else FORGE_JOBS, else 1; anything but a positive integer is a usage error."""
    if flag is not None:
        name, raw = "--jobs", flag
    else:
        name, raw = "FORGE_JOBS", os.environ.get("FORGE_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise UsageError(f"{name} must be a positive integer, got {raw!r}")
    return jobs


def _check_seed(seed: int) -> None:
    """A master seed is 64 bits; seeding.derive_seed would mask any other value
    to one, so two --seed values would compile the same bytes."""
    if not 0 <= seed < 1 << 64:
        raise UsageError(f"--seed must be in [0, 2**64), got {seed}")


@contextlib.contextmanager
def _side_input(flag: str, path):
    """Report a side-input file that is not UTF-8, JSON that reporting.decode
    refuses or of the wrong shape (a SchemaError) as a usage error naming it."""
    from seqforge.reporting import DecodeError, SchemaError

    try:
        yield
    except UnicodeDecodeError as exc:
        raise UsageError(f"{flag} {path} is not valid UTF-8 (byte {exc.start})") from None
    except DecodeError as exc:
        raise UsageError(f"{flag} {path} is not valid JSON: {exc}") from None
    except SchemaError as exc:
        raise UsageError(f"{flag} {path}: {exc}") from None


# clean --client http's --config holds only the services' deployment settings;
# every build option is a flag. A key that names a flag's setting is refused
# with a pointer to that flag.
_URL_KEYS = ("corrector_url", "synth_url")
_HTTP_CONFIG_KEYS = (*_URL_KEYS, "timeout_s")
_KEYS_NOW_FLAGS = {"client": "--client", "retries": "--retries"}


def _service_url(url: str) -> bool:
    """Whether urlopen can send a request to url, so that its failures are
    deferrals: ASCII (http.client encodes the request in it), http or https,
    and a host part that parses."""
    import urllib.parse

    try:
        urllib.parse.urlsplit(url)
    except ValueError:  # an unclosed IPv6 bracket
        return False
    return url.isascii() and url.startswith(("http://", "https://"))


def _http_config(path) -> tuple[str, str, float]:
    """(corrector URL, synth URL, timeout in seconds) from the --config file;
    anything else in it, or a value of the wrong type, is a usage error."""
    from threading import TIMEOUT_MAX

    from seqforge.cleaning import DEFAULT_TIMEOUT_S
    from seqforge.reporting import decode

    if path is None:
        cfg = {}
    else:
        with _side_input("--config", path), open(path, encoding="utf-8") as fh:
            cfg = decode(fh.read())
    if not isinstance(cfg, dict):
        raise UsageError(f"--config {path} must hold a JSON object")
    for key in cfg:
        if key not in _HTTP_CONFIG_KEYS:
            flag = _KEYS_NOW_FLAGS.get(key)
            raise UsageError(f"--config key {key!r} is not one of {', '.join(_HTTP_CONFIG_KEYS)}"
                             + (f"; pass {flag} instead" if flag else ""))
    missing = [key for key in _URL_KEYS if key not in cfg]
    if missing:
        raise UsageError(f"--client http needs {' and '.join(missing)} in --config")
    for key in _URL_KEYS:
        if type(cfg[key]) is not str:
            raise UsageError(f"--config field {key!r} must be a string, got {cfg[key]!r}")
        if not _service_url(cfg[key]):
            raise UsageError(f"--config field {key!r} must be an http:// or https:// URL "
                             f"in ASCII, got {cfg[key]!r}")
    timeout = cfg.get("timeout_s", DEFAULT_TIMEOUT_S)
    # A bool is not a number here; the upper bound also refuses NaN, infinity
    # and an integer too large for a float.
    if type(timeout) not in (int, float) or not 0 < timeout <= sys.float_info.max:
        raise UsageError(f"--config field 'timeout_s' must be a finite number > 0, "
                         f"got {timeout!r}")
    if timeout > TIMEOUT_MAX:  # socket.settimeout raises OverflowError above it
        raise UsageError(f"--config field 'timeout_s' must be at most {TIMEOUT_MAX} "
                         f"seconds, got {timeout!r}")
    return cfg["corrector_url"], cfg["synth_url"], float(timeout)


def _print_report(doc) -> str:
    """Print a report as indented JSON; return its text."""
    text = json.dumps(doc, ensure_ascii=False, indent=2)
    print(text)
    return text


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def _parsed_record(summary, task):
    """A corpus line's Reject, or (dialogue id, no lines, summary(line number, dialogue))."""
    from seqforge import corpus

    dialogue = corpus.parse_line(*task)
    if isinstance(dialogue, corpus.Reject):
        return dialogue
    return dialogue.id, (), summary(task[0], dialogue)


def cmd_validate(args) -> int:
    from seqforge import corpus, driver

    rows, rejects, _ = driver.map_records(
        _parsed_record, lambda _, d: corpus.validate_dialogue(d).violations,
        corpus.iter_lines(args.corpus), 1, driver.Chunks())
    # A path starts with the dialogue's id, or its position among those kept.
    violations = [{"path": f"{did or n}.{v.path}", "message": v.message}
                  for n, (did, found) in enumerate(rows) for v in found]
    _print_report({
        "dialogues": len(rows),
        "rejects": [{"line": r.line_number, "reason": r.reason} for r in rejects],
        "violations": violations,
    })
    return 0 if not rejects and not violations else 1


# --------------------------------------------------------------------------
# build-thinker
# --------------------------------------------------------------------------

def _thinker_record(state, task):
    from seqforge import corpus
    from seqforge import thinker as thinker_mod
    from seqforge.driver import Failed

    policy, seed, masks = state
    dialogue = corpus.parse_line(*task)
    if isinstance(dialogue, corpus.Reject):
        return dialogue
    try:
        seq = thinker_mod.interleave_dialogue(dialogue, policy, seed,
                                              masked_spans=masks.get(dialogue.id))
    except thinker_mod.CompileError as exc:
        return Failed(f"compile error: {exc}")
    return (dialogue.id, (thinker_mod.serialize_sequence(seq),), seq.n_elements,
            seq.n_loss_targets)


def _load_masks(path) -> dict[str, list]:
    """dialogue id -> masked spans, from the outcome lines of `forge clean`."""
    from seqforge import corpus
    from seqforge.reporting import JSON_WHITESPACE, DecodeError, SchemaError, decode

    masks: dict[str, list] = {}
    # newline="\n": a line ends at LF only, as a corpus line does (reporting.raw_lines)
    with _side_input("--masks", path), open(path, encoding="utf-8", newline="\n") as fh:
        text = fh.read()
        start = 0
        for line_no, line in enumerate(text.split("\n"), 1):
            if line.strip(JSON_WHITESPACE):
                try:
                    doc = decode(line)
                except DecodeError as exc:  # report the position in the file
                    raise (exc if exc.pos is None else
                           DecodeError(exc.msg, text, start + exc.pos)) from None
                if type(doc) is not dict:
                    raise SchemaError(f"line {line_no}: expected a cleaning outcome object")
                spans = doc.get("masked_spans")
                if spans:
                    try:  # a masked span has the shape of a quality flag's span
                        if type(doc.get("dialogue_id")) is not str or type(spans) is not list:
                            raise SchemaError
                        masks[doc["dialogue_id"]] = list(map(corpus._parse_flag_span, spans))
                    except SchemaError:
                        raise SchemaError(f"line {line_no}: expected a string dialogue_id and "
                                          f"masked_spans [[turn, [start, end]], ...]") from None
            start += len(line) + 1
    return masks


def cmd_build_thinker(args) -> int:
    from seqforge import corpus, driver
    from seqforge import thinker as thinker_mod
    from seqforge.manifest import file_digest

    _check_seed(args.seed)
    try:
        policy = thinker_mod.InterleavePolicy(
            p_user_speech=args.p_user, p_assistant_segment_speech=args.p_assistant)
    except ValueError as exc:
        raise UsageError(f"--p-user/--p-assistant: {exc}") from None
    masks = _load_masks(args.masks) if args.masks else {}
    inputs = {args.corpus: file_digest(args.corpus)}
    if args.masks:
        inputs[args.masks] = file_digest(args.masks)
    with driver.Chunks(args.out) as chunks:
        rows = driver.compile_records(_thinker_record, (policy, args.seed, masks),
                                      corpus.iter_lines(args.corpus), args.jobs, chunks)
        if rows is None:
            return 1
        driver.publish(args, {"policy": policy.to_json_dict(), "masks": bool(args.masks)},
                 {"dialogues": len(rows), "sequences": len(rows),
                  "elements": sum(n for n, _ in rows),
                  "loss_targets": sum(n for _, n in rows)}, chunks, header=True,
                 inputs=inputs)
    print(f"wrote {len(rows)} sequences to {args.out}")
    return 0


# --------------------------------------------------------------------------
# build-talker
# --------------------------------------------------------------------------

def _talker_record(state, task):
    """(id, (line,), None) for a compiled dialogue, (id, (None,), reason) for a skipped one."""
    from seqforge import talker as talker_mod
    from seqforge.driver import Failed

    mode, ratio, seed, index = state
    dialogue = task[1]
    try:
        speaker = talker_mod.reference_speaker(dialogue, mode)
        ref = talker_mod.select_reference(speaker, index, dialogue.id, seed)
        seq = talker_mod.assemble(dialogue, mode, ratio, seed, ref)
    except talker_mod.NoReferenceError as exc:
        return dialogue.id, (None,), str(exc)
    except talker_mod.AssembleError as exc:
        return Failed(f"assemble error: {exc}")
    return dialogue.id, (talker_mod.serialize_sequence(seq),), None


def cmd_build_talker(args) -> int:
    from seqforge import corpus, driver
    from seqforge import talker as talker_mod
    from seqforge.manifest import file_digest

    _check_seed(args.seed)
    if args.mode not in talker_mod.MODES:
        raise UsageError(f"unknown mode {args.mode!r}")
    try:
        ratio = talker_mod.StreamRatio.parse(args.ratio)
    except ValueError:
        raise UsageError(f"--ratio must be N:M with N, M >= 1, got {args.ratio!r}") from None
    inputs = {args.corpus: file_digest(args.corpus)}
    # The reference index spans the corpus, so every dialogue is held before
    # the first one is assembled.
    held = driver.compile_records(_parsed_record, lambda *task: task,
                                  corpus.iter_lines(args.corpus), 1, driver.Chunks())
    if held is None:
        return 1
    tasks = [task for task, in held]
    index = talker_mod.build_reference_index([dialogue for _, dialogue in tasks])
    with driver.Chunks(args.out) as chunks:
        rows = driver.compile_records(_talker_record, (args.mode, ratio, args.seed, index),
                                      tasks, args.jobs, chunks)
        if rows is None:
            return 1
        skipped = [reason for reason, in rows if reason is not None]
        for reason in skipped:
            print(f"skip: {reason}", file=sys.stderr)
        n_lines = len(rows) - len(skipped)
        driver.publish(args, {"mode": args.mode, "ratio": str(ratio)},
                 {"dialogues": len(rows), "sequences": n_lines,
                  "skipped_no_reference": len(skipped)}, chunks, header=True, inputs=inputs)
    print(f"wrote {n_lines} sequences to {args.out} ({len(skipped)} skipped)")
    return 0


# --------------------------------------------------------------------------
# clean
# --------------------------------------------------------------------------

def _make_clients(args):
    from seqforge import cleaning

    if args.client == "http":
        corrector_url, synth_url, timeout = _http_config(args.config)
        return (cleaning.HttpCorrectorClient(corrector_url, timeout),
                cleaning.HttpSynthClient(synth_url, timeout))
    if args.config is not None:
        raise UsageError("--config holds the HTTP services' settings; it needs --client http")
    return cleaning.MockCorrector(), cleaning.MockSynth()


def _clean_record(state, task):
    from seqforge import cleaning, corpus

    corrector, synth, retries = state
    dialogue = corpus.parse_line(*task)
    if isinstance(dialogue, corpus.Reject):
        return dialogue
    # Only the flag checks: clean exists to repair dialogues that full validation
    # rejects, such as one that opens on an assistant turn.
    violations = corpus.validate_flags(dialogue).violations
    if violations:
        return [corpus.Reject(task[0], str(v)) for v in violations]
    outcome = cleaning.clean_dialogue(dialogue, corrector, synth, retries=retries)
    outcome_line = cleaning.outcome_line(outcome)
    deferred = outcome.status == "deferred"
    return (dialogue.id, (corpus.serialize_dialogue(outcome.dialogue), outcome_line,
                          outcome_line if deferred else None), deferred)


def cmd_clean(args) -> int:
    from seqforge import cleaning, corpus, driver
    from seqforge.manifest import file_digest

    if args.retries is None:
        args.retries = cleaning.DEFAULT_RETRIES
    if args.retries < 1:
        raise UsageError(f"--retries must be >= 1, got {args.retries}")
    corrector, synth = _make_clients(args)
    inputs = {args.corpus: file_digest(args.corpus)}
    with driver.Chunks(args.out, f"{args.out}.outcomes.jsonl",
                       f"{args.out}.deferred.jsonl") as chunks:
        rows = driver.compile_records(_clean_record, (corrector, synth, args.retries),
                                      corpus.iter_lines(args.corpus), args.jobs, chunks)
        if rows is None:
            return 1
        deferred = sum(deferred for deferred, in rows)
        driver.publish(args, {"client": args.client, "retries": args.retries},
                 {"dialogues": len(rows), "deferred": deferred}, chunks, header=False,
                 inputs=inputs)
    print(f"cleaned {len(rows)} dialogues -> {args.out} ({deferred} deferred)")
    return 0


# --------------------------------------------------------------------------
# plan
# --------------------------------------------------------------------------

def cmd_plan(args) -> int:
    from seqforge import schedule
    from seqforge.reporting import SchemaError, decode

    plan = schedule.build_default_plan()
    if args.plan_cmd == "show":
        _print_report(schedule.plan_to_dict(plan))
        return 0
    if args.plan_cmd == "directive":
        try:
            d = schedule.directive_at(plan, args.stage, args.step, args.total)
        except (KeyError, ValueError) as exc:  # unknown stage, step out of range
            raise UsageError(exc.args[0]) from None
        _print_report({
            "stage": d.stage_id, "step": d.step, "phase": d.phase_index,
            "trainable": sorted(d.trainable), "lr": d.lr,
            "budget_remaining": d.budget_remaining,
        })
        return 0
    with _side_input("--stats", args.stats), open(args.stats, encoding="utf-8") as fh:
        doc = decode(fh.read())
        # a `forge stats` report, or its budget_stats object alone
        stats = doc.get("budget_stats", doc) if type(doc) is dict else doc
        if type(stats) is not dict:
            raise SchemaError("expected a JSON object of budget stats")
        rows = schedule.budget_check(plan, stats)
    _print_report([row.__dict__ for row in rows])
    return 0 if all(r.status in ("pass", "missing", "unit_mismatch") for r in rows) else 1


# --------------------------------------------------------------------------
# loss-check
# --------------------------------------------------------------------------

def cmd_loss_check(args) -> int:
    # No cases, a zero or infinite step, or a bound nothing meets verify nothing.
    if args.cases < 1:
        raise UsageError(f"--cases must be >= 1, got {args.cases}")
    if args.seed < 0:  # numpy takes no negative seed
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    for flag, value in (("--epsilon", args.epsilon), ("--tolerance", args.tolerance)):
        if not 0 < value < float("inf"):
            raise UsageError(f"{flag} must be finite and > 0, got {value}")

    import numpy as np  # only this command needs numpy; the data path starts faster without

    from seqforge import losses

    rng = np.random.default_rng(args.seed)
    worst_ce = 0.0
    worst_kl = 0.0
    for _ in range(args.cases):
        n = int(rng.integers(2, 6))
        vocab = int(rng.integers(4, 9))
        logits = rng.normal(0.0, 0.7, size=(n, vocab))
        targets = rng.integers(0, vocab, size=n)
        mask = rng.random(n) < 0.7
        worst_ce = max(worst_ce, losses.finite_diff_check(
            lambda m: losses.masked_ce(m, targets, mask), logits, args.epsilon))
        for t in (0.5, 1.0, 2.0):
            # logit spread scales with T to keep the softened distributions
            # equally conditioned across temperatures
            teacher = rng.normal(0.0, 0.7 * t, size=(n, vocab))
            student = rng.normal(0.0, 0.7 * t, size=(n, vocab))
            worst_kl = max(worst_kl, losses.finite_diff_check(
                lambda m, tt=t: losses.kl_distill(teacher, m, tt, mask),
                student, args.epsilon))
    print(f"masked_ce  max relative gradient error: {worst_ce:.3e}")
    print(f"kl_distill max relative gradient error: {worst_kl:.3e}")
    ok = worst_ce < args.tolerance and worst_kl < args.tolerance
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def _read_lines(path) -> list[str]:
    from seqforge.reporting import raw_lines

    # A line ends at LF; the CR of a CRLF ending is not part of its text.
    return [line.removesuffix("\n").removesuffix("\r") for _, line in raw_lines(path)]


def cmd_eval(args) -> int:
    from seqforge import metrics

    if args.eval_cmd == "wer" and args.lang not in LANGUAGES:
        raise UsageError(f"--lang must be one of {', '.join(LANGUAGES)}; got {args.lang!r}")
    if args.eval_cmd in ("cer", "wer"):
        refs = _read_lines(args.ref)
        hyps = _read_lines(args.hyp)
        if len(refs) != len(hyps):
            print(f"forge: error: ref has {len(refs)} lines but hyp has {len(hyps)}",
                  file=sys.stderr)
            return 1
        # cer scores every character whatever the language, so it takes no --lang
        rate = metrics.corpus_error_rate(list(zip(refs, hyps)), mode=args.eval_cmd,
                                         lang=getattr(args, "lang", "en"),
                                         normalize=not args.raw)
        _print_report({
            "metric": args.eval_cmd, "utterances": rate.utterances,
            "errors": rate.errors, "reference_length": rate.reference_length,
            "rate": rate.rate,
        })
        return 0
    responses = _read_lines(args.responses)
    if not responses:
        print(f"forge: error: {args.responses} has no responses", file=sys.stderr)
        return 1
    acc = metrics.only_yes_accuracy(responses)
    passes = round(acc * len(responses))
    _print_report({"metric": "only_yes", "total": len(responses),
                   "passes": passes, "accuracy": acc})
    return 0


# --------------------------------------------------------------------------
# stats
# --------------------------------------------------------------------------

def cmd_stats(args) -> int:
    from seqforge import corpus, driver
    from seqforge.manifest import file_digest

    inputs = {args.corpus: file_digest(args.corpus)} if args.out else None
    rows, rejects, _ = driver.map_records(
        _parsed_record, lambda _, d: (d.language, d.source, [f.kind for f in d.quality_flags],
                                      [t.audio.duration_s for t in d.turns if t.audio]),
        corpus.iter_lines(args.corpus), 1, driver.Chunks())
    per_source_seconds: dict[str, float] = {}
    per_language: dict[str, int] = {}
    flag_histogram: dict[str, int] = {}
    total_seconds = 0.0
    # Summed turn by turn in corpus order, so the totals' float bytes are fixed.
    for _, (language, source, kinds, durations) in rows:
        per_language[language] = per_language.get(language, 0) + 1
        for kind in kinds:
            flag_histogram[kind] = flag_histogram.get(kind, 0) + 1
        for duration in durations:
            per_source_seconds[source] = per_source_seconds.get(source, 0.0) + duration
            total_seconds += duration
    total_hours = total_seconds / 3600.0
    try:
        total_tokens = corpus.tokens_for_hours(total_hours)
    except ValueError as exc:  # durations whose total is past the float range
        print(f"forge: error: audio total: {exc}", file=sys.stderr)
        return 1
    doc = {
        "dialogues": len(rows),
        "rejects": len(rejects),
        "per_source_hours": {k: v / 3600.0 for k, v in sorted(per_source_seconds.items())},
        "per_language": dict(sorted(per_language.items())),
        "flag_histogram": dict(sorted(flag_histogram.items())),
        "total_hours": total_hours,
        "total_tokens_at_12p5hz": total_tokens,
        "budget_stats": {
            "speech": {"amount": total_hours, "unit": "hours"},
            "audio": {"amount": total_hours, "unit": "hours"},
        },
    }
    blob = _print_report(doc)
    # Totals over part of a corpus must not reach a budget check as the whole.
    driver.report_rejects(rejects)
    if rejects:
        return 1
    if args.out:
        driver.publish_text(args, blob + "\n", {}, {"dialogues": len(rows)}, inputs)
    return 0


# --------------------------------------------------------------------------
# templates
# --------------------------------------------------------------------------

def cmd_templates(args) -> int:
    from seqforge import templates as templates_mod

    if args.limit is not None and args.limit < 1:
        raise UsageError(f"--limit must be >= 1, got {args.limit}")
    with _side_input("--registry", args.registry):
        registry = templates_mod.load_task_registry(args.registry)
    if args.task not in registry:
        print(f"forge: error: unknown task {args.task!r}; registry has {sorted(registry)}",
              file=sys.stderr)
        return 1
    variants = templates_mod.expand_templates(registry[args.task], limit=args.limit)
    for v in variants:
        print(json.dumps({"task_id": v.task_id, "language": v.language,
                          "variant_index": v.variant_index, "text": v.text},
                         ensure_ascii=False))
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """No flag prefixes, here and in every subparser: `--job 2` would reach the manifest."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="forge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"forge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a corpus file")
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build-thinker", help="compile modality-interleaved sequences")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p-user", type=float, default=0.5, dest="p_user")
    p.add_argument("--p-assistant", type=float, default=0.5, dest="p_assistant")
    p.add_argument("--masks", help="outcomes file from `forge clean`")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, help="worker processes (default: FORGE_JOBS or 1)")
    p.set_defaults(func=cmd_build_thinker)

    p = sub.add_parser("build-talker", help="assemble speech-generator sequences")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", default="dialogue", help="dialogue, long_text or standard_sentence")
    p.add_argument("--ratio", default="5:15")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, help="worker processes (default: FORGE_JOBS or 1)")
    p.set_defaults(func=cmd_build_talker)

    p = sub.add_parser("clean", help="run the three-branch cleaning pipeline")
    p.add_argument("--corpus", required=True)
    p.add_argument("--client", choices=("mock", "http"), default="mock")
    p.add_argument("--config", help="--client http only: JSON object of "
                   + ", ".join(_HTTP_CONFIG_KEYS))
    p.add_argument("--retries", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, help="worker processes (default: FORGE_JOBS or 1)")
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("plan", help="inspect the training schedule")
    plan_sub = p.add_subparsers(dest="plan_cmd", required=True)
    plan_sub.add_parser("show")
    d = plan_sub.add_parser("directive")
    d.add_argument("--stage", required=True)
    d.add_argument("--step", type=int, required=True)
    d.add_argument("--total", type=int, default=None)
    b = plan_sub.add_parser("budget")
    b.add_argument("--stats", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("loss-check", help="finite-difference gradient verification")
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.set_defaults(func=cmd_loss_check)

    p = sub.add_parser("eval", help="evaluation metrics")
    eval_sub = p.add_subparsers(dest="eval_cmd", required=True)
    for name in ("cer", "wer"):
        e = eval_sub.add_parser(name)
        e.add_argument("--ref", required=True)
        e.add_argument("--hyp", required=True)
        if name == "wer":
            e.add_argument("--lang", default="en", help=f"one of {', '.join(LANGUAGES)}")
        e.add_argument("--raw", action="store_true", help="skip text normalization")
    y = eval_sub.add_parser("only-yes")
    y.add_argument("--responses", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="corpus statistics for budget checks")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("templates", help="prompt template tools")
    t_sub = p.add_subparsers(dest="templates_cmd", required=True)
    e = t_sub.add_parser("expand")
    e.add_argument("--task", required=True)
    e.add_argument("--limit", type=int, default=None)
    e.add_argument("--registry", required=True)
    p.set_defaults(func=cmd_templates)

    return parser


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    from seqforge.reporting import NotUtf8Error

    args.argv = ["forge"] + argv
    try:
        if hasattr(args, "jobs"):
            args.jobs = _jobs(args.jobs)
        return args.func(args)
    except (NotUtf8Error, ChildProcessError) as exc:  # ChildProcessError: a worker died
        print(f"forge: error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, OSError) as exc:  # a flag value, or a path that fails to read or write
        print(f"forge: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # every output stays as it was: see seqforge.driver
        print("forge: error: interrupted", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(run())
