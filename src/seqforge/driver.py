"""The corpus commands' driver: an ordered map of a record function over a
corpus, the one reject gate, and publishing the outputs.

All five corpus commands map through map_records; validate, stats and any
map at --jobs 1 read the corpus as a stream. A command that publishes first
reads the corpus once as bytes with manifest.file_digest, so a corpus that is
not UTF-8 fails before any record runs, and that digest goes into the manifest.
The process that computes chunk k of the tasks, this one at --jobs 1 or a
pool worker, writes the chunk's lines of each output to <path>.<k>.tmp
itself, so output rows never cross a pipe. publish joins the chunk files
behind the header and moves every output into place. Only the corpus
commands load this module.
"""
import contextlib
import gc
import os
import sys


class Failed(str):
    """Message of a record whose error fails the whole command (exit 1)."""


class Chunks:
    """The chunk files of one run: <path>.<k>.tmp holds chunk k's lines of the
    output at path. No chunk file outlives the with block."""

    def __init__(self, *paths: str):
        self.paths = paths
        self.n = 0  # chunks written or being written

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        for k in range(self.n):
            for path in self.paths:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(f"{path}.{k}.tmp")


def _write_chunk(fn, state, tasks, paths, k: int) -> list:
    """(line number, fn(state, task)) for each task of chunk k. A row (dialogue
    id, lines, *rest) has one line, or None, per path: they go to
    <path>.<k>.tmp, and (dialogue id, *rest) comes back in the row's place."""
    rows = []
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(f"{path}.{k}.tmp", "w", encoding="utf-8"))
                 for path in paths]
        for task in tasks:
            row = fn(state, task)
            if type(row) is tuple:
                did, lines, *rest = row
                for fh, line in zip(files, lines):
                    if line is not None:
                        fh.write(line)
                        fh.write("\n")
                row = (did, *rest)
            rows.append((task[0], row))
    return rows


_worker: tuple = ()  # (fn, state, chunks of tasks, paths), set only inside pool workers


def _init_worker(*worker) -> None:
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    global _worker
    _worker = worker


def _write_chunk_in_worker(k: int) -> list:
    fn, state, parts, paths = _worker
    return _write_chunk(fn, state, parts[k], paths, k)


def report_rejects(rejects) -> None:
    """One stderr line per reject: the text every corpus command prints."""
    for r in rejects:
        print(f"reject line {r.line_number}: {r.reason}", file=sys.stderr)


def map_records(fn, state, tasks, jobs: int, chunks: Chunks) -> tuple[list, list, Failed | None]:
    """Ordered map of fn(state, task) over tasks, writing chunks.

    Each task is (line number, record). fn returns a Reject, a list of them,
    a Failed, or a row (dialogue id, lines, *rest) as _write_chunk takes it.
    At jobs 1 the tasks are a stream read in this process; above, contiguous
    chunks go to a pool of jobs workers, or one per chunk if there are fewer
    chunks (fork start: fn, state and the tasks reach each worker by the
    fork, and a task message is a chunk's index).

    Returns each row (dialogue id, *rest) whose id no earlier row has, in
    input order; every reject in line order, repeated ids included; and the
    first Failed, or None.
    """
    from seqforge.corpus import Reject

    chunks.n = 1
    if jobs > 1:
        tasks = list(tasks)  # the chunks are cut before the pool forks
        chunks.n = max(1, min(len(tasks), jobs * 4))
    if chunks.n == 1:
        # Rows hold no cycles: the collector would only re-traverse them, and
        # frozen, a pool forked later does not copy them on write.
        enabled = gc.isenabled()
        gc.disable()
        try:
            written = [_write_chunk(fn, state, tasks, chunks.paths, 0)]
        finally:
            gc.freeze()
            if enabled:
                gc.enable()
    else:
        import multiprocessing

        bounds = [len(tasks) * k // chunks.n for k in range(chunks.n + 1)]
        parts = [tasks[a:b] for a, b in zip(bounds, bounds[1:])]
        with multiprocessing.Pool(min(jobs, chunks.n), initializer=_init_worker,
                                  initargs=(fn, state, parts, chunks.paths)) as pool:
            written = pool.map(_write_chunk_in_worker, range(chunks.n), chunksize=1)
    rows, rejects, failure = [], [], None
    # Seeds and masks are keyed by dialogue id, so two dialogues with one id
    # would share one seed stream and one masks entry.
    first: dict[str, int] = {}
    for part in written:
        for line_no, row in part:
            if type(row) is tuple:
                first_line = first.setdefault(row[0], line_no)
                if first_line == line_no:
                    rows.append(row)
                else:
                    rejects.append(Reject(line_no, f"duplicate dialogue id {row[0]!r} "
                                                   f"(first on line {first_line})"))
            elif type(row) is list:
                rejects += row
            elif type(row) is Failed:
                if failure is None:
                    failure = row
            else:
                rejects.append(row)
    return rows, rejects, failure


def compile_records(fn, state, tasks, jobs: int, chunks: Chunks) -> list | None:
    """map_records, then the one reject gate. Returns each row's rest, or None
    after reporting every reject or, if there is none, the first failure."""
    rows, rejects, failure = map_records(fn, state, tasks, jobs, chunks)
    report_rejects(rejects)
    if rejects:
        return None
    if failure is not None:
        print(failure, file=sys.stderr)
        return None
    return [row[1:] for row in rows]


def _manifest_command(argv: list[str]) -> str:
    """Recorded command line with worker topology stripped.

    --jobs changes execution layout, never output bytes, so it must not make
    otherwise-identical runs produce different manifests.
    """
    kept = []
    args = iter(argv)
    for arg in args:
        if arg == "--jobs":
            next(args, None)  # its value
        elif not arg.startswith("--jobs="):
            kept.append(arg)
    return " ".join(kept)


def _append(fd: int, path: str) -> None:
    """Append the file at path to fd, copied in the kernel."""
    with open(path, "rb") as src:
        size = os.fstat(src.fileno()).st_size
        offset = 0
        while offset < size:
            sent = os.sendfile(fd, src.fileno(), offset, size - offset)
            if not sent:
                raise OSError(f"{path} shrank while it was copied")
            offset += sent


def publish(args, config: dict, counts: dict, chunks: Chunks, header: bool,
            inputs: dict[str, str]) -> None:
    """Join each output's chunk files and write the run's manifest, each to
    <path>.tmp, then move them into place. inputs maps the path of each input
    file, the corpus first, to its sha256 digest.

    The first output is the command's own: it gets the manifest as its
    sidecar and, with header, as its first line. Until the moves, every
    existing output stays as it was. The old sidecar goes before the first
    move and the new one comes last, so a run cut short between moves leaves
    none. If a write or move raises, no <path>.tmp stays behind.
    """
    from seqforge.manifest import manifest_line

    # stats and clean take no --seed; their manifests record master_seed null
    manifest = manifest_line(_manifest_command(args.argv), getattr(args, "seed", None), config,
                             inputs, counts)
    sidecar = f"{chunks.paths[0]}.manifest.json"
    outputs = [*chunks.paths, sidecar]
    try:
        for i, path in enumerate(chunks.paths):
            with open(f"{path}.tmp", "wb") as out:
                if header and i == 0:
                    out.write(manifest.encode("utf-8") + b"\n")
                    out.flush()
                for k in range(chunks.n):
                    _append(out.fileno(), f"{path}.{k}.tmp")
        with open(f"{sidecar}.tmp", "w", encoding="utf-8") as fh:
            fh.write(manifest + "\n")
        with contextlib.suppress(FileNotFoundError):
            os.remove(sidecar)
        for path in outputs:
            os.replace(f"{path}.tmp", path)
    except BaseException:
        for path in outputs:
            with contextlib.suppress(OSError):  # moved, or never written
                os.remove(f"{path}.tmp")
        raise


def publish_text(args, text: str, config: dict, counts: dict, inputs: dict[str, str]) -> None:
    """publish text as the whole of the output at args.out, with no header."""
    with Chunks(args.out) as chunks:
        chunks.n = 1
        with open(f"{args.out}.0.tmp", "w", encoding="utf-8") as fh:
            fh.write(text)
        publish(args, config, counts, chunks, header=False, inputs=inputs)
