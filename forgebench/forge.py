"""Run `forge` commands in fresh processes, as users run them.

Each command is started as ``python -m seqforge`` (the benchmark's own
interpreter) against the checkout's ``src/``, and waited for with ``os.wait4``, whose resource usage covers the
command and every child it reaped (pool workers included). Its stdout and
stderr go to files: `validate` prints every violation and `build-talker`
one line per skipped dialogue, so unread pipes could fill and block it.
"""
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class CommandRun:
    wall_s: float
    peak_rss_kb: int
    returncode: int
    stderr: Path


class Forge:
    """Runs commands in `root`; logs go to `logdir` as <name>.stdout/.stderr."""

    def __init__(self, root: Path, logdir: Path):
        self.root, self.logdir = root, logdir
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        # Worker count is always passed explicitly.
        self.env.pop("FORGE_JOBS", None)

    def run(self, name: str, *args: str) -> CommandRun:
        argv = [sys.executable, "-m", "seqforge", *args]
        out, err = self.logdir / f"{name}.stdout", self.logdir / f"{name}.stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
                                    cwd=self.root, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        # Popen must not try to reap the pid again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CommandRun(wall, usage.ru_maxrss, proc.returncode, err)
