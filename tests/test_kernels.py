"""Backend parity and primitive behaviour of the kernel layer."""
import importlib.util
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from seqforge import _pykernels
from seqforge import kernels

ROOT = Path(__file__).resolve().parents[1]


def _c_compiler() -> str | None:
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(cc.split()[0])


@pytest.fixture(scope="session")
def ckernels(tmp_path_factory):
    """The extension built by `setup.py build_ext` into a temporary directory.

    setup.py marks the extension optional, so a failed compile only warns and
    exits 0: the missing module is what fails the test.
    """
    if _c_compiler() is None:
        pytest.skip("no C compiler on PATH")
    out = tmp_path_factory.mktemp("ckernels")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp")],
        cwd=ROOT, capture_output=True, text=True)
    built = list((out / "lib" / "seqforge").glob("_ckernels.*"))
    assert build.returncode == 0 and built, build.stdout + build.stderr
    spec = importlib.util.spec_from_file_location("seqforge._ckernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_backend_reported():
    assert kernels.BACKEND in ("c", "python")


def test_mix64_is_stable():
    # Frozen reference values: the seeded streams must never drift.
    assert _pykernels.mix64(0) == 0
    assert _pykernels.mix64(1) == 6238072747940578789
    assert _pykernels.mix64(0x9E3779B97F4A7C15) == 16294208416658607535
    assert _pykernels.next_u64(0) == (11400714819323198485, 16294208416658607535)
    assert _pykernels.hash_bytes64(b"abc", 7) == 6143202650885894170


def test_hash_bytes64_distinct_inputs():
    seen = {_pykernels.hash_bytes64(f"id-{i}".encode(), 7) for i in range(1000)}
    assert len(seen) == 1000


def test_compiled_matches_pure(ckernels):
    assert ckernels.BACKEND == "c"
    rng = random.Random(0)
    for _ in range(500):
        x = rng.getrandbits(64)
        assert ckernels.mix64(x) == _pykernels.mix64(x)
        assert ckernels.next_u64(x) == _pykernels.next_u64(x)
        data = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 64)))
        assert ckernels.hash_bytes64(data, x) == _pykernels.hash_bytes64(data, x)
    for _ in range(1000):
        a = [rng.randrange(5) for _ in range(rng.randrange(0, 14))]
        b = [rng.randrange(5) for _ in range(rng.randrange(0, 14))]
        assert ckernels.edit_ops(a, b) == _pykernels.edit_ops(a, b)
    # Eval-sized pairs: a 60-200 symbol reference and a hypothesis with ~10% edits.
    for _ in range(20):
        a = [rng.randrange(30) for _ in range(rng.randrange(60, 201))]
        b = [rng.randrange(30) if rng.random() < 0.1 else x for x in a
             if rng.random() >= 0.05]
        assert ckernels.edit_ops(a, b) == _pykernels.edit_ops(a, b)
        assert ckernels.edit_ops(a, a[::-1]) == _pykernels.edit_ops(a, a[::-1])
    # Unrelated pairs (the distance spans most of the matrix) and skewed lengths.
    for _ in range(20):
        a = [rng.randrange(30) for _ in range(rng.randrange(0, 201))]
        b = [rng.randrange(30) for _ in range(rng.randrange(0, 201))]
        assert ckernels.edit_ops(a, b) == _pykernels.edit_ops(a, b)
        short = [rng.randrange(30) for _ in range(rng.randrange(1, 3))]
        assert ckernels.edit_ops(short, a) == _pykernels.edit_ops(short, a)
        assert ckernels.edit_ops(a, short) == _pykernels.edit_ops(a, short)


def test_edit_ops_empty_cases():
    assert _pykernels.edit_ops([], []) == (0, 0, 0)
    assert _pykernels.edit_ops([], [1, 2]) == (0, 2, 0)
    assert _pykernels.edit_ops([1, 2, 3], []) == (0, 0, 3)


def _reference_edit_ops(ref, hyp):
    """Full-matrix DP over (distance, substitutions, insertions, deletions).

    The lexicographic minimum prefers the lower distance, then the fewer
    substitutions; I and D then follow from I - D = len(hyp) - len(ref).
    """
    row = [(j, 0, j, 0) for j in range(len(hyp) + 1)]
    for i, a in enumerate(ref, 1):
        prev, row = row, [(i, 0, 0, i)]
        for j, b in enumerate(hyp, 1):
            d, s, ins, dels = prev[j - 1]
            diag = (d, s, ins, dels) if a == b else (d + 1, s + 1, ins, dels)
            d, s, ins, dels = prev[j]
            up = (d + 1, s, ins, dels + 1)
            d, s, ins, dels = row[j - 1]
            left = (d + 1, s, ins + 1, dels)
            row.append(min(diag, up, left))
    _, subs, ins, dels = row[-1]
    return subs, ins, dels


def _edited(rng, seq, alphabet, rate):
    """seq with about `rate` of its symbols substituted, deleted or followed by an insert."""
    out = []
    for x in seq:
        roll = rng.random()
        if roll < rate / 3:
            out.append(rng.randrange(alphabet))
        elif roll < 2 * rate / 3:
            continue
        elif roll < rate:
            out += [x, rng.randrange(alphabet)]
        else:
            out.append(x)
    return out


def _oracle_pairs(rng, alphabet):
    def word(lo, hi):
        return [rng.randrange(alphabet) for _ in range(rng.randrange(lo, hi + 1))]

    for _ in range(200):  # short pairs cover the empty and one-symbol edges
        yield word(0, 10), word(0, 10)
    for _ in range(6):
        yield word(0, 250), word(0, 250)  # unrelated, any lengths
        a = word(0, 250)
        yield a, _edited(rng, a, alphabet, 0.1)  # near: ~10% edits
        yield a, a
        yield a, a[::-1]
        yield word(1, 1), word(200, 200)  # skewed lengths


@pytest.mark.parametrize("alphabet", [1, 2, 5, 30])
def test_edit_ops_matches_full_matrix_reference(alphabet):
    rng = random.Random(alphabet)
    for a, b in _oracle_pairs(rng, alphabet):
        s, i, d = _pykernels.edit_ops(a, b)
        assert (s, i, d) == _reference_edit_ops(a, b), (a, b)
        # Argument swap: S stays, I and D exchange.
        assert _pykernels.edit_ops(b, a) == (s, d, i), (a, b)
