"""Primitive behaviour of the kernel layer, against frozen values and a full-matrix reference."""
import random

import pytest

from seqforge import kernels


def test_backend_reported():
    assert kernels.BACKEND == "python"


def test_mix64_is_stable():
    # Frozen reference values: the seeded streams must never drift.
    assert kernels.mix64(0) == 0
    assert kernels.mix64(1) == 6238072747940578789
    assert kernels.mix64(0x9E3779B97F4A7C15) == 16294208416658607535
    assert kernels.next_u64(0) == (11400714819323198485, 16294208416658607535)
    assert kernels.hash_bytes64(b"abc", 7) == 6143202650885894170


def test_hash_bytes64_distinct_inputs():
    seen = {kernels.hash_bytes64(f"id-{i}".encode(), 7) for i in range(1000)}
    assert len(seen) == 1000


def test_edit_ops_empty_cases():
    assert kernels.edit_ops([], []) == (0, 0, 0)
    assert kernels.edit_ops([], [1, 2]) == (0, 2, 0)
    assert kernels.edit_ops([1, 2, 3], []) == (0, 0, 3)


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
        s, i, d = kernels.edit_ops(a, b)
        assert (s, i, d) == _reference_edit_ops(a, b), (a, b)
        assert kernels.distance(a, b) == s + i + d, (a, b)
        assert kernels.distance(b, a) == s + i + d, (a, b)
        # Argument swap: S stays, I and D exchange.
        assert kernels.edit_ops(b, a) == (s, d, i), (a, b)
