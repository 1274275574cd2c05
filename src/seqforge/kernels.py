"""Kernels: the seeded hash/RNG primitives and the edit-distance kernels.

Every seeded decision in the toolkit flows through ``mix64``, ``next_u64``
and ``hash_bytes64``, whose values are frozen by the tests. ``distance``
gives the unit-cost edit distance by a bit-vector pass; ``edit_ops`` splits
it into substitutions, insertions and deletions with a DP banded by that
distance, so its cost scales with length x distance.
"""

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

BACKEND = "python"  # the only backend; run reports record it


def mix64(z: int) -> int:
    """SplitMix64 finalizer over a 64-bit value."""
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def next_u64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 stream. Returns (new_state, output)."""
    state = (state + _GOLDEN) & _M64
    return state, mix64(state)


def hash_bytes64(data: bytes, seed: int) -> int:
    """Seeded FNV-1a over bytes with a SplitMix64 finalizer."""
    h = (seed ^ _FNV_OFFSET) & _M64
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _M64
    return mix64(h)


def distance(ref, hyp) -> int:
    """Unit-cost edit distance by the bit-vector recurrence over ``ref``.

    Myers (1999, J. ACM 46(3)) in its global form: bit i of ``vp``/``vn``
    says the current DP column rises/falls from row i to row i + 1, and one
    column step is a handful of operations on ``len(ref)``-bit Python ints.
    ``ref`` and ``hyp`` are sequences of hashable symbols (a ``str``, a list
    of words or ids); symbols match when they are equal.
    """
    if not ref:
        return len(hyp)
    peq: dict = {}
    for i, a in enumerate(ref):
        peq[a] = peq.get(a, 0) | 1 << i
    full = (1 << len(ref)) - 1
    last = 1 << (len(ref) - 1)
    vp, vn = full, 0
    dist = len(ref)
    for b in hyp:
        x = peq.get(b, 0) | vn
        d0 = (((x & vp) + vp) ^ vp) | x
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & last:
            dist += 1
        elif hn & last:
            dist -= 1
        hp = hp << 1 | 1  # the top row rises by one per column
        hn <<= 1
        vp = (hn | ~(d0 | hp)) & full
        vn = d0 & hp & full
    return dist


def edit_ops(ref, hyp) -> tuple[int, int, int]:
    """Minimal-cost edit decomposition between two symbol sequences.

    Unit costs. Among minimal-cost alignments the one with the fewest
    substitutions is chosen, which makes the (S, I, D) decomposition
    symmetric under argument swap (S stays, I and D exchange).

    Two steps. The bit-vector distance ``k`` (``distance``) sizes a band;
    one DP over (distance, substitutions), restricted to that band and kept
    in a single row updated in place, gives the result. A path through diagonal ``t = j - i`` costs at least
    ``|t| + |(m - n) - t|``, so every alignment of cost ``k`` lies on the
    diagonals where that sum is at most ``k`` (Ukkonen 1985, Inf. Control
    64): the band holds every optimal alignment, and the fewest-substitutions
    tie-break among them is as exact as over the full matrix. The work is
    about ``len(ref) * (k + 1)`` cells instead of ``len(ref) * len(hyp)``.

    Returns (substitutions, insertions, deletions).
    """
    n = len(ref)
    m = len(hyp)
    if n == 0:
        return 0, m, 0
    if m == 0:
        return 0, 0, n

    skew = m - n
    slack = (distance(ref, hyp) - abs(skew)) // 2
    lo = min(0, skew) - slack
    hi = max(0, skew) + slack
    # A cell's (distance, substitutions) packed as one key, distance * w +
    # substitutions (substitutions < w), so the lexicographic minimum is <.
    w = n + m + 1
    w_sub = w + 1
    inf = w * w
    # row[t - lo] is the key of the cell on diagonal t of the current row;
    # row[hi - lo + 1] stays inf and stands for the cells above the band.
    row = [inf] * (hi - lo + 2)
    for t in range(min(hi, m) + 1):
        row[t - lo] = t * w
    for i in range(1, n + 1):
        a = ref[i - 1]
        first = max(lo, 1 - i)
        if first > lo:  # column 0 is in the band: i deletions
            left = row[first - 1 - lo] = i * w
        else:
            left = inf
        # In place: row[p] still holds the diagonal neighbour (row i - 1,
        # same t) and row[p + 1] the one above (row i - 1, t + 1).
        p = first - lo
        for b in hyp[i + first - 1:i + min(hi, m - i)]:
            key = row[p]
            if b != a:
                key += w_sub
            gap = row[p + 1]
            if left < gap:
                gap = left
            gap += w
            if gap < key:
                key = gap
            row[p] = left = key
            p += 1

    dist, subs = divmod(row[skew - lo], w)
    # Any alignment satisfies I - D = m - n and S + I + D = dist.
    ins = (dist - subs + skew) // 2
    dels = (dist - subs - skew) // 2
    return subs, ins, dels
