# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
# _ckernels.c is generated from this file; after editing it, regenerate with
# Cython >= 3:  cythonize src/seqforge/_ckernels.pyx
"""Compiled kernels: edit-distance DP and the seeded hash/RNG primitives.

Bit-for-bit equivalent to ``_pykernels``; selected automatically at import
when built (see ``seqforge.kernels``).
"""

from libc.stdint cimport uint64_t, int64_t, int32_t
from libc.stdlib cimport malloc, free

BACKEND = "c"

cdef uint64_t GOLDEN = 0x9E3779B97F4A7C15UL
cdef uint64_t FNV_OFFSET = 0xCBF29CE484222325UL
cdef uint64_t FNV_PRIME = 0x100000001B3UL


cdef inline uint64_t _mix64(uint64_t z) nogil:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9UL
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBUL
    return z ^ (z >> 31)


def mix64(z):
    return _mix64(<uint64_t> (z & 0xFFFFFFFFFFFFFFFF))


def next_u64(state):
    cdef uint64_t s = <uint64_t> (state & 0xFFFFFFFFFFFFFFFF)
    s = s + GOLDEN
    return s, _mix64(s)


def hash_bytes64(bytes data, seed):
    cdef uint64_t h = (<uint64_t> (seed & 0xFFFFFFFFFFFFFFFF)) ^ FNV_OFFSET
    cdef const unsigned char* p = data
    cdef Py_ssize_t i, n = len(data)
    for i in range(n):
        h = (h ^ p[i]) * FNV_PRIME
    return _mix64(h)


def edit_ops(list ref, list hyp):
    """Minimal-cost (substitutions, insertions, deletions) between id lists.

    Among minimal-cost alignments the fewest-substitutions one is chosen,
    matching the pure-Python kernel exactly.
    """
    cdef Py_ssize_t n = len(ref)
    cdef Py_ssize_t m = len(hyp)
    if n == 0:
        return 0, m, 0
    if m == 0:
        return 0, 0, n

    cdef int64_t* rbuf = <int64_t*> malloc(n * sizeof(int64_t))
    cdef int64_t* hbuf = <int64_t*> malloc(m * sizeof(int64_t))
    cdef int32_t* dist_prev = <int32_t*> malloc((m + 1) * sizeof(int32_t))
    cdef int32_t* subs_prev = <int32_t*> malloc((m + 1) * sizeof(int32_t))
    cdef int32_t* dist_cur = <int32_t*> malloc((m + 1) * sizeof(int32_t))
    cdef int32_t* subs_cur = <int32_t*> malloc((m + 1) * sizeof(int32_t))
    if (rbuf == NULL or hbuf == NULL or dist_prev == NULL or
            subs_prev == NULL or dist_cur == NULL or subs_cur == NULL):
        free(rbuf); free(hbuf); free(dist_prev)
        free(subs_prev); free(dist_cur); free(subs_cur)
        raise MemoryError()

    cdef Py_ssize_t i, j
    cdef int64_t ri
    cdef int32_t cost, best_d, best_s, d, dist, subs
    cdef int32_t* swap_p
    try:
        for i in range(n):
            rbuf[i] = ref[i]
        for j in range(m):
            hbuf[j] = hyp[j]
        for j in range(m + 1):
            dist_prev[j] = <int32_t> j
            subs_prev[j] = 0
        with nogil:
            for i in range(1, n + 1):
                ri = rbuf[i - 1]
                dist_cur[0] = <int32_t> i
                subs_cur[0] = 0
                for j in range(1, m + 1):
                    cost = 0 if ri == hbuf[j - 1] else 1
                    best_d = dist_prev[j - 1] + cost
                    best_s = subs_prev[j - 1] + cost
                    d = dist_prev[j] + 1
                    if d < best_d or (d == best_d and subs_prev[j] < best_s):
                        best_d = d
                        best_s = subs_prev[j]
                    d = dist_cur[j - 1] + 1
                    if d < best_d or (d == best_d and subs_cur[j - 1] < best_s):
                        best_d = d
                        best_s = subs_cur[j - 1]
                    dist_cur[j] = best_d
                    subs_cur[j] = best_s
                swap_p = dist_prev; dist_prev = dist_cur; dist_cur = swap_p
                swap_p = subs_prev; subs_prev = subs_cur; subs_cur = swap_p
        dist = dist_prev[m]
        subs = subs_prev[m]
    finally:
        free(rbuf); free(hbuf); free(dist_prev)
        free(subs_prev); free(dist_cur); free(subs_cur)

    cdef int64_t ins = (dist - subs + (m - n)) // 2
    cdef int64_t dels = (dist - subs - (m - n)) // 2
    return subs, ins, dels
