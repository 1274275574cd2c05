"""Kernel backend selection.

The compiled extension (``seqforge._ckernels``) is used when it imports;
otherwise the pure-Python kernels are. Both backends return bit-for-bit
equal results. Only the pure-Python ``edit_ops`` is banded (its cost
scales with length x distance); the compiled one fills the full matrix.
"""
try:
    from seqforge import _ckernels as _impl  # type: ignore[attr-defined]
except ImportError:
    from seqforge import _pykernels as _impl

BACKEND: str = _impl.BACKEND
mix64 = _impl.mix64
next_u64 = _impl.next_u64
hash_bytes64 = _impl.hash_bytes64
edit_ops = _impl.edit_ops
