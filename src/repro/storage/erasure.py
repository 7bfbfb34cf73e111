"""Erasure coding: a systematic GF(256) Reed–Solomon code.

:func:`rs_encode` splits one body into ``k`` data shards and extends them
to ``n`` coded chunks over GF(256); *any* ``k`` of the ``n`` survive an
arbitrary ``n - k`` erasures (:func:`rs_decode`).  It is the one code
the program uses:

* the archival tier (:mod:`repro.storage.coded`) stores a cold body as
  ``k`` of ``n`` chunks;
* a cluster parity group (:mod:`repro.core.parity`) is RS(k, k + 1) over
  ``k`` whole bodies: its one parity chunk is chunk ``k``, and any single
  lost body is decoded from the ``k - 1`` survivors plus that chunk.

Pure python: field arithmetic runs on precomputed log/exp tables,
scaling a whole chunk by a field coefficient is one ``bytes.translate``
over a per-coefficient 256-entry table, and chunks are added with
:func:`~repro.crypto.hashing.xor_bytes`, which folds each chunk in as one
big integer — no step of the codec loops over bytes in the interpreter.
Shards are padded to a common length; the original length travels with
them so decoding strips padding exactly.
"""

from __future__ import annotations

from typing import Mapping

from repro.crypto.hashing import xor_bytes
from repro.errors import StorageError


# ----------------------------------------------- GF(256) Reed–Solomon code
# Field tables for GF(2^8) with the primitive polynomial x^8+x^4+x^3+x^2+1
# (0x11d, the AES/QR convention).  _GF_EXP is doubled so products of two
# logs never need a modulo on the hot path.
_GF_EXP = [0] * 512
_GF_LOG = [0] * 256
_value = 1
for _power in range(255):
    _GF_EXP[_power] = _value
    _GF_LOG[_value] = _power
    _value <<= 1
    if _value & 0x100:
        _value ^= 0x11D
for _power in range(255, 512):
    _GF_EXP[_power] = _GF_EXP[_power - 255]
del _value, _power

#: coefficient -> 256-entry ``bytes.translate`` table mapping every byte
#: value to its GF(256) product with the coefficient.  Built lazily; a
#: handful of coefficients (one per Lagrange basis term) covers a whole
#: codec configuration, so chunk scaling is one C-level translate call.
_SCALE_TABLES: dict[int, bytes] = {}

#: (known points, evaluation point) -> Lagrange basis coefficients.
_LAGRANGE_CACHE: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def _gf_div(a: int, b: int) -> int:
    if b == 0:
        raise StorageError("GF(256) division by zero")
    if a == 0:
        return 0
    return _GF_EXP[(_GF_LOG[a] - _GF_LOG[b]) % 255]


def _scale(chunk: bytes, coefficient: int) -> bytes:
    """Multiply every byte of ``chunk`` by a GF(256) coefficient."""
    if coefficient == 0:
        return bytes(len(chunk))
    if coefficient == 1:
        return chunk
    table = _SCALE_TABLES.get(coefficient)
    if table is None:
        log_c = _GF_LOG[coefficient]
        table = bytes(
            _GF_EXP[log_c + _GF_LOG[byte]] if byte else 0
            for byte in range(256)
        )
        _SCALE_TABLES[coefficient] = table
    return chunk.translate(table)


def _lagrange_coefficients(
    known: tuple[int, ...], point: int
) -> tuple[int, ...]:
    """Basis weights reconstructing ``f(point)`` from ``f`` at ``known``.

    In GF(256) addition is XOR, so ``ℓ_i(x) = Π_{j≠i} (x⊕x_j)/(x_i⊕x_j)``.
    Any value of a degree-``< len(known)`` polynomial is then the weighted
    XOR of its known values — the whole codec reduces to scale-and-XOR
    over chunks.
    """
    cached = _LAGRANGE_CACHE.get((known, point))
    if cached is not None:
        return cached
    coefficients = []
    for i, x_i in enumerate(known):
        numerator = denominator = 1
        for j, x_j in enumerate(known):
            if j == i:
                continue
            numerator = _gf_mul(numerator, point ^ x_j)
            denominator = _gf_mul(denominator, x_i ^ x_j)
        coefficients.append(_gf_div(numerator, denominator))
    result = tuple(coefficients)
    _LAGRANGE_CACHE[(known, point)] = result
    return result


def _combine(
    chunks: list[bytes], coefficients: tuple[int, ...], length: int
) -> bytes:
    """Weighted GF(256) sum of equal-length chunks."""
    pieces = [
        _scale(chunk, coefficient)
        for chunk, coefficient in zip(chunks, coefficients)
        if coefficient != 0
    ]
    if not pieces:
        return bytes(length)
    if len(pieces) == 1:
        return pieces[0]
    return xor_bytes(pieces)


def _check_code_shape(data_chunks: int, total_chunks: int) -> None:
    if data_chunks < 1:
        raise StorageError("Reed–Solomon needs at least one data chunk")
    if total_chunks < data_chunks:
        raise StorageError("total chunks must be >= data chunks")
    if total_chunks > 256:
        raise StorageError(
            "GF(256) Reed–Solomon supports at most 256 chunks"
        )


def rs_shard_length(data_length: int, data_chunks: int) -> int:
    """Per-chunk byte length for a body of ``data_length`` bytes."""
    if data_length < 0:
        raise StorageError("data length must be >= 0")
    if data_chunks < 1:
        raise StorageError("Reed–Solomon needs at least one data chunk")
    return -(-data_length // data_chunks)  # ceil division


def rs_encode(
    data: bytes, data_chunks: int, total_chunks: int
) -> list[bytes]:
    """Systematic Reed–Solomon encode: ``k`` data + ``n-k`` parity chunks.

    The body is split into ``data_chunks`` equal shards (last one
    zero-padded); shard ``i`` is read as the value of a degree-``< k``
    polynomial at field point ``i``, and parity chunk ``k+j`` is that
    polynomial evaluated at point ``k+j``.  Chunks 0..k-1 are therefore
    the data verbatim, and *any* ``k`` of the ``n`` chunks reconstruct
    the body exactly (:func:`rs_decode`).

    Raises:
        StorageError: for an invalid ``(k, n)`` shape.
    """
    _check_code_shape(data_chunks, total_chunks)
    shard_len = rs_shard_length(len(data), data_chunks)
    shards = [
        data[i * shard_len : (i + 1) * shard_len].ljust(shard_len, b"\0")
        for i in range(data_chunks)
    ]
    if total_chunks == data_chunks:
        return shards
    known = tuple(range(data_chunks))
    parity = [
        _combine(
            shards,
            _lagrange_coefficients(known, point),
            shard_len,
        )
        for point in range(data_chunks, total_chunks)
    ]
    return shards + parity


def rs_decode(
    chunks: Mapping[int, bytes],
    data_chunks: int,
    total_chunks: int,
    data_length: int,
) -> bytes:
    """Reconstruct the original body from any ``k`` surviving chunks.

    Args:
        chunks: surviving chunk payloads keyed by chunk index.
        data_chunks: ``k`` of the code.
        total_chunks: ``n`` of the code.
        data_length: original body length (strips shard padding exactly).

    Raises:
        StorageError: with fewer than ``k`` survivors, an out-of-range
            index, or a survivor of the wrong length.
    """
    _check_code_shape(data_chunks, total_chunks)
    shard_len = rs_shard_length(data_length, data_chunks)
    for index, chunk in chunks.items():
        if not 0 <= index < total_chunks:
            raise StorageError(f"chunk index {index} outside the code")
        if len(chunk) != shard_len:
            raise StorageError(
                f"chunk {index} has length {len(chunk)}, "
                f"expected {shard_len}"
            )
    if len(chunks) < data_chunks:
        raise StorageError(
            f"Reed–Solomon needs {data_chunks} of {total_chunks} chunks "
            f"to reconstruct; only {len(chunks)} survive"
        )
    known = tuple(sorted(chunks))[:data_chunks]
    basis = [chunks[index] for index in known]
    shards = []
    for point in range(data_chunks):
        present = chunks.get(point)
        if present is not None:
            shards.append(present)
            continue
        shards.append(
            _combine(
                basis,
                _lagrange_coefficients(known, point),
                shard_len,
            )
        )
    return b"".join(shards)[:data_length]
