"""Per-row feature/embedding codecs: symmetric int8, fp16, identity fp32.

Aggregation is bytes-bound (Figure 14: HA <= SA+FA <= SA is a bytes
ordering), so the cheapest raw-speed lever left after kernel plans is
moving fewer bytes per gathered row.  This module provides the storage
codecs the quantized memory tier is built on:

``int8``
    Per-row *symmetric* linear quantization.  Each row ``x`` stores
    ``codes = round(x / scale)`` as int8 plus one float32 ``scale =
    max|x| / 127`` sidecar per row (the zero-point is identically 0 by
    symmetry, so none is stored).  Wire cost is ``dim + 4`` bytes per
    row instead of ``4 * dim``.

    Error bound: rounding is at most half a code unit, so for every
    element ``|x - dequantize(x)| <= scale / 2 = max|x| / 254`` — a
    per-row *absolute* bound of ~0.4% of the row's dynamic range.

``float16``
    IEEE half precision, no sidecar.  Relative error bound is
    ``2**-11`` (one ulp of the 10-bit mantissa) for values in the fp16
    normal range; wire cost is ``2 * dim`` bytes per row.

``float32``
    Identity codec so callers can treat the unquantized path uniformly.

This is the one implementation of the codecs: the on-disk feature
shards, the in-RAM quantized source and the serving embedding cache all
encode with :func:`quantize_rows` and decode with :func:`decode_int8` /
:func:`dequantize_rows`.  All encode/decode paths are vectorized; decode
accounts its work via ``record_op`` so roofline reports see quantized
wire bytes on the read side and decoded bytes on the write side.

A codec chooses how rows are stored, never how they are computed: every
decode writes float32 (or the ``out_dtype`` a caller asks for), and the
model's parameters pick the compute dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.profile import record_op

__all__ = [
    "FEATURE_DTYPES",
    "QuantizedRows",
    "quantize_rows",
    "dequantize_rows",
    "decode_int8",
    "int8_error_bound",
    "resolve_codec",
    "storage_dtype",
    "wire_bytes_per_row",
]

#: Storage dtypes the quantized tier understands, in decreasing width.
FEATURE_DTYPES = ("float32", "float16", "int8")

_STORAGE_DTYPE = {
    "float32": np.dtype(np.float32),
    "float16": np.dtype(np.float16),
    "int8": np.dtype(np.int8),
}


def resolve_codec(name: str) -> str:
    """Validate a codec name, loudly rejecting anything unknown."""
    codec = str(name)
    if codec not in _STORAGE_DTYPE:
        raise ValueError(
            f"unknown feature codec {codec!r}; expected one of {FEATURE_DTYPES}"
        )
    return codec


def storage_dtype(codec: str) -> np.dtype:
    """The dtype ``codec`` stores its codes in."""
    return _STORAGE_DTYPE[resolve_codec(codec)]


def wire_bytes_per_row(codec: str, dim: int) -> int:
    """Bytes actually moved per gathered row, sidecars included."""
    codec = resolve_codec(codec)
    base = int(dim) * _STORAGE_DTYPE[codec].itemsize
    if codec == "int8":
        base += 4  # one float32 scale per row rides along with the codes
    return base


@dataclass
class QuantizedRows:
    """A row-quantized 2-D array plus its per-row sidecars.

    ``codes`` is ``(n, dim)`` in the storage dtype; ``scales`` is a
    float32 ``(n,)`` sidecar for int8 (``None`` otherwise).
    """

    codec: str
    codes: np.ndarray
    scales: np.ndarray | None = None

    def __post_init__(self):
        self.codec = resolve_codec(self.codec)
        if self.codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got shape {self.codes.shape}")
        expected = _STORAGE_DTYPE[self.codec]
        if self.codes.dtype != expected:
            raise ValueError(
                f"codec {self.codec!r} stores {expected}, got codes dtype {self.codes.dtype}"
            )
        if self.codec == "int8":
            if self.scales is None:
                raise ValueError("int8 codec requires a per-row scale sidecar")
            if self.scales.shape != (self.codes.shape[0],):
                raise ValueError(
                    f"scales shape {self.scales.shape} does not match "
                    f"{self.codes.shape[0]} rows"
                )
        elif self.scales is not None:
            raise ValueError(f"codec {self.codec!r} takes no scale sidecar")

    @property
    def num_rows(self) -> int:
        return int(self.codes.shape[0])

    @property
    def dim(self) -> int:
        return int(self.codes.shape[1])

    @property
    def nbytes(self) -> int:
        """Resident bytes, sidecars included."""
        total = int(self.codes.nbytes)
        if self.scales is not None:
            total += int(self.scales.nbytes)
        return total

    @property
    def wire_bytes_per_row(self) -> int:
        return wire_bytes_per_row(self.codec, self.dim)


def quantize_rows(rows: np.ndarray, codec: str) -> QuantizedRows:
    """Encode a float ``(n, dim)`` array with ``codec``.

    int8 uses per-row symmetric scales (``max|row| / 127``); all-zero
    rows get scale 1.0 so they round-trip exactly.
    """
    codec = resolve_codec(codec)
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError(f"quantize_rows expects a 2-D array, got shape {rows.shape}")
    if rows.dtype.kind != "f":
        rows = rows.astype(np.float32)
    if codec == "float32":
        return QuantizedRows(codec, np.ascontiguousarray(rows, dtype=np.float32))
    if codec == "float16":
        return QuantizedRows(codec, np.ascontiguousarray(rows, dtype=np.float16))
    absmax = np.abs(rows).max(axis=1) if rows.size else np.zeros(rows.shape[0])
    scales = (absmax / 127.0).astype(np.float32)
    scales[scales == 0.0] = 1.0
    codes = np.rint(rows / scales[:, None]).astype(np.int8)
    record_op(
        "feature.quantize",
        flops=2.0 * rows.size,
        bytes_read=rows.nbytes,
        bytes_written=codes.nbytes + scales.nbytes,
    )
    return QuantizedRows(codec, codes, scales)


def decode_int8(codes: np.ndarray, scales: np.ndarray,
                out_dtype=np.float32) -> np.ndarray:
    """Dequantize raw int8 codes with per-row scales (no container needed).

    This is the hot path the on-disk gather uses directly on pread
    buffers.
    """
    codes = np.asarray(codes)
    scales = np.asarray(scales, dtype=np.float32)
    out = np.empty(codes.shape, dtype=out_dtype)
    np.multiply(codes, scales[..., None], out=out, casting="unsafe")
    return out


def dequantize_rows(q: QuantizedRows, rows=None, out_dtype=np.float32) -> np.ndarray:
    """Decode a row subset of ``q`` (or everything) into ``out_dtype``.

    Accounts the decode as ``feature.dequantize``: reads are wire-sized
    (quantized), writes are compute-sized.
    """
    out_dtype = np.dtype(out_dtype)
    if rows is None:
        codes = q.codes
        scales = q.scales
    else:
        rows = np.asarray(rows, dtype=np.int64)
        codes = q.codes[rows]
        scales = q.scales[rows] if q.scales is not None else None
    wire = int(codes.nbytes) + (int(scales.nbytes) if scales is not None else 0)
    if q.codec == "int8":
        out = decode_int8(codes, scales, out_dtype=out_dtype)
        flops = 2.0 * codes.size
    else:
        # A row subset is already a fresh array; the whole table is not.
        out = codes.astype(out_dtype, copy=rows is None)
        flops = float(codes.size)
    record_op(
        "feature.dequantize",
        flops=flops,
        bytes_read=wire,
        bytes_written=out.nbytes,
    )
    return out


def int8_error_bound(rows: np.ndarray) -> np.ndarray:
    """Per-row worst-case absolute error of the int8 codec.

    Rounding to the nearest code is off by at most half a code unit, so
    the bound is ``scale / 2 = max|row| / 254`` per row.
    """
    rows = np.asarray(rows)
    absmax = np.abs(rows).max(axis=1) if rows.size else np.zeros(rows.shape[0])
    return absmax / 254.0
