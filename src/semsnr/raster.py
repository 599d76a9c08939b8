"""Grayscale raster images, binary PGM I/O, the population variance and the 2-D real FFTs.

The working plane is real-valued (float64) throughout the pipeline; integer
storage only happens at explicit quantize/save boundaries.  Arrays held by a
:class:`Raster` are frozen (non-writeable) so values can be shared freely.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PgmParseError, PgmSizeError

_VALID_DEPTHS = (8, 16)


@dataclass(frozen=True)
class Raster:
    """A rectangular grayscale image with explicit storage bit depth.

    ``data`` is a (height, width) float64 plane, at least 2x2, of finite,
    nonnegative intensities.  The bit depth states how the image is (or will
    be) stored; working values may exceed the storage maximum until quantized.
    """

    data: np.ndarray = field(repr=False)
    bit_depth: int = 8

    def __post_init__(self):
        if self.bit_depth not in _VALID_DEPTHS:
            raise DomainError(f"bit_depth must be one of {_VALID_DEPTHS}, got {self.bit_depth}")
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise DomainError(f"expected a 2-D array, got ndim={arr.ndim}")
        if min(arr.shape) < 2:
            raise DomainError(f"raster must be at least 2x2, got {arr.shape[1]}x{arr.shape[0]}")
        lo, hi = arr.min(), arr.max()  # nan and +-inf always reach one of them
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("working intensities must be finite")
        if lo < 0.0:
            raise DomainError("working intensities must be nonnegative")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def maxval(self) -> int:
        return (1 << self.bit_depth) - 1

    def scaled(self, factor: float) -> "Raster":
        """Return a copy with all intensities multiplied by ``factor`` > 0."""
        if factor <= 0:
            raise DomainError("scale factor must be positive")
        return Raster(self.data * factor, self.bit_depth)


def raster_from_array(arr, bit_depth: int = 8) -> Raster:
    return Raster(arr, bit_depth)


def quantize(r: Raster | np.ndarray, bit_depth: int) -> tuple[Raster, int]:
    """Round the working plane to integers and clamp to the storage range.

    Rounding is half-away-from-zero.  Returns the quantized raster and the
    number of pixels that had to be clamped into [0, 2**bit_depth - 1].
    """
    # the one plane made here
    return quantize_in_place(np.array(r.data if isinstance(r, Raster) else r, dtype=np.float64),
                             bit_depth)


def quantize_in_place(x: np.ndarray, bit_depth: int) -> tuple[Raster, int]:
    """:func:`quantize` in ``x`` itself, a float64 plane the caller gives up.

    ``x`` is rounded and clamped where it is and becomes the returned
    raster's (frozen) data, so no plane is made.
    """
    if bit_depth not in _VALID_DEPTHS:
        raise DomainError(f"bit_depth must be one of {_VALID_DEPTHS}, got {bit_depth}")
    lo, hi = (float(x.min()), float(x.max())) if x.size else (0.0, 0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):  # nan and +-inf always reach one
        raise DomainError("cannot quantize non-finite intensities")
    maxval = float((1 << bit_depth) - 1)
    # The sign and clamp passes run only where min and max cannot rule out a
    # change: a positive plane has no sign to restore, and rounding is
    # monotone, so it clamps only if its max does.
    if lo > 0.0:
        x += 0.5
        np.floor(x, out=x)
        if math.floor(hi + 0.5) <= maxval:
            return raster_from_array(x, bit_depth=bit_depth), 0
    else:
        negative = np.signbit(x)  # floor(|x| + 0.5) with x's sign, -0.0 included
        np.abs(x, out=x)
        x += 0.5
        np.floor(x, out=x)
        np.negative(x, out=x, where=negative)
        del negative
    clamped = int(np.count_nonzero(x < 0.0)) + int(np.count_nonzero(x > maxval))
    np.clip(x, 0.0, maxval, out=x)
    return raster_from_array(x, bit_depth=bit_depth), clamped


def rfft2(plane: np.ndarray) -> np.ndarray:
    """``np.fft.rfft2`` of a 2-D real plane bit for bit, its column pass run in place.

    NumPy transforms the rows and then the columns; here the column pass
    writes into the row pass's half spectrum, so one complex plane is made.
    """
    spectrum = np.fft.rfft(plane, axis=1)
    return np.fft.fft(spectrum, axis=0, out=spectrum)


def irfft2(spectrum: np.ndarray, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """``np.fft.irfft2(spectrum, s=(height, width))`` bit for bit, ``spectrum`` used up.

    The column pass runs in ``spectrum`` itself, which the caller gives up,
    and the row pass writes the real plane into ``out`` (a float64
    height x ``width`` plane) or a new one, so no complex plane is made.
    """
    np.fft.ifft(spectrum, axis=0, out=spectrum)
    return np.fft.irfft(spectrum, n=width, axis=1, out=out)


def variance(plane: np.ndarray, work: np.ndarray) -> float:
    """``np.var`` of a float64 or integer plane bit for bit, its deviations formed in ``work``.

    The same sum, subtract, square and sum as ``np.var``, but in a plane the
    caller owns (``plane`` itself when it may be overwritten), so no
    full-size temporary is made.
    """
    mean = np.add.reduce(plane, axis=None, dtype=np.float64) / plane.size
    np.subtract(plane, mean, out=work)
    np.square(work, out=work)
    return float(np.add.reduce(work, axis=None) / plane.size)


def _next_token(buf: io.BytesIO) -> bytes:
    """Read one whitespace-delimited header token, dropping # comments."""
    token = b""
    while True:
        c = buf.read(1)
        if c == b"":
            if token:
                return token
            raise PgmParseError("unexpected end of header")
        if c == b"#":
            while c not in (b"\n", b"", b"\r"):
                c = buf.read(1)
            continue
        if c.isspace():
            if token:
                return token
            continue
        token += c


def _parse_header_int(token: bytes, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise PgmParseError(f"invalid {what} token {token!r}") from None
    if value <= 0:
        raise PgmParseError(f"invalid {what} token {token!r}: must be positive")
    return value


def raster_from_pgm_bytes(blob: bytes) -> Raster:
    buf = io.BytesIO(blob)
    magic = _next_token(buf)
    if magic != b"P5":
        raise PgmParseError(f"invalid magic token {magic!r}: expected b'P5'")
    width = _parse_header_int(_next_token(buf), "width")
    height = _parse_header_int(_next_token(buf), "height")
    maxval = _parse_header_int(_next_token(buf), "maxval")
    if maxval == 255:
        bit_depth, dtype = 8, np.dtype("u1")
    elif maxval == 65535:
        bit_depth, dtype = 16, np.dtype(">u2")
    else:
        raise PgmParseError(f"unsupported maxval token {maxval!r}: expected 255 or 65535")
    offset = buf.tell()  # the samples are read in place: the only plane made is the float one
    expected = width * height * dtype.itemsize
    if len(blob) - offset != expected:
        raise PgmSizeError(
            f"payload is {len(blob) - offset} bytes, header promises {expected} "
            f"({width}x{height} at {dtype.itemsize} byte(s)/sample)"
        )
    samples = np.frombuffer(blob, dtype=dtype, offset=offset).astype(np.float64)
    return Raster(samples.reshape(height, width), bit_depth)


def _pgm_parts(r: Raster) -> tuple[bytes, np.ndarray]:
    """Canonical header and storage-typed payload of an integral plane within maxval."""
    arr = r.data
    top = arr.max()
    if top > r.maxval:  # checked first, so the cast below is defined
        raise DomainError(f"intensity {top} exceeds maxval {r.maxval}")
    payload = arr.astype(np.dtype("u1") if r.bit_depth == 8 else np.dtype(">u2"))
    if not np.array_equal(payload, arr):  # the cast truncated a fraction
        raise DomainError("raster holds non-integral intensities; quantize before saving")
    return f"P5\n{r.width} {r.height}\n{r.maxval}\n".encode("ascii"), payload


def pgm_bytes(r: Raster) -> bytes:
    """Serialize in canonical form: ``P5\\n<w> <h>\\n<maxval>\\n`` + payload.

    16-bit samples are written big-endian.  The working plane must already be
    integral and inside the storage range (quantize first if unsure); a plane
    above maxval is reported as such even when it also holds fractions.
    """
    header, payload = _pgm_parts(r)
    return header + payload.tobytes()


def load_pgm(path) -> Raster:
    """Read a binary PGM (P5) file with maxval 255 or 65535; errors name the path."""
    with open(path, "rb") as fh:
        try:
            return raster_from_pgm_bytes(fh.read())
        except (PgmParseError, PgmSizeError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc


def save_pgm(r: Raster, path) -> None:
    """Write a binary PGM (P5) file; byte-exact round-trip with load_pgm."""
    header, payload = _pgm_parts(r)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
