import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak

from semsnr.errors import DomainError, PgmParseError, PgmSizeError
from semsnr.raster import (
    Raster,
    irfft2,
    load_pgm,
    pgm_bytes,
    quantize,
    quantize_in_place,
    raster_from_array,
    raster_from_pgm_bytes,
    rfft2,
    save_pgm,
    variance,
)


def test_load_2x2_p5_bytes():
    blob = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
    r = raster_from_pgm_bytes(blob)
    assert (r.width, r.height, r.bit_depth) == (2, 2, 8)
    assert r.data.tolist() == [[0.0, 255.0], [128.0, 64.0]]


def test_save_load_round_trip_file(tmp_path):
    r = raster_from_array([[0, 255], [128, 64]], bit_depth=8)
    path = tmp_path / "img.pgm"
    save_pgm(r, path)
    again = load_pgm(path)
    assert np.array_equal(again.data, r.data)
    # canonical files round-trip byte for byte
    assert pgm_bytes(again) == path.read_bytes()


def test_16bit_big_endian_reference_writer():
    # fixture built with an independent big-endian writer
    samples = [0, 65535, 777, 32768, 12, 4242]
    blob = b"P5\n3 2\n65535\n" + struct.pack(">6H", *samples)
    r = raster_from_pgm_bytes(blob)
    assert r.bit_depth == 16
    assert r.data.ravel().tolist() == [float(s) for s in samples]
    assert pgm_bytes(r) == blob


def test_header_whitespace_and_comments_tolerated():
    blob = b"P5 # magic\n# a comment line\n  2\t2 # dims\n255\n" + bytes(4)
    r = raster_from_pgm_bytes(blob)
    assert (r.width, r.height) == (2, 2)


@pytest.mark.parametrize(
    "blob, err, token",
    [
        (b"P6\n2 2\n255\n" + bytes(12), PgmParseError, "P6"),
        (b"P5\nx 2\n255\n" + bytes(4), PgmParseError, "x"),
        (b"P5\n2 2\n300\n" + bytes(4), PgmParseError, "300"),
        (b"P5\n2 2\n255\n" + bytes(3), PgmSizeError, "3 bytes"),
        (b"P5\n2 2\n255\n" + bytes(5), PgmSizeError, "5 bytes"),
        (b"P5\n2 2\n255", PgmSizeError, "payload is 0 bytes, header promises 4"),
        (b"P5\n2 2\n65535\n" + bytes(7), PgmSizeError, "7 bytes, header promises 8"),
    ],
)
def test_malformed_pgm_names_offender(blob, err, token):
    with pytest.raises(err, match=token):
        raster_from_pgm_bytes(blob)


@pytest.mark.parametrize("depth", [8, 16])
def test_pgm_read_makes_only_the_float_plane(depth):
    # the samples are read where they lie in the file's bytes; a copy of the
    # payload first made 1.125 (8-bit) or 1.25 (16-bit) planes
    blob = pgm_bytes(raster_from_array(np.full((256, 256), 200.0), bit_depth=depth))
    plane = 256 * 256 * 8
    peak = traced_peak(lambda: raster_from_pgm_bytes(blob))
    assert peak <= 1.05 * plane, peak / plane


@settings(max_examples=40, deadline=None)
@given(
    w=st.integers(2, 9),
    h=st.integers(2, 9),
    depth=st.sampled_from([8, 16]),
    seed=st.integers(0, 2**31),
)
def test_pgm_round_trip_property(w, h, depth, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    arr = rng.integers(0, (1 << depth) - 1, size=(h, w), endpoint=True).astype(float)
    r = raster_from_array(arr, bit_depth=depth)
    blob = pgm_bytes(r)
    again = raster_from_pgm_bytes(blob)
    assert np.array_equal(again.data, r.data)
    assert pgm_bytes(again) == blob


def test_raster_invariants():
    with pytest.raises(DomainError):
        raster_from_array(np.zeros((1, 5)))
    with pytest.raises(DomainError):
        raster_from_array(-np.ones((4, 4)))
    with pytest.raises(DomainError):
        raster_from_array(np.full((4, 4), np.nan))
    with pytest.raises(DomainError):
        Raster(np.zeros((4, 4)), 12)
    r = raster_from_array(np.ones((3, 3)))
    with pytest.raises(ValueError):
        r.data[0, 0] = 5.0  # the plane is frozen


@pytest.mark.parametrize("bad,message", [
    (np.nan, "must be finite"), (np.inf, "must be finite"), (-np.inf, "must be finite"),
    (-1.0, "must be nonnegative"),
])
def test_raster_rejects_nonfinite_and_negative_with_its_message(bad, message):
    arr = np.ones((4, 4))
    arr[2, 1] = bad
    with pytest.raises(DomainError, match=f"^working intensities {message}$"):
        Raster(arr)


def test_variance_constant_and_hand_values():
    assert variance(np.full((4, 4), 7.0), np.empty((4, 4))) == 0.0
    assert variance(np.array([[0.0, 2.0], [0.0, 2.0]]), np.empty((2, 2))) == 1.0


def test_variance_matches_autocorrelation_identity(rng):
    # variance must equal the zero-offset autocorrelation minus mean^2, with
    # the right-hand side computed independently from raw products
    arr = rng.uniform(0.0, 255.0, size=(64, 64))
    r00 = float(np.mean(arr * arr))
    lhs, rhs = variance(arr, np.empty(arr.shape)), r00 - float(arr.mean()) ** 2
    assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_quantize_rounding_and_clamping():
    q, clamped = quantize(np.array([[127.4, 127.5], [2.0, 2.0]]), 8)
    assert q.data[0, 0] == 127.0
    assert q.data[0, 1] == 128.0  # half rounds away from zero
    assert clamped == 0

    q, clamped = quantize(np.array([[300.0, 10.0], [0.0, 255.0]]), 8)
    assert q.data[0, 0] == 255.0
    assert clamped == 1


def test_quantize_idempotent_on_integral_planes(rng):
    arr = rng.integers(0, 255, size=(16, 16)).astype(float)
    q1, c1 = quantize(arr, 8)
    q2, c2 = quantize(q1, 8)
    assert np.array_equal(q1.data, q2.data)
    assert c1 == c2 == 0


def test_quantize_error_variance_monte_carlo(rng):
    # uniform-noise plane: rounding error is uniform on [-1/2, 1/2],
    # variance 1/12 (tolerance +-5%)
    arr = rng.uniform(10.0, 200.0, size=(256, 256))
    q, _ = quantize(arr, 8)
    err_var = float(np.var(q.data - arr))
    assert abs(err_var - 1.0 / 12.0) <= 0.05 / 12.0


@pytest.mark.parametrize("bit_depth", [8, 16])
def test_quantize_matches_reference_formula(bit_depth):
    maxval = (1 << bit_depth) - 1
    arr = np.array([[0.5, -0.5, 1.5, -1.5, -0.0, 7.2],
                    [maxval - 0.5, maxval + 0.5, -3.0, 1e6, 0.0, 2.5]])
    before = arr.copy()
    q, clamped = quantize(arr, bit_depth)
    rounded = np.sign(arr) * np.floor(np.abs(arr) + 0.5)
    assert np.array_equal(q.data, np.clip(rounded, 0, maxval))
    assert clamped == int(np.count_nonzero((rounded < 0.0) | (rounded > maxval))) == 5
    assert arr.tobytes() == before.tobytes()  # the input is never written


def _quantize_copysign(arr, bit_depth):
    """The copy-and-copysign form of the rule: floor(|x| + 0.5) given x's sign, then clamp."""
    out = np.abs(arr)
    out += 0.5
    np.floor(out, out=out)
    np.copysign(out, arr, out=out)
    maxval = float((1 << bit_depth) - 1)
    clamped = int(np.count_nonzero(out < 0.0)) + int(np.count_nonzero(out > maxval))
    np.clip(out, 0.0, maxval, out=out)
    return out, clamped


@pytest.mark.parametrize("bit_depth", [8, 16])
def test_in_place_rounding_matches_the_copysign_rule(bit_depth, rng):
    maxval = (1 << bit_depth) - 1
    edges = np.array([[-0.0, 0.0, -0.3, -0.5, -0.7, -1.5, -2.5, -1e9],
                      [0.5, 1.5, 2.5, 0.49999999999999994, maxval - 0.5, maxval + 0.5,
                       maxval + 0.49, 1e12]])
    planes = [edges, rng.integers(0, 65536, size=(64, 64)) + rng.uniform(-1.0, 1.0, (64, 64))]
    for arr in planes:
        expected, expected_clamped = _quantize_copysign(arr, bit_depth)
        q, clamped = quantize(arr, bit_depth)
        work = arr.copy()
        q_in_place, clamped_in_place = quantize_in_place(work, bit_depth)
        assert np.shares_memory(q_in_place.data, work)  # no plane was made
        for data in (q.data, q_in_place.data):
            assert data.tobytes() == expected.tobytes()  # bit for bit, the sign of zero too
        assert clamped == clamped_in_place == expected_clamped


def _quantize_every_pass(x, bit_depth):
    """quantize_in_place with the sign and clamp passes always run: the gate's reference."""
    negative = np.signbit(x)
    np.abs(x, out=x)
    x += 0.5
    np.floor(x, out=x)
    np.negative(x, out=x, where=negative)
    maxval = float((1 << bit_depth) - 1)
    clamped = int(np.count_nonzero(x < 0.0)) + int(np.count_nonzero(x > maxval))
    np.clip(x, 0.0, maxval, out=x)
    return x, clamped


@pytest.mark.parametrize("bit_depth", [8, 16])
def test_quantize_skipped_passes_change_no_bit(bit_depth):
    maxval = (1 << bit_depth) - 1
    bodies = [
        [0.3, 7.5, 1.0, 2.5],  # in range and above 0: the sign passes are skipped
        [0.0, 7.5, 1.0, 2.5],  # one +0.0: the sign passes run
        [-0.0, 7.5, 1.0, 2.5],  # one -0.0, which stays -0.0 until the clip
        [-0.4, 7.5, -1.5, 2.5],  # negatives, one rounding to -0.0
        [0.5, 1.5, 2.5, 3.5],  # ties at k + 0.5 round away from zero
    ]
    # the max rounds to maxval, rounds past it, or lies far above it
    tops = [maxval + 0.49, np.nextafter(maxval + 0.5, 0.0), maxval + 0.5, maxval + 7.0, 1e12]
    for body in bodies:
        for top in tops:
            arr = np.array([body, [top, 4.0, 5.5, 6.0]])
            got, clamped = quantize_in_place(arr.copy(), bit_depth)
            ref, ref_clamped = _quantize_every_pass(arr.copy(), bit_depth)
            assert np.array_equal(got.data, ref), (body, top)
            assert np.array_equal(np.signbit(got.data), np.signbit(ref)), (body, top)
            assert clamped == ref_clamped, (body, top)


@pytest.mark.parametrize("shape", [(512, 512), (130, 97), (97, 130), (33, 2), (2, 33), (7, 5)])
def test_fft_pair_equals_numpy_rfft2_and_irfft2(shape, rng):
    plane = rng.normal(100.0, 30.0, size=shape)
    before = plane.copy()
    spectrum = rfft2(plane)
    assert np.array_equal(spectrum, np.fft.rfft2(plane))
    assert np.array_equal(plane, before)  # the forward transform reads its plane only
    expected = np.fft.irfft2(spectrum, s=shape)
    assert np.array_equal(irfft2(spectrum.copy(), shape[1]), expected)
    out = np.empty(shape)
    assert irfft2(spectrum.copy(), shape[1], out=out) is out
    assert np.array_equal(out, expected)


def test_variance_equals_np_var_bit_for_bit(rng):
    planes = [
        rng.integers(0, 65536, size=(300, 300)),  # integer dtype: np.var sums in float64
        rng.integers(0, 65536, size=(512, 512)).astype(np.float64),  # a stored plane
        rng.normal(2e4, 3e3, size=(512, 512)),
        rng.uniform(-1.0, 1.0, size=(3, 1001)),
    ]
    for plane in planes:
        expected = float(np.var(plane))
        assert variance(plane, np.empty(plane.shape)) == expected, plane.dtype
        if plane.dtype == np.float64:
            assert variance(plane, plane) == expected  # deviations formed in the plane itself


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_rejects_nonfinite(bad):
    arr = np.ones((3, 3))
    arr[1, 2] = bad
    with pytest.raises(DomainError, match="^cannot quantize non-finite intensities$"):
        quantize(arr, 16)


@pytest.mark.parametrize("depth", [8, 16])
def test_save_pgm_writes_pgm_bytes(tmp_path, rng, depth):
    r = Raster(rng.integers(0, 1 << depth, size=(7, 5)).astype(float), depth)
    save_pgm(r, tmp_path / "a.pgm")
    assert (tmp_path / "a.pgm").read_bytes() == pgm_bytes(r)


def test_pgm_rejects_fractions_and_values_above_maxval(tmp_path):
    with pytest.raises(DomainError, match="non-integral"):
        pgm_bytes(Raster(np.full((2, 2), 3.5), 8))
    # above maxval is named first, even when the plane also holds fractions
    for plane in (np.full((2, 2), 256.0), np.full((2, 2), 300.5)):
        with pytest.raises(DomainError, match="exceeds maxval 255"):
            save_pgm(Raster(plane, 8), tmp_path / "x.pgm")
    assert not (tmp_path / "x.pgm").exists()  # checked before the file is opened
