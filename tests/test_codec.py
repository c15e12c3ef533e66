import numpy as np
import pytest

from cnnlf.codec import (DEFAULT_QPS, RDCurve, RDPoint, _DCT, _dct_plane, _idct_plane,
                         _round_snapped, bd_rate, encode_intra_plane, load_patchset,
                         make_dataset, make_test_image, psnr, qstep_for_qp, read_pgm,
                         read_yuv420, save_patchset, write_pgm, write_yuv420)
from cnnlf.errors import DataError, ShapeError

from .conftest import damaged
from .oracles import bd_rate_trapezoid, encode_intra_blocks

ORACLE_SHAPES = [(120, 208), (60, 104), (37, 53), (1, 1)]


def tie_plane():
    """A 16x24 plane of six blocks, each zero but for one pixel of 32: at QP 22 its DC,
    (0, 4), (4, 0) and (4, 4) coefficients over Qstep 8 are exactly +-0.5."""
    plane = np.zeros((16, 24), dtype=np.uint8)
    for j, (y, x) in enumerate([(0, 0), (1, 1), (3, 5), (7, 7), (2, 6), (6, 3)]):
        plane[8 * (j // 3) + y, 8 * (j % 3) + x] = 32
    return plane


class TestDct:
    def test_basis_is_orthonormal(self):
        assert np.abs(_DCT @ _DCT.T - np.eye(8)).max() < 1e-12

    def test_matches_scipy(self, rng):
        import scipy.fft
        block = rng.uniform(0, 255, size=(8, 8))
        ours = _DCT @ block @ _DCT.T
        assert np.abs(ours - scipy.fft.dctn(block, norm="ortho")).max() < 1e-9

    def test_round_trip_without_quantization(self, rng):
        block = rng.uniform(0, 255, size=(8, 8))
        coef = _DCT @ block @ _DCT.T
        back = _DCT.T @ coef @ _DCT
        assert np.abs(back - block).max() < 1e-9

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_plane_transforms_match_the_per_block_definition(self, shape):
        img = make_test_image(*shape, seed=shape[0]).astype(np.float64)
        padded = np.pad(img, ((0, -shape[0] % 8), (0, -shape[1] % 8)), mode="edge")
        coef, back = _dct_plane(padded), _idct_plane(padded)
        for y in range(0, padded.shape[0], 8):
            for x in range(0, padded.shape[1], 8):
                block = padded[y:y + 8, x:x + 8]
                assert np.abs(coef[y:y + 8, x:x + 8] - _DCT @ block @ _DCT.T).max() < 1e-12
                assert np.abs(back[y:y + 8, x:x + 8] - _DCT.T @ block @ _DCT).max() < 1e-12


class TestEncodeIntraPlane:
    def test_qstep_formula(self):
        assert qstep_for_qp(4) == 1.0
        assert abs(qstep_for_qp(22) - 2.0 ** 3) < 1e-12
        assert abs(qstep_for_qp(37) - 2.0 ** 5.5) < 1e-12

    def test_qp4_near_lossless(self):
        img = make_test_image(64, 64, seed=2)
        recon, _ = encode_intra_plane(img, 4)
        assert psnr(recon, img) > 50.0

    def test_constant_image(self):
        img = np.full((32, 32), 137, dtype=np.uint8)
        recon, bits = encode_intra_plane(img, 27)
        assert np.abs(recon.astype(int) - 137).max() <= 1  # DC within one step
        assert bits / img.size < 0.2  # near-zero entropy

    def test_monotone_in_qp(self):
        img = make_test_image(96, 96, seed=3)
        prev_bits, prev_psnr = None, None
        for qp in DEFAULT_QPS:
            recon, bits = encode_intra_plane(img, qp)
            quality = psnr(recon, img)
            if prev_bits is not None:
                assert bits <= prev_bits
                assert quality <= prev_psnr
            prev_bits, prev_psnr = bits, quality

    def test_deterministic(self):
        img = make_test_image(40, 48, seed=4)
        a = encode_intra_plane(img, 32)
        b = encode_intra_plane(img, 32)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_non_multiple_of_8_pad_and_crop(self):
        img = make_test_image(37, 43, seed=5)
        recon, _ = encode_intra_plane(img, 27)
        assert recon.shape == (37, 43)

    def test_invalid_qp(self):
        with pytest.raises(DataError, match="qp"):
            encode_intra_plane(np.zeros((8, 8), dtype=np.uint8), 52)

    @pytest.mark.parametrize("pixel, signs", [((0, 0), (1, 1, 1, 1)), ((1, 1), (1, -1, -1, 1)),
                                              ((7, 7), (1, 1, 1, 1))])
    def test_quantizer_ties_round_away_from_zero(self, pixel, signs):
        # DC / 8 and the (0, 4), (4, 0), (4, 4) coefficients / 8 are exactly +-0.5
        block = np.zeros((8, 8))
        block[pixel] = 32
        q = _round_snapped(_dct_plane(block) / qstep_for_qp(22))
        assert (q[0, 0], q[0, 4], q[4, 0], q[4, 4]) == signs

    @pytest.mark.parametrize("freq", [(0, 4), (4, 0), (4, 4)])
    def test_reconstruction_ties_round_away_from_zero(self, freq):
        # at Qstep 4 a DC of 2 adds 1 to each pixel and a (0, 4), (4, 0) or (4, 4) of 1
        # adds exactly +-0.5, with the signs of the basis rows
        q = np.zeros((8, 8))
        q[0, 0], q[freq] = 2, 1
        rows, cols = (np.sign(_DCT[f]) if f else np.ones(8) for f in freq)
        exact = 1 + 0.5 * np.outer(rows, cols)
        got = _round_snapped(_idct_plane(q * qstep_for_qp(16)))
        assert np.array_equal(got, np.floor(exact + 0.5))

    @pytest.mark.parametrize("qp", DEFAULT_QPS)
    @pytest.mark.parametrize("shape", ORACLE_SHAPES + ["ties"])
    def test_matches_the_per_block_reference(self, shape, qp):
        img = tie_plane() if shape == "ties" else make_test_image(*shape, seed=shape[1])
        recon, bits = encode_intra_plane(img, qp)
        ref, ref_bits = encode_intra_blocks(img, qp)
        assert np.array_equal(recon, ref) and recon.dtype == ref.dtype
        assert bits == ref_bits


class TestMakeTestImage:
    def test_every_small_shape_is_valid_and_deterministic(self):
        # chroma planes of small 4:2:0 frames go well below the 18 px at
        # which the disc radius range used to become empty
        for h in range(1, 21):
            for w in range(1, 21):
                img = make_test_image(h, w, seed=h * 100 + w)
                assert img.dtype == np.uint8 and img.shape == (h, w)
                assert np.array_equal(img, make_test_image(h, w, seed=h * 100 + w))

    @pytest.mark.parametrize("shape", [(0, 8), (8, 0), (-1, 4)])
    def test_non_positive_side_names_the_shape(self, shape):
        with pytest.raises(ShapeError, match=f"{shape[0]}x{shape[1]}"):
            make_test_image(*shape)


class TestMakeDataset:
    def test_70x70_four_qps_gives_16_pairs(self):
        img = make_test_image(70, 70, seed=6)
        ds = make_dataset([("a", img)], qps=DEFAULT_QPS, patch=35, rng_seed=0)
        assert len(ds) == 16

    def test_same_seed_same_order(self):
        imgs = [(f"i{k}", make_test_image(70, 70, seed=k)) for k in range(3)]
        a = make_dataset(imgs, rng_seed=5)
        b = make_dataset(imgs, rng_seed=5)
        assert [p.qp for p in a.provenance] == [p.qp for p in b.provenance]
        for x, y in zip(a.decoded, b.decoded):
            assert np.array_equal(x, y)

    def test_small_image_skipped_with_warning(self, tmp_path):
        with pytest.warns(UserWarning, match="smaller than patch"):
            ds = make_dataset([("tiny", np.zeros((20, 20), dtype=np.uint8))])
        assert len(ds) == 0
        save_patchset(tmp_path / "ds.npz", ds)
        again = load_patchset(tmp_path / "ds.npz")
        assert ds.decoded.shape == again.original.shape == (0, 35, 35)
        assert again.qps == again.provenance == []

    @pytest.mark.parametrize("bit_depth, dtype", [(8, np.uint8), (10, np.uint16)])
    def test_patches_are_stacked_arrays(self, tmp_path, bit_depth, dtype):
        img = make_test_image(70, 35, seed=8).astype(dtype) << (bit_depth - 8)
        ds = make_dataset([("a", img)], qps=(22, 37), patch=35, bit_depth=bit_depth)
        save_patchset(tmp_path / "ds.npz", ds)
        for patches in (ds, load_patchset(tmp_path / "ds.npz")):
            for stack in (patches.decoded, patches.original):
                assert isinstance(stack, np.ndarray)
                assert stack.shape == (4, 35, 35) and stack.dtype == dtype

    def test_patches_rederivable_from_provenance(self):
        imgs = {f"i{k}": make_test_image(70, 70, seed=40 + k) for k in range(2)}
        ds = make_dataset(list(imgs.items()), qps=(27, 37), rng_seed=1)
        for j in range(len(ds)):
            p = ds.provenance[j]
            recon, _ = encode_intra_plane(imgs[p.image_id], p.qp)
            assert np.array_equal(ds.decoded[j], recon[p.y0:p.y0 + 35, p.x0:p.x0 + 35])
            assert np.array_equal(ds.original[j],
                                  imgs[p.image_id][p.y0:p.y0 + 35, p.x0:p.x0 + 35])


class TestPsnr:
    def test_identical_images_hit_cap(self):
        img = make_test_image(16, 16, seed=7)
        assert psnr(img, img) == 99.0

    def test_full_scale_error_is_zero_db(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        b = np.full((8, 8), 255, dtype=np.uint8)
        assert psnr(a, b) == 0.0

    def test_single_pixel_difference(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = a.copy()
        b[1, 2] = 16
        # mse 16 over 16 pixels
        assert abs(psnr(a, b) - 10 * np.log10(255 ** 2 / 16)) < 1e-9
        assert abs(psnr(a, b) - 36.0896) < 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))


def fixture_curves():
    anchor = RDCurve([RDPoint(0.5, 32.0, 22), RDPoint(0.9, 34.5, 27),
                      RDPoint(1.6, 37.2, 32), RDPoint(2.9, 40.1, 37)])
    test = RDCurve([RDPoint(0.44, 32.2, 22), RDPoint(0.82, 34.9, 27),
                    RDPoint(1.50, 37.5, 32), RDPoint(2.80, 40.3, 37)])
    return anchor, test


class TestBdRate:
    def test_identity_is_exactly_zero(self):
        anchor, _ = fixture_curves()
        assert bd_rate(anchor, anchor) == 0.0

    def test_halved_bitrate_is_minus_fifty(self):
        anchor, _ = fixture_curves()
        halved = RDCurve([RDPoint(p.bitrate / 2, p.psnr, p.qp) for p in anchor.points])
        assert abs(bd_rate(anchor, halved) - (-50.0)) < 1e-6

    def test_matches_independent_numeric_integration(self):
        anchor, test = fixture_curves()
        got = bd_rate(anchor, test)
        want = bd_rate_trapezoid(anchor.bitrates, anchor.psnrs,
                                 test.bitrates, test.psnrs)
        assert abs(got - want) < 0.01
        assert got < 0  # the fixture test curve is cheaper at equal quality

    def test_sign_inverse_identity(self):
        anchor, test = fixture_curves()
        fwd = bd_rate(anchor, test)
        rev = bd_rate(test, anchor)
        assert abs(fwd - (-rev / (1 + rev / 100.0))) < 0.05

    def test_needs_four_points(self):
        anchor, _ = fixture_curves()
        short = RDCurve(anchor.points[:3])
        with pytest.raises(DataError, match="need >= 4"):
            bd_rate(anchor, short)

    def test_no_quality_overlap(self):
        anchor, _ = fixture_curves()
        shifted = RDCurve([RDPoint(p.bitrate, p.psnr + 20, p.qp) for p in anchor.points])
        with pytest.raises(DataError, match="overlap"):
            bd_rate(anchor, shifted)

    def test_duplicate_bitrates_rejected(self):
        with pytest.raises(DataError, match="distinct"):
            RDCurve([RDPoint(1.0, 30.0), RDPoint(1.0, 31.0),
                     RDPoint(2.0, 33.0), RDPoint(3.0, 35.0)])


class TestPlaneIO:
    def test_pgm_round_trip(self, tmp_path):
        img = make_test_image(30, 20, seed=8)
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    @pytest.mark.parametrize("value", [1000, 256, -1, np.nan])
    def test_pgm_write_of_pixels_outside_8_bits_is_data_error(self, tmp_path, value):
        plane = make_test_image(4, 5, seed=8).astype(np.float64)
        plane[2, 3] = value
        with pytest.raises(DataError, match=r"pixel values outside \[0, 255\]"):
            write_pgm(tmp_path / "x.pgm", plane)
        assert not (tmp_path / "x.pgm").exists()

    def test_pgm_with_comment(self, tmp_path):
        img = np.arange(6, dtype=np.uint8).reshape(2, 3)
        (tmp_path / "c.pgm").write_bytes(b"P5\n# a comment\n3 2\n255\n" + img.tobytes())
        assert np.array_equal(read_pgm(tmp_path / "c.pgm"), img)

    def test_pgm_bad_magic(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P6\n1 1\n255\nx")
        with pytest.raises(DataError, match="P5"):
            read_pgm(tmp_path / "bad.pgm")

    @pytest.mark.parametrize("header", [b"P5\nx 2\n255\n", b"P5\n3 -2\n255\n",
                                        b"P5\n3 2\n", b"P5\n3 2\nff\n", b"P5 3",
                                        b"P5\n0 2\n255\n", b"P5\n3 2\n255\n\1\2"])
    def test_pgm_bad_header_or_pixels_is_data_error(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header)
        with pytest.raises(DataError, match="bad.pgm"):
            read_pgm(path)

    @pytest.mark.parametrize("data, message", [
        (b"P5\n2 1\n100\n\xc8\x32", "maxval 100"),
        (b"P5\n2 1\n254\n\x10\x20", "maxval 254"),
        (b"P5\n2 1\n255\n\x10\x20\x30", "1 bytes after")],
        ids=["maxval-100-sample-200", "maxval-254", "trailing-byte"])
    def test_pgm_other_maxval_or_trailing_bytes_is_data_error(self, tmp_path, data, message):
        path = tmp_path / "odd.pgm"
        path.write_bytes(data)
        with pytest.raises(DataError, match=message) as exc:
            read_pgm(path)
        assert "odd.pgm" in str(exc.value)

    def test_yuv420_round_trip(self, tmp_path):
        y = make_test_image(16, 24, seed=9)
        u = make_test_image(8, 12, seed=10)
        v = make_test_image(8, 12, seed=11)
        path = tmp_path / "clip.yuv"
        write_yuv420(path, [(y, u, v)])
        frames = read_yuv420(path)
        assert len(frames) == 1
        for a, b in zip(frames[0], (y, u, v)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("extra", [5, -5, 24], ids=["5-bytes-over", "5-bytes-short",
                                                       "one-frame-over"])
    def test_yuv420_of_another_size_than_described_is_data_error(self, tmp_path, extra):
        path = tmp_path / "clip.yuv"
        write_yuv420(path, [tuple(make_test_image(h, w, seed=c) for c, (h, w)
                                  in enumerate(((4, 4), (2, 2), (2, 2))))])
        data = path.read_bytes()
        path.write_bytes(data + bytes(extra) if extra > 0 else data[:extra])
        with pytest.raises(DataError, match=f"clip.yuv: file holds {24 + extra} bytes, "
                                            f"descriptor implies 24"):
            read_yuv420(path)

    def test_yuv_missing_descriptor_key(self, tmp_path):
        path = tmp_path / "c.yuv"
        path.write_bytes(b"\0" * 24)
        (tmp_path / "c.yuv.txt").write_text("width=4\nheight=4\n")
        with pytest.raises(DataError, match="frames"):
            read_yuv420(path)

    @pytest.mark.parametrize("line", ["height=-4", "height=x"])
    def test_yuv_bad_descriptor_value_is_data_error(self, tmp_path, line):
        path = tmp_path / "c.yuv"
        path.write_bytes(b"\0" * 24)
        (tmp_path / "c.yuv.txt").write_text(f"width=4\n{line}\nframes=1\n")
        with pytest.raises(DataError, match="c.yuv.txt"):
            read_yuv420(path)

    def test_patchset_round_trip(self, tmp_path):
        ds = make_dataset([("a", make_test_image(40, 40, seed=2))], qps=(22, 37), patch=16)
        save_patchset(tmp_path / "ds.npz", ds)
        again = load_patchset(tmp_path / "ds.npz")
        assert again.qps == ds.qps and again.provenance == ds.provenance
        assert all(np.array_equal(a, b) for a, b in zip(again.decoded, ds.decoded))
        assert all(np.array_equal(a, b) for a, b in zip(again.original, ds.original))

    def test_patchset_not_an_archive(self, tmp_path):
        (tmp_path / "ds.npz").write_bytes(b"not a zip file")
        with pytest.raises(DataError, match="ds.npz"):
            load_patchset(tmp_path / "ds.npz")

    def test_patchset_missing_array(self, tmp_path):
        ds = make_dataset([("a", make_test_image(40, 40, seed=2))], qps=(22,), patch=16)
        save_patchset(tmp_path / "ds.npz", ds)
        with np.load(tmp_path / "ds.npz") as z:
            arrays = {k: z[k] for k in z.files if k != "original"}
        np.savez(tmp_path / "cut.npz", **arrays)
        with pytest.raises(DataError, match="cut.npz.*'original'"):
            load_patchset(tmp_path / "cut.npz")

    def test_patchset_lengths_disagree(self, tmp_path):
        ds = make_dataset([("a", make_test_image(40, 40, seed=2))], qps=(22,), patch=16)
        save_patchset(tmp_path / "ds.npz", ds)
        with np.load(tmp_path / "ds.npz") as z:
            arrays = {k: z[k] for k in z.files}
        arrays["qps"] = arrays["qps"][1:]
        np.savez(tmp_path / "short.npz", **arrays)
        with pytest.raises(DataError, match="short.npz.*length"):
            load_patchset(tmp_path / "short.npz")

    def test_yuv_descriptor_not_utf8_is_data_error(self, tmp_path):
        path = tmp_path / "c.yuv"
        path.write_bytes(b"\0" * 24)
        (tmp_path / "c.yuv.txt").write_bytes(b"width=4\nheight=4\nframes=1 \xff\n")
        with pytest.raises(DataError, match="c.yuv.txt.*UTF-8"):
            read_yuv420(path)

    @pytest.mark.parametrize("defect", ["2-d qps", "qp 52", "qp -1", "pixel 256",
                                        "pixel -1", "pixel nan"])
    def test_patchset_values_outside_the_input_contract(self, tmp_path, defect):
        ds = make_dataset([("a", make_test_image(40, 40, seed=2))], qps=(22,), patch=16)
        save_patchset(tmp_path / "ds.npz", ds)
        with np.load(tmp_path / "ds.npz") as z:
            arrays = {k: z[k] for k in z.files}
        name, value = {"2-d qps": ("qps", arrays["qps"][:, None]), "qp 52": ("qps", 52),
                       "qp -1": ("qps", -1), "pixel 256": ("original", 256),
                       "pixel -1": ("decoded", -1), "pixel nan": ("decoded", np.nan)}[defect]
        if np.ndim(value):
            arrays[name] = value
        else:
            arrays[name] = arrays[name].astype(type(value))
            arrays[name].flat[-1] = value
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(DataError, match=f"bad.npz.*{name}"):
            load_patchset(tmp_path / "bad.npz")

    def test_patchset_of_patches_without_pixels_is_data_error(self, tmp_path):
        ds = make_dataset([("a", make_test_image(40, 40, seed=2))], qps=(22,), patch=16)
        save_patchset(tmp_path / "ds.npz", ds)
        with np.load(tmp_path / "ds.npz") as z:
            arrays = {k: z[k] for k in z.files}
        np.savez(tmp_path / "empty.npz", **{k: v[:0] if v.ndim else v for k, v in arrays.items()})
        assert len(load_patchset(tmp_path / "empty.npz")) == 0
        for name in ("decoded", "original"):
            arrays[name] = arrays[name][:, :0]
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(DataError, match="bad.npz: 'decoded'.*hold no pixels"):
            load_patchset(tmp_path / "bad.npz")

    def test_patchset_pixels_are_checked_at_its_bit_depth(self, tmp_path):
        img = make_test_image(40, 40, seed=2).astype(np.uint16) << 2
        ds = make_dataset([("a", img)], qps=(22,), patch=16, bit_depth=10)
        save_patchset(tmp_path / "ds.npz", ds)
        assert load_patchset(tmp_path / "ds.npz").bit_depth == 10
        with np.load(tmp_path / "ds.npz") as z:
            arrays = {k: z[k] for k in z.files}
        arrays["original"].flat[-1] = 1023
        np.savez(tmp_path / "top.npz", **arrays)
        assert load_patchset(tmp_path / "top.npz").original.flat[-1] == 1023
        arrays["original"].flat[-1] = 1024
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(DataError, match="bad.npz: 'original'.*1023"):
            load_patchset(tmp_path / "bad.npz")
        # a set that records no bit depth keeps the dtype rule: 16 bits for uint16
        del arrays["bit_depth"]
        np.savez(tmp_path / "old.npz", **arrays)
        assert load_patchset(tmp_path / "old.npz").bit_depth == 16

    @pytest.mark.parametrize("value", [np.int64(0), np.int64(17), np.float64(8), np.array([8])])
    def test_patchset_bad_bit_depth_is_data_error(self, tmp_path, value):
        ds = make_dataset([("a", make_test_image(40, 40, seed=2))], qps=(22,), patch=16)
        save_patchset(tmp_path / "ds.npz", ds)
        with np.load(tmp_path / "ds.npz") as z:
            arrays = {k: z[k] for k in z.files}
        arrays["bit_depth"] = value
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(DataError, match="bad.npz: 'bit_depth'"):
            load_patchset(tmp_path / "bad.npz")

    def test_patchset_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_patchset(tmp_path / "absent.npz")

    def test_damaged_patchset_loads_or_is_data_error(self, tmp_path):
        ds = make_dataset([("a", make_test_image(40, 40, seed=2))], qps=(22, 37), patch=16)
        save_patchset(tmp_path / "ds.npz", ds)
        for data in damaged((tmp_path / "ds.npz").read_bytes(), 3000):
            (tmp_path / "hurt.npz").write_bytes(data)
            try:
                load_patchset(tmp_path / "hurt.npz")
            except DataError as exc:
                assert "hurt.npz" in str(exc)

    def test_damaged_pgm_reads_or_is_data_error(self, tmp_path):
        write_pgm(tmp_path / "x.pgm", make_test_image(12, 10, seed=3))
        for data in damaged((tmp_path / "x.pgm").read_bytes(), 1500):
            (tmp_path / "hurt.pgm").write_bytes(data)
            try:
                plane = read_pgm(tmp_path / "hurt.pgm")
            except DataError as exc:
                assert "hurt.pgm" in str(exc)
            else:
                write_pgm(tmp_path / "again.pgm", plane)
                assert np.array_equal(read_pgm(tmp_path / "again.pgm"), plane)

    @pytest.mark.parametrize("hurt", ["clip.yuv", "clip.yuv.txt"])
    def test_damaged_yuv420_reads_or_is_data_error(self, tmp_path, hurt):
        frames = [tuple(make_test_image(h, w, seed=10 * f + c)
                        for c, (h, w) in enumerate(((8, 6), (4, 3), (4, 3)))) for f in range(2)]
        write_yuv420(tmp_path / "clip.yuv", frames)
        for data in damaged((tmp_path / hurt).read_bytes(), 1500):
            (tmp_path / hurt).write_bytes(data)
            try:
                got = read_yuv420(tmp_path / "clip.yuv")
            except DataError as exc:
                assert "clip.yuv" in str(exc)
            else:
                write_yuv420(tmp_path / "again.yuv", got)
                again = read_yuv420(tmp_path / "again.yuv")
                assert len(again) == len(got) >= 1
                assert all(np.array_equal(a, b) for fa, fb in zip(again, got)
                           for a, b in zip(fa, fb))
