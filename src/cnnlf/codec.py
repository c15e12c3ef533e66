"""Toy intra codec: data generation and rate-distortion evaluation.

A deliberately small stand-in for a real intra encoder.  Planes are
coded as 8x8 blockwise orthonormal DCT-II with uniform quantization at
``Qstep = 2^((qp - 4) / 6)``; the bit cost is estimated as the empirical
zeroth-order entropy of the quantized coefficient stream (no actual
arithmetic coder).  That is enough to produce realistically spaced RD
points for QP 22..37 and matching compression artifacts to train and
evaluate the loop filter on, at desk scale.

Also here: aligned patch extraction for training data, PSNR, the
Bjontegaard delta-rate metric, plane file IO (PGM, raw YUV 4:2:0 with a
text sidecar) and a procedural generator for natural-looking test
images.
"""

from __future__ import annotations

import math
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ShapeError
from .network import NetworkConfig
from .tensor import round_half_away

BLOCK = 8
PSNR_CAP = 99.0
DEFAULT_QPS = (22, 27, 32, 37)
PATCH_SIZE = 35
PATCHSET_ARRAYS = ("decoded", "original", "qps", "image_ids", "y0", "x0")


def _dct_matrix(n: int = BLOCK) -> np.ndarray:
    """Orthonormal DCT-II basis: C @ C.T = I."""
    x = np.arange(n)
    c = np.cos((2 * x[None, :] + 1) * x[:, None] * np.pi / (2 * n))
    c *= np.sqrt(2.0 / n)
    c[0] *= np.sqrt(0.5)
    return c

_DCT = _dct_matrix()


def qstep_for_qp(qp: int) -> float:
    return 2.0 ** ((qp - 4) / 6.0)


def _to_blocks(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    return plane.reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK).transpose(0, 2, 1, 3)


def _from_blocks(blocks: np.ndarray) -> np.ndarray:
    nbh, nbw = blocks.shape[:2]
    return blocks.transpose(0, 2, 1, 3).reshape(nbh * BLOCK, nbw * BLOCK)


def encode_intra_plane(plane: np.ndarray, qp: int, bit_depth: int = 8):
    """Encode-decode one plane; returns (reconstruction, estimated bits).

    Dimensions that are not multiples of 8 are edge-padded for coding and
    cropped back.  Deterministic: no randomness anywhere.
    """
    plane = np.asarray(plane)
    if plane.ndim != 2:
        raise ShapeError(f"plane must be 2-d, got shape {plane.shape}")
    if not (0 <= qp <= 51):
        raise DataError(f"qp {qp} outside [0, 51]")
    pmax = (1 << bit_depth) - 1
    h, w = plane.shape
    ph = (BLOCK - h % BLOCK) % BLOCK
    pw = (BLOCK - w % BLOCK) % BLOCK
    padded = np.pad(plane.astype(np.float64), ((0, ph), (0, pw)), mode="edge")
    blocks = _to_blocks(padded)
    coef = np.einsum("ij,abjk,lk->abil", _DCT, blocks, _DCT)
    qstep = qstep_for_qp(qp)
    q = round_half_away(coef / qstep)
    symbols, counts = np.unique(q.astype(np.int64), return_counts=True)
    probs = counts / counts.sum()
    entropy = float(-(probs * np.log2(probs)).sum())
    bits = entropy * q.size
    recon = np.einsum("ji,abjk,kl->abil", _DCT, q * qstep, _DCT)
    recon = _from_blocks(recon)[:h, :w]
    recon = np.clip(round_half_away(recon), 0, pmax)
    return recon.astype(np.uint8 if bit_depth <= 8 else np.uint16), bits


@dataclass(frozen=True)
class PatchProvenance:
    image_id: str
    y0: int
    x0: int
    qp: int


@dataclass
class PatchSet:
    """Aligned (decoded, original) training patches with exact provenance.

    ``decoded`` and ``original`` are stacked (N, P, P) arrays; ``qps`` and
    ``provenance`` are lists of N entries.
    """

    decoded: np.ndarray
    original: np.ndarray
    qps: list
    provenance: list

    def __len__(self) -> int:
        return len(self.decoded)

    def __iter__(self):
        return iter(zip(self.decoded, self.original, self.qps))

    def items(self):
        return list(zip(self.decoded, self.original, self.qps))


def make_dataset(images, qps=DEFAULT_QPS, patch: int = PATCH_SIZE,
                 rng_seed: int = 0, bit_depth: int = 8) -> PatchSet:
    """Encode every image at every QP and tile aligned decoded/original patches.

    ``images`` is a sequence of (image_id, plane).  Tiling is
    non-overlapping from the top-left corner; images smaller than one
    patch are skipped with a warning entry in the returned provenance-free
    sense (a message on stderr via warnings).  The patch order is shuffled
    with the seeded RNG.
    """
    import warnings as _warnings
    decoded_list, original_list, qp_list, prov = [], [], [], []
    for image_id, plane in images:
        plane = np.asarray(plane)
        h, w = plane.shape
        if h < patch or w < patch:
            _warnings.warn(f"image {image_id!r} ({h}x{w}) smaller than patch {patch}; skipped")
            continue
        for qp in qps:
            recon, _ = encode_intra_plane(plane, qp, bit_depth)
            for by in range(h // patch):
                for bx in range(w // patch):
                    y0, x0 = by * patch, bx * patch
                    decoded_list.append(recon[y0:y0 + patch, x0:x0 + patch])
                    original_list.append(plane[y0:y0 + patch, x0:x0 + patch])
                    qp_list.append(int(qp))
                    prov.append(PatchProvenance(str(image_id), y0, x0, int(qp)))
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(len(decoded_list))

    def stacked(patches: list) -> np.ndarray:
        if not patches:
            return np.zeros((0, patch, patch), np.uint8 if bit_depth <= 8 else np.uint16)
        return np.stack([patches[i] for i in order])

    return PatchSet(stacked(decoded_list), stacked(original_list),
                    [qp_list[i] for i in order], [prov[i] for i in order])


def psnr(a: np.ndarray, b: np.ndarray, bit_depth: int = 8) -> float:
    """Peak signal-to-noise ratio in dB, capped at the 99.0 sentinel."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"psnr needs equal dims, got {a.shape} vs {b.shape}")
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float((diff * diff).mean())
    if mse == 0.0:
        return PSNR_CAP
    peak = (1 << bit_depth) - 1
    return min(10.0 * math.log10(peak * peak / mse), PSNR_CAP)


@dataclass(frozen=True)
class RDPoint:
    bitrate: float
    psnr: float
    qp: int | None = None


@dataclass
class RDCurve:
    """RD points sorted by bitrate; bitrates must be positive and distinct, PSNRs finite."""

    points: list

    def __post_init__(self):
        if not all(math.isfinite(p.bitrate) and math.isfinite(p.psnr) for p in self.points):
            raise DataError("bitrates and PSNRs must be finite")
        self.points = sorted(self.points, key=lambda p: p.bitrate)
        rates = [p.bitrate for p in self.points]
        if any(r <= 0 for r in rates):
            raise DataError("bitrates must be strictly positive")
        if len(set(rates)) != len(rates):
            raise DataError("bitrates must be distinct")

    @property
    def bitrates(self) -> np.ndarray:
        return np.array([p.bitrate for p in self.points])

    @property
    def psnrs(self) -> np.ndarray:
        return np.array([p.psnr for p in self.points])


def bd_rate(anchor: RDCurve, test: RDCurve) -> float:
    """Bjontegaard delta rate of ``test`` against ``anchor``, in percent.

    Cubic fit of log10(bitrate) against quality per curve, exact
    polynomial integration of the difference over the common quality
    interval.  Negative values mean the test curve needs less bitrate at
    equal quality.
    """
    for name, curve in (("anchor", anchor), ("test", test)):
        if len(curve.points) < 4:
            raise DataError(f"{name} curve has {len(curve.points)} points, need >= 4")
    lo = max(anchor.psnrs.min(), test.psnrs.min())
    hi = min(anchor.psnrs.max(), test.psnrs.max())
    if hi <= lo:
        raise DataError(f"no overlapping quality interval: [{lo}, {hi}]")
    p_anchor = np.polyfit(anchor.psnrs, np.log10(anchor.bitrates), 3)
    p_test = np.polyfit(test.psnrs, np.log10(test.bitrates), 3)
    int_anchor = np.polyint(p_anchor)
    int_test = np.polyint(p_test)
    area_anchor = np.polyval(int_anchor, hi) - np.polyval(int_anchor, lo)
    area_test = np.polyval(int_test, hi) - np.polyval(int_test, lo)
    avg_diff = (area_test - area_anchor) / (hi - lo)
    return float((10.0 ** avg_diff - 1.0) * 100.0)


def rd_curve_for_planes(coded, bit_depth: int = 8) -> RDCurve:
    """Average (bpp, psnr) per QP over (qp, original, reconstruction, bits, npixels) rows."""
    per_qp: dict = {}
    for qp, original, recon, bits, npixels in coded:
        per_qp.setdefault(qp, []).append((bits / npixels, psnr(original, recon, bit_depth)))
    points = []
    for qp, rows in sorted(per_qp.items()):
        bpp = float(np.mean([r[0] for r in rows]))
        quality = float(np.mean([r[1] for r in rows]))
        points.append(RDPoint(bitrate=bpp, psnr=quality, qp=qp))
    return RDCurve(points)


# ---------------------------------------------------------------------------
# plane file IO

def read_pgm(path) -> np.ndarray:
    """Binary 8-bit PGM (P5, maxval <= 255)."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise DataError(f"{path}: not a binary PGM (P5) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if not data[start:pos].isdigit():
            raise DataError(f"{path}: bad PGM header: expected width, height and maxval, "
                            f"got {data[start:pos][:16]!r}")
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if min(fields) < 1:
        raise DataError(f"{path}: bad PGM header: zero width, height or maxval")
    if maxval > 255:
        raise DataError(f"{path}: 16-bit PGM not supported (maxval {maxval})")
    pixels = np.frombuffer(data[pos:pos + width * height], dtype=np.uint8)
    if pixels.size != width * height:
        raise DataError(f"{path}: truncated pixel data")
    return pixels.reshape(height, width).copy()


def write_pgm(path, plane: np.ndarray) -> None:
    plane = np.asarray(plane, dtype=np.uint8)
    h, w = plane.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(plane.tobytes())


def read_yuv_descriptor(path) -> dict:
    """Sidecar text file with one key=value per line: width, height, frames."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: descriptor is not UTF-8 text (byte {exc.start})") from None
    desc = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        try:
            desc[key.strip()] = int(value.strip())
        except ValueError:
            raise DataError(f"{path}: descriptor line {line!r} is not key=integer") from None
    for key in ("width", "height", "frames"):
        if key not in desc:
            raise DataError(f"{path}: descriptor missing {key!r}")
        if desc[key] < 1:
            raise DataError(f"{path}: descriptor {key} must be positive, got {desc[key]}")
    return desc


def read_yuv420(path, descriptor_path=None) -> list:
    """Raw planar YUV 4:2:0, 8-bit; returns [(Y, U, V), ...] per frame.

    The descriptor defaults to ``<path>.txt``.
    """
    path = Path(path)
    desc = read_yuv_descriptor(descriptor_path or str(path) + ".txt")
    w, h, frames = desc["width"], desc["height"], desc["frames"]
    if w % 2 or h % 2:
        raise DataError(f"{path}: 4:2:0 requires even dimensions, got {w}x{h}")
    frame_bytes = w * h * 3 // 2
    data = path.read_bytes()
    if len(data) < frame_bytes * frames:
        raise DataError(f"{path}: file holds {len(data)} bytes, descriptor implies "
                        f"{frame_bytes * frames}")
    out = []
    for i in range(frames):
        base = i * frame_bytes
        y = np.frombuffer(data, np.uint8, w * h, base).reshape(h, w)
        u = np.frombuffer(data, np.uint8, w * h // 4, base + w * h).reshape(h // 2, w // 2)
        v = np.frombuffer(data, np.uint8, w * h // 4, base + w * h * 5 // 4).reshape(h // 2, w // 2)
        out.append((y.copy(), u.copy(), v.copy()))
    return out


def write_yuv420(path, frames) -> None:
    with open(path, "wb") as f:
        for y, u, v in frames:
            f.write(np.asarray(y, np.uint8).tobytes())
            f.write(np.asarray(u, np.uint8).tobytes())
            f.write(np.asarray(v, np.uint8).tobytes())
    h, w = np.asarray(frames[0][0]).shape
    Path(str(path) + ".txt").write_text(f"width={w}\nheight={h}\nframes={len(frames)}\n")


def write_rd_csv(path, curve: RDCurve) -> None:
    lines = ["qp,bpp,psnr"]
    for p in curve.points:
        lines.append(f"{p.qp if p.qp is not None else ''},{p.bitrate:.6f},{p.psnr:.4f}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_rd_csv(path) -> RDCurve:
    """Read a curve written by :func:`write_rd_csv`; raise DataError if malformed."""
    points, where = [], "not UTF-8 text"
    try:
        for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines()):
            where = f"line {number + 1} {line[:40]!r} is not qp,bpp,psnr"
            if number and line.strip():
                qp, bpp, quality = line.split(",")
                points.append(RDPoint(float(bpp), float(quality), int(qp) if qp else None))
        where = "not an RD curve"
        return RDCurve(points)
    except ValueError as exc:  # UnicodeDecodeError and DataError are ValueErrors too
        raise DataError(f"{path}: {where} ({exc})") from None


def save_patchset(path, patchset: PatchSet) -> None:
    """Persist a PatchSet as a compressed npz archive with full provenance."""
    np.savez_compressed(
        path,
        decoded=patchset.decoded,
        original=patchset.original,
        qps=np.array(patchset.qps, dtype=np.int64),
        image_ids=np.array([p.image_id for p in patchset.provenance]),
        y0=np.array([p.y0 for p in patchset.provenance], dtype=np.int64),
        x0=np.array([p.x0 for p in patchset.provenance], dtype=np.int64),
    )


def load_patchset(path) -> PatchSet:
    """Read a patch set written by :func:`save_patchset`; raise DataError if malformed.

    Pixels must lie in ``[0, pixel_max]`` and QPs in ``[0, qp_max]``, the
    input contract of :func:`cnnlf.network._check_inputs`, at 16 bits for
    ``uint16`` pixels and 8 bits otherwise.  A file that cannot be opened
    raises ``OSError``.
    """
    with open(path, "rb") as f:
        try:
            with np.load(f, allow_pickle=False) as z:
                arrays = {name: z[name] for name in z.files}
        # a corrupt member header can also make zipfile seek before the file's start
        # (OSError) or name a compression method it lacks (NotImplementedError)
        except (ValueError, TypeError, EOFError, OSError, NotImplementedError,
                zipfile.BadZipFile, zlib.error) as exc:
            raise DataError(f"{path}: not a patch set archive ({exc})") from None
    for name in PATCHSET_ARRAYS:
        if name not in arrays:
            raise DataError(f"{path}: patch set has no {name!r} array")
    lengths = {name: arrays[name].shape[:1] for name in PATCHSET_ARRAYS}
    decoded, original = arrays["decoded"], arrays["original"]
    if len(set(lengths.values())) != 1 or decoded.ndim != 3 or decoded.shape != original.shape:
        raise DataError(f"{path}: patch set arrays disagree in length or shape: {lengths}")
    for name in ("qps", "y0", "x0"):
        if arrays[name].ndim != 1 or arrays[name].dtype.kind not in "iu":
            raise DataError(f"{path}: {name!r} is not a 1-d integer array")
    config = NetworkConfig(bit_depth=16 if decoded.dtype == np.uint16 else 8)
    for name, limit in (("decoded", config.pixel_max), ("original", config.pixel_max),
                        ("qps", config.qp_max)):
        values = arrays[name]
        if values.dtype.kind not in "iuf":
            raise DataError(f"{path}: {name!r} holds {values.dtype}, not numbers")
        if values.size and not (values.min() >= 0 and values.max() <= limit):
            raise DataError(f"{path}: {name!r} values outside [0, {limit}]: "
                            f"min={values.min()}, max={values.max()}")
    qps = [int(q) for q in arrays["qps"]]
    prov = [PatchProvenance(str(i), int(y), int(x), q)
            for i, y, x, q in zip(arrays["image_ids"], arrays["y0"], arrays["x0"], qps)]
    return PatchSet(decoded, original, qps, prov)


# ---------------------------------------------------------------------------
# procedural test content

def make_test_image(height: int, width: int, seed: int = 0) -> np.ndarray:
    """Procedural grayscale content: smooth shading, many hard edges, light texture.

    Edge-dense cartoon-like structure on smooth ramps is deliberately
    chosen: blockwise transform coding turns it into the blocking and
    ringing artifacts a loop filter can actually learn to remove, at
    every QP.  Deterministic in the seed, so no photographs need to ship
    with the repository.

    Any ``height, width >= 1`` is accepted; a non-positive side raises
    :class:`ShapeError`.  Discs have radius at least 3, so on a plane
    whose shorter side is below 18 px every disc has exactly that radius;
    from 18 px up the random draws, and so the output, do not depend on
    that floor.
    """
    if height < 1 or width < 1:
        raise ShapeError(f"make_test_image needs height, width >= 1, got {height}x{width}")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    # smooth base: diagonal ramp plus a low-frequency wave
    img = 110.0 + 60.0 * (xx / width - 0.5) * rng.uniform(-1, 1) \
        + 60.0 * (yy / height - 0.5) * rng.uniform(-1, 1)
    img += 35.0 * np.sin(2 * np.pi * (xx * rng.uniform(0.3, 0.9) / width
                                      + yy * rng.uniform(0.3, 0.9) / height)
                         + rng.uniform(0, 2 * np.pi))
    # dense hard-edged structure: filled rectangles, outlines, discs, bars
    for _ in range(max(10, height * width // 400)):
        kind = rng.integers(0, 4)
        level = rng.uniform(-75, 75)
        y0 = int(rng.integers(0, height))
        x0 = int(rng.integers(0, width))
        hh = int(rng.integers(4, max(height // 4, 6)))
        ww = int(rng.integers(4, max(width // 4, 6)))
        if kind == 0:
            img[y0:y0 + hh, x0:x0 + ww] += level
        elif kind == 1:  # outline
            t = int(rng.integers(1, 3))
            img[y0:y0 + hh, x0:x0 + ww] += level
            img[y0 + t:y0 + hh - t, x0 + t:x0 + ww - t] -= level
        elif kind == 2:  # disc
            r = rng.uniform(3, max(3.0, min(height, width) / 6))
            img[(yy - y0) ** 2 + (xx - x0) ** 2 < r * r] += level
        else:  # oriented bar
            angle = rng.uniform(0, np.pi)
            c, s = np.cos(angle), np.sin(angle)
            dist = np.abs((xx - x0) * s - (yy - y0) * c)
            img[dist < rng.uniform(1.0, 3.0)] += level
    # gentle correlated texture so flat areas are not sterile
    noise = rng.normal(0, 2.5, size=img.shape)
    for _ in range(2):
        noise = (noise + np.roll(noise, 1, 0) + np.roll(noise, -1, 0)
                 + np.roll(noise, 1, 1) + np.roll(noise, -1, 1)) / 5.0
    img += noise
    return np.clip(np.round(img), 0, 255).astype(np.uint8)
