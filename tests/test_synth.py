import hashlib
import json
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from taskfusion import synth
from taskfusion import tensor as tl
from taskfusion.synth import (BOX_CONTRAST, ClipConfig, ClipRecord,
                              DatasetCorruptionError, DatasetParseError,
                              _make_script, _min_raster_side, backdrop,
                              box_to_rect, build_encoder, generate_clip,
                              read_dataset, write_dataset)
from taskfusion.tensor import ContractError, ShapeError

from oracles import no_change_script_reference

CFG = ClipConfig(frames=4, height=16, width=16, p_change=1.0)


def _edit_first_record(path, edit):
    lines = path.read_text().splitlines()
    raw = json.loads(lines[1])
    edit(raw)
    lines[1] = json.dumps(raw)
    path.write_text("\n".join(lines) + "\n")


def test_dataset_round_trip(tmp_path):
    path = tmp_path / "data"
    write_dataset(path, 3, 0, CFG)
    records = read_dataset(path)
    assert len(records) == 3
    for record in records:
        assert record.config == CFG
        assert record.labels == generate_clip(record.seed, CFG).labels


def test_invalid_stored_label_names_its_line(tmp_path):
    path = tmp_path / "data"
    write_dataset(path, 2, 0, CFG)

    def edit(raw):
        raw["labels"]["boxes"][0]["box"] = [2, 2, 0.1, 0.1]
    _edit_first_record(path, edit)
    with pytest.raises(DatasetParseError, match="line 2: box coords"):
        read_dataset(path)


@pytest.mark.parametrize("field, value, message", [
    ("noise", -0.5, "noise must be >= 0, got -0.5"),
    ("clip_duration_seconds", 0, "clip_duration_seconds must be > 0, got 0"),
    ("height", 8, "height and width must be at least 14 px for the scene "
                  "script, got 8x16"),
])
def test_invalid_stored_config_names_its_line(tmp_path, field, value,
                                              message):
    path = tmp_path / "data"
    write_dataset(path, 2, 0, CFG)

    def edit(raw):
        raw["config"][field] = value
    _edit_first_record(path, edit)
    with pytest.raises(DatasetParseError, match=f"line 2: {message}"):
        read_dataset(path)


@pytest.mark.parametrize("field, value, message", [
    ("frames", 16.0, "config frames must be int"),
    ("p_change", True, "config p_change must be float"),
])
def test_a_later_records_config_is_checked_on_its_own_line(
        tmp_path, field, value, message):
    """The value equals the earlier records' (16.0 == 16, True == 1.0), but
    its type is wrong, so the file is refused at that record's line."""
    path = tmp_path / "data"
    write_dataset(path, 3, 0, ClipConfig(frames=16, height=16, width=16,
                                         p_change=1.0))
    lines = path.read_text().splitlines()
    raw = json.loads(lines[3])
    raw["config"][field] = value
    lines[3] = json.dumps(raw)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetParseError, match=f"line 4: {message}$"):
        read_dataset(path)


def test_a_file_of_two_configs_gives_each_record_its_own(tmp_path):
    first = ClipConfig(frames=4, height=16, width=16, p_change=1.0)
    second = ClipConfig(frames=6, height=20, width=20, p_change=0.5,
                        noise=0.0)
    write_dataset(tmp_path / "a", 3, 0, first)
    write_dataset(tmp_path / "b", 3, 1, second)
    a = (tmp_path / "a").read_text().splitlines()
    b = (tmp_path / "b").read_text().splitlines()
    path = tmp_path / "mixed"
    path.write_text("\n".join([a[0], a[1], b[1], b[2], a[2], b[3], a[3]])
                    + "\n")
    records = read_dataset(path)
    assert [r.config for r in records] == [first, second, second, first,
                                           second, first]
    for record in records:
        assert record.clip().frames.shape[:3] == (
            record.config.frames, record.config.height, record.config.width)
        assert record.labels == generate_clip(record.seed,
                                              record.config).labels


def test_raster_minimum_is_where_the_scene_script_fits():
    """Below the minimum the script cannot place some seed's scene; from
    it on, every seed renders."""
    for side in range(0, 48):
        need = _min_raster_side(side)
        if side < need:
            with pytest.raises(ShapeError, match=f"at least {need} px"):
                ClipConfig(height=side, width=side)
            cfg = SimpleNamespace(frames=4, height=side, width=side,
                                  p_change=0.5, noise=0.04)
            with pytest.raises(ValueError):
                for seed in range(50):
                    _make_script(np.random.default_rng(seed), cfg)
        else:
            cfg = ClipConfig(frames=4, height=side, width=side)
            for seed in range(50):
                generate_clip(seed, cfg)
    assert _min_raster_side(16) == 14


def test_stored_label_disagreeing_with_regeneration_is_corruption(tmp_path):
    path = tmp_path / "data"
    write_dataset(path, 2, 0, CFG)

    def edit(raw):
        raw["labels"]["pnr_frame"] = raw["labels"]["pnr_frame"] % 3 + 1
    _edit_first_record(path, edit)
    with pytest.raises(DatasetCorruptionError, match="record 0"):
        read_dataset(path)


@pytest.mark.parametrize("image", [16, 32])
def test_labeled_boxes_contrast_with_the_backdrop(image):
    """At the keyframe every pixel of a labeled box differs from the
    backdrop by at least BOX_CONTRAST, summed over channels."""
    cfg = ClipConfig(frames=8, height=image, width=image, p_change=1.0)
    for seed in range(100):
        clip = generate_clip(seed, cfg)
        rng = np.random.Generator(np.random.PCG64(seed))
        background = backdrop(rng, image, image, cfg.noise)
        frame = clip.frames[clip.labels.pnr_frame]
        for box in clip.labels.boxes:
            x0, y0, w, h = box_to_rect(box.box, image, image)
            diff = np.abs(frame[y0:y0 + h, x0:x0 + w]
                          - background[y0:y0 + h, x0:x0 + w]).sum(axis=-1)
            assert diff.size and diff.min() >= BOX_CONTRAST, (seed, box.kind)


@pytest.mark.parametrize("kind", ["per_frame_token", "conv_grid"])
def test_embed_frame_is_the_frames_summary_row(kind):
    """These encoders see each frame on its own, so ``embed_frame`` gives
    the row ``encode`` gives the same frame of a clip."""
    enc = build_encoder(kind, np.random.default_rng(3), width=16, heads=2,
                        frames=4, image=16, patch=8)
    clip = generate_clip(2, ClipConfig(frames=4, height=16, width=16))
    rows = enc.encode([clip]).h_frames.data[0]
    for k, frame in enumerate(clip.frames):
        assert np.allclose(enc.embed_frame(frame), rows[k], atol=1e-12)


@pytest.mark.parametrize("kind", ["per_frame_token", "clip_token",
                                  "conv_grid"])
def test_encoding_a_batch_equals_encoding_each_clip(kind):
    """In float64, the rows ``encode`` gives a batch of four clips are the
    rows of each clip encoded alone, keyframe patch rows included, and,
    for the encoders that see each frame on its own, ``embed_frame``'s."""
    enc = build_encoder(kind, np.random.default_rng(8), width=16, heads=2,
                        frames=4, image=16, patch=8)
    rng = np.random.default_rng(9)
    for t in enc.parameters().values():  # far from uniform attention
        t.data[...] = rng.standard_normal(t.shape) * 0.3
    clips = [generate_clip(s, ClipConfig(frames=4, height=16, width=16))
             for s in range(4)]
    keyframes = np.array([0, 3, 1, 2])
    batch = enc.encode(clips)
    rows = batch.h_frames.data
    patches = batch.keyframe_patches(keyframes).data
    assert rows.dtype == np.float64 and rows.shape == (4, 4, 16)
    for i, clip in enumerate(clips):
        alone = enc.encode([clip])
        assert np.max(np.abs(rows[i] - alone.h_frames.data[0])) <= 1e-12
        alone_patches = alone.keyframe_patches(keyframes[i:i + 1]).data[0]
        assert np.max(np.abs(patches[i] - alone_patches)) <= 1e-12
        if kind != "clip_token":
            for k, frame in enumerate(clip.frames):
                assert np.max(np.abs(enc.embed_frame(frame) - rows[i, k])
                              ) <= 1e-12


def test_encode_rejects_an_empty_or_mixed_batch():
    enc = build_encoder("per_frame_token", np.random.default_rng(8),
                        width=16, heads=2, frames=4, image=16, patch=8)
    clips = [generate_clip(0, ClipConfig(frames=4, height=16, width=16)),
             generate_clip(1, ClipConfig(frames=3, height=16, width=16))]
    with pytest.raises(ContractError, match="at least one clip"):
        enc.encode([])
    with pytest.raises(ShapeError, match="differ in shape"):
        enc.encode(clips)


@pytest.mark.parametrize("kind", ["clip_token", "conv_grid"])
def test_clip_level_encoders_take_clips_up_to_their_frame_count(kind):
    """Their position table and pooling indices are built once, for the
    encoder's frame count: a shorter clip encodes, a longer one is
    refused."""
    enc = build_encoder(kind, np.random.default_rng(8), width=16, heads=2,
                        frames=4, image=16, patch=8)
    short = generate_clip(0, ClipConfig(frames=3, height=16, width=16))
    assert enc.encode([short]).h_frames.shape == (1, 3, 16)
    long = generate_clip(0, ClipConfig(frames=5, height=16, width=16))
    with pytest.raises(ShapeError, match="clips of 5 frames exceed"):
        enc.encode([long])


@pytest.mark.parametrize("image", [16, 32])
def test_conv_grid_pool_indices_are_the_cell_loops(image):
    """The pooling indices, built once with array arithmetic, are the ones
    the per-frame, per-cell loop gives."""
    enc = build_encoder("conv_grid", np.random.default_rng(8), width=16,
                        heads=2, frames=3, image=image, patch=8)
    g1, g = enc.grid1, enc.grid
    want = []
    for frame in range(3):
        base = frame * g1 * g1
        for i in range(g):
            for j in range(g):
                r0, c0 = 2 * i, 2 * j
                want.extend([base + r0 * g1 + c0, base + r0 * g1 + c0 + 1,
                             base + (r0 + 1) * g1 + c0,
                             base + (r0 + 1) * g1 + c0 + 1])
    assert np.array_equal(enc._pool_indices, want)


@pytest.mark.parametrize("kind", ["per_frame_token", "clip_token",
                                  "conv_grid"])
def test_embed_frame_is_off_the_tape(kind, recorded_nodes):
    enc = build_encoder(kind, np.random.default_rng(4), width=16, heads=2,
                        frames=4, image=16, patch=8)
    frame = generate_clip(5, ClipConfig(frames=4, height=16, width=16)).frames[1]
    h_frames, _ = enc._forward([frame[None]])
    assert h_frames.node is not None
    recorded_nodes.clear()
    embedding = enc.embed_frame(frame)
    assert recorded_nodes == []
    assert np.array_equal(embedding, h_frames.data[0, 0])


@pytest.mark.parametrize("kind", ["per_frame_token", "clip_token",
                                  "conv_grid"])
def test_keyframe_patch_rows_come_in_the_encoders_dtype(kind):
    """A float32 encoder makes its features and, when a float64 caller
    asks for them, its keyframe patch rows in float32."""
    with tl.precision("float32"):
        enc = build_encoder(kind, np.random.default_rng(6), width=16,
                            heads=2, frames=4, image=16, patch=8)
    clip = generate_clip(3, ClipConfig(frames=4, height=16, width=16))
    with tl.precision("float64"):
        features = enc.encode([clip])
        rows = features.keyframe_patches(np.array([2]))
    assert features.h_frames.data.dtype == np.float32
    assert rows.shape == (1, enc.patches, 16)
    assert rows.data.dtype == np.float32


# sha256 over seeds 0-7 of each clip's frames (raw float64 bytes) and its
# labels as sorted JSON; recorded before the clip script and the renderer
# were vectorised, which must leave every clip bit-identical.
CLIP_DIGESTS = {
    16: "27c27da4694cf2b4071b9efc9cb5a4abb1cecda2282e3d66914c026f8d461c1e",
    32: "108c3527f2a2e29a9e18bc1ec86dcb1be06a92cdb2a64305fdc8f400e04268be",
}


@pytest.mark.parametrize("image", sorted(CLIP_DIGESTS))
def test_clips_match_their_pinned_digests(image):
    cfg = ClipConfig(frames=8, height=image, width=image, p_change=0.5)
    h = hashlib.sha256()
    changes = set()
    for seed in range(8):
        clip = generate_clip(seed, cfg)
        changes.add(clip.labels.state_change)
        h.update(clip.frames.tobytes())
        h.update(json.dumps(asdict(clip.labels), sort_keys=True).encode())
    assert changes == {True, False}
    assert h.hexdigest() == CLIP_DIGESTS[image]


def _same_clip(a, b) -> bool:
    return (a.frames.dtype == b.frames.dtype
            and np.array_equal(a.frames, b.frames) and a.labels == b.labels
            and (a.seed, a.config) == (b.seed, b.config))


@pytest.mark.parametrize("cfg", [
    ClipConfig(frames=8, height=16, width=16, p_change=0.5),
    ClipConfig(frames=5, height=20, width=24, p_change=0.5, noise=0.0)])
def test_a_record_renders_the_clip_of_its_seed(tmp_path, cfg):
    """From ``read_dataset`` or built directly, on its first call and on
    later ones, bit for bit."""
    path = tmp_path / "data"
    write_dataset(path, 12, 4, cfg)
    records = read_dataset(path)
    assert {r.labels.state_change for r in records} == {True, False}
    built = [ClipRecord(r.seed, cfg, r.labels) for r in records]
    for record in records + built:
        want = generate_clip(record.seed, cfg)
        for _ in range(3):
            assert _same_clip(record.clip(), want), record.seed
    assert records == built


def test_records_restore_their_seeded_generator_on_every_clip():
    """A record keeps its seeded generator: repeated calls of one record,
    and interleaved calls of two, each render their seed's clip."""
    first, second = (ClipRecord(seed, CFG, None) for seed in (11, 12))
    want = {11: generate_clip(11, CFG), 12: generate_clip(12, CFG)}
    for record in (first, first, second, first, second, second, first):
        assert _same_clip(record.clip(), want[record.seed]), record.seed


def test_float32_frames_are_the_float64_frames_cast():
    cfg = ClipConfig(frames=8, height=32, width=32, p_change=0.5)
    for seed in range(12):
        frames = generate_clip(seed, cfg).frames
        with tl.precision("float32"):
            frames32 = generate_clip(seed, cfg).frames
            record_frames = ClipRecord(seed, cfg, None).clip().frames
        assert frames.dtype == np.float64
        assert frames32.dtype == record_frames.dtype == np.float32
        assert np.array_equal(frames32, frames.astype(np.float32))
        assert np.array_equal(record_frames, frames32)


def test_records_from_a_dataset_script_no_clip_again(tmp_path, monkeypatch):
    path = tmp_path / "data"
    write_dataset(path, 6, 0, CFG)
    calls = []
    make = synth._make_script

    def counting(rng, cfg):
        calls.append(1)
        return make(rng, cfg)

    monkeypatch.setattr(synth, "_make_script", counting)
    records = read_dataset(path)
    assert len(calls) == 6
    for _ in range(3):
        for record in records:
            record.clip()
    assert len(calls) == 6
    ClipRecord(records[0].seed, CFG, records[0].labels).clip()
    assert len(calls) == 7


# sha256 of ``write_dataset`` files, and of the scene scripts (hand path,
# object rect, change frame) ``read_dataset`` hands back with them, per
# (width, p_change, count, seed_base); recorded before dataset writes and
# reads dropped their redundant work, which must keep every byte and
# every script. A no-change record stores no box, so only the script
# digest pins its hand path; the p_change 0.0 files hold 1,000 of them.
DATASET_DIGESTS = {
    (14, 0.0, 500, 21): (
        "de23a91c5c048d0664ba8d008b7f8acd7cdc5d239edd5bd58c49552749b8fa8a",
        "4fcca86b37f6482edb60f614e9c14598a0ff83a620b147366d9b784b9947f3b2"),
    (32, 0.0, 500, 22): (
        "267ab8976fbb6a79afc0dc3b0beb37af8c349ba07388377efb577ba8d75199ff",
        "1ad964d22b83d66b2a36a23dc2dd179a177ec2e66588473a01c614b4a83589ff"),
    (14, 0.5, 200, 23): (
        "7c9edb21ec8b2b1e77cb908aa7997e7bb5c0a4c1fe674d6d59202b849f691c5b",
        "27d0bb9a0710549520ab727ce10de3f274da9d4c0e5a09415596c6587172b55b"),
    (32, 0.5, 200, 24): (
        "5640e1231e0659bdce499f833fec8322f70a5f5dcd076182cd57398e80194a79",
        "d38ac5eda68a9b4494104ba596a9c01bda232e29847de302070942e4a4428bb9"),
    (14, 1.0, 100, 25): (
        "19e6b413ad6835b2a9a21ad6c72bffbdfd9c966a5f6a155fbfe370942fc7b929",
        "7d4f288cf9283f9695618dca26dd2f63ebbd87227f5433ad34dc6da464b230d4"),
    (32, 1.0, 100, 26): (
        "48eafee2eb6b804a2fa2e664e35c41adc741246e3ddada8873607ea6db72eb93",
        "571546a1f04da31eccd6b182d3a31d384b2f276ee58eb0679a1f00ac15c7558a"),
}


@pytest.mark.parametrize("case", sorted(DATASET_DIGESTS))
def test_dataset_files_match_their_pinned_digests(tmp_path, case):
    width, p_change, count, seed_base = case
    cfg = ClipConfig(height=width, width=width, p_change=p_change)
    path = tmp_path / "data"
    write_dataset(path, count, seed_base, cfg)
    scripts = hashlib.sha256()
    for record in read_dataset(path):
        script = record.script
        scripts.update(script.hand_xy.tobytes())
        scripts.update(json.dumps([script.hand_side, script.object_rect,
                                   script.change_frame]).encode())
    digests = (hashlib.sha256(path.read_bytes()).hexdigest(),
               scripts.hexdigest())
    assert digests == DATASET_DIGESTS[case]


class _MidpointDraws:
    """A generator stand-in whose every draw is its range's midpoint: each
    candidate drift starts on the object, so every try is rejected."""

    def integers(self, lo, hi):
        return (lo + hi - 1) // 2

    def random(self):
        return 0.5


@pytest.mark.parametrize("side, frames", [(14, 16), (14, 2), (32, 16)])
def test_no_change_scripts_equal_the_whole_path_check(side, frames):
    """Rejecting a drift at its endpoints before building its path keeps
    every draw and every path, the fallback corner included."""
    cfg = ClipConfig(frames=frames, height=side, width=side, p_change=0.0)
    for seed in range(1000):
        script = _make_script(np.random.default_rng(seed), cfg)
        xy, obj = no_change_script_reference(np.random.default_rng(seed), cfg)
        assert script.object_rect == obj, seed
        assert script.hand_xy.dtype == xy.dtype, seed
        assert np.array_equal(script.hand_xy, xy), seed
    script = _make_script(_MidpointDraws(), cfg)
    xy, obj = no_change_script_reference(_MidpointDraws(), cfg)
    assert script.object_rect == obj
    assert np.array_equal(script.hand_xy, xy)
    assert np.array_equal(xy, np.zeros((frames, 2)))  # the fallback corner
