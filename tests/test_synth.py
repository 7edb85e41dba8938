import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from taskfusion.synth import (BOX_CONTRAST, ClipConfig, DatasetCorruptionError,
                              DatasetParseError, _make_script, box_to_rect,
                              build_encoder, generate_clip, read_dataset,
                              write_dataset)

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
        backdrop = _make_script(rng, cfg).background
        frame = clip.frames[clip.labels.pnr_frame]
        for box in clip.labels.boxes:
            x0, y0, w, h = box_to_rect(box.box, image, image)
            diff = np.abs(frame[y0:y0 + h, x0:x0 + w]
                          - backdrop[y0:y0 + h, x0:x0 + w]).sum(axis=-1)
            assert diff.size and diff.min() >= BOX_CONTRAST, (seed, box.kind)


@pytest.mark.parametrize("kind", ["per_frame_token", "conv_grid"])
def test_embed_frame_is_the_frames_summary_row(kind):
    """These encoders see each frame on its own, so ``embed_frame`` gives
    the row ``encode`` gives the same frame of a clip."""
    enc = build_encoder(kind, np.random.default_rng(3), width=16, heads=2,
                        frames=4, image=16, patch=8)
    clip = generate_clip(2, ClipConfig(frames=4, height=16, width=16))
    rows = enc.encode(clip).h_frames.data[0]
    for k, frame in enumerate(clip.frames):
        assert np.allclose(enc.embed_frame(frame), rows[k], atol=1e-12)


@pytest.mark.parametrize("kind", ["per_frame_token", "clip_token",
                                  "conv_grid"])
def test_embed_frame_is_off_the_tape(kind, recorded_nodes):
    enc = build_encoder(kind, np.random.default_rng(4), width=16, heads=2,
                        frames=4, image=16, patch=8)
    frame = generate_clip(5, ClipConfig(frames=4, height=16, width=16)).frames[1]
    h_frames, _ = enc._forward(frame[None])
    assert h_frames.node is not None
    recorded_nodes.clear()
    embedding = enc.embed_frame(frame)
    assert recorded_nodes == []
    assert np.array_equal(embedding, h_frames.data[0, 0])


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
