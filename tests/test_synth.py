import json

import pytest

from taskfusion.synth import (ClipConfig, DatasetCorruptionError,
                              DatasetParseError, generate_clip, read_dataset,
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
