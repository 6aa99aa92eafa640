"""Feed adapter + parser: wire format, framing, determinism."""
import json

import pandas as pd
import pytest

from repro import synth_data
from repro.core import feed


def test_serialize_parse_roundtrip():
    pdf = synth_data.tweets_pdf(50, seed=3)
    back = feed.parse(feed.serialize(pdf))
    pd.testing.assert_frame_equal(
        back[pdf.columns].reset_index(drop=True), pdf, check_dtype=False
    )


def test_wire_format_nests_user():
    pdf = synth_data.tweets_pdf(1, seed=3)
    line = feed.serialize(pdf).decode().splitlines()[0]
    rec = json.loads(line)
    assert "user" in rec and "screen_name" in rec["user"] and "name" in rec["user"]
    assert "user_screen_name" not in rec


def test_record_size_close_to_paper():
    """Paper: each tweet record is ~450 bytes (§ 7.1)."""
    pdf = synth_data.tweets_pdf(200, seed=3)
    raw = feed.serialize(pdf)
    per_record = len(raw) / 200
    assert 350 <= per_record <= 600


def test_adapter_framing_counts():
    a = feed.TweetAdapter(seed=1)
    frames = list(a.frames(1000, frame_size=300))
    assert len(frames) == 4  # 300+300+300+100
    assert a.records_emitted == 1000


def test_adapter_last_frame_partial():
    a = feed.TweetAdapter(seed=1)
    frames = list(a.frames(10, frame_size=4))
    assert [len(feed.parse(f)) for f in frames] == [4, 4, 2]


def test_adapter_ids_sequential_across_frames():
    a = feed.TweetAdapter(seed=1)
    ids = []
    for f in a.frames(100, frame_size=30):
        ids.extend(feed.parse(f)["id"].tolist())
    assert ids == list(range(100))


def test_adapter_deterministic_in_seed():
    f1 = list(feed.TweetAdapter(seed=9).frames(50, frame_size=25))
    f2 = list(feed.TweetAdapter(seed=9).frames(50, frame_size=25))
    assert f1 == f2
    f3 = list(feed.TweetAdapter(seed=10).frames(50, frame_size=25))
    assert f1 != f3


def test_paper_batch_sizes():
    assert feed.BATCH_1X == 420
    assert feed.BATCH_4X == 4 * feed.BATCH_1X
    assert feed.BATCH_16X == 16 * feed.BATCH_1X


def test_parse_typed_created_at():
    pdf = synth_data.tweets_pdf(5, seed=3)
    back = feed.parse(feed.serialize(pdf))
    assert pd.api.types.is_datetime64_any_dtype(back["created_at"])


def test_parse_skips_blank_lines():
    pdf = synth_data.tweets_pdf(3, seed=3)
    raw = feed.serialize(pdf) + b"\n\n"
    assert len(feed.parse(raw)) == 3


def test_parse_rejects_missing_required_field():
    pdf = synth_data.tweets_pdf(1, seed=3)
    line = feed.serialize(pdf).decode().splitlines()[0]
    rec = json.loads(line)
    del rec["country"]
    with pytest.raises(ValueError, match="country"):
        feed.parse((json.dumps(rec) + "\n").encode())


def test_parse_rejects_missing_user_fields():
    pdf = synth_data.tweets_pdf(1, seed=3)
    line = feed.serialize(pdf).decode().splitlines()[0]
    rec = json.loads(line)
    rec["user"] = {"screen_name": "x"}  # no name
    with pytest.raises(ValueError, match="user"):
        feed.parse((json.dumps(rec) + "\n").encode())


def test_parse_coerces_field_types():
    pdf = synth_data.tweets_pdf(1, seed=3)
    line = feed.serialize(pdf).decode().splitlines()[0]
    rec = json.loads(line)
    rec["id"] = str(rec["id"])          # wire sent id as a string
    rec["latitude"] = int(rec["latitude"])
    out = feed.parse((json.dumps(rec) + "\n").encode())
    assert out["id"].iloc[0] == pdf["id"].iloc[0]
    assert isinstance(out["latitude"].iloc[0], float)
