"""Feed adapter + parser: wire format, framing, determinism."""
import json

from datetime import datetime

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=50, deadline=None)
@given(st.lists(st.datetimes(min_value=datetime(1700, 1, 1),
                             max_value=datetime(2200, 12, 31)),
                min_size=1, max_size=8))
def test_parse_created_at_matches_pandas(stamps):
    """The per-record C parse gives what ``pd.Timestamp`` gives for naive
    timestamps down to the microsecond, in a ``datetime64[ns]`` column."""
    pdf = synth_data.tweets_pdf(len(stamps), seed=3).assign(
        created_at=pd.to_datetime(stamps))
    back = feed.parse(feed.serialize(pdf))
    assert back["created_at"].dtype == "datetime64[ns]"
    want = pd.Series([pd.Timestamp(s.isoformat()) for s in stamps],
                     name="created_at")
    pd.testing.assert_series_equal(back["created_at"], want)


@pytest.mark.parametrize("bad", ["2019-13-01T00:00:00", "yesterday", ""])
def test_parse_rejects_malformed_timestamp(bad):
    line = feed.serialize(synth_data.tweets_pdf(1, seed=3)).decode()
    rec = json.loads(line)
    rec["created_at"] = bad
    with pytest.raises(ValueError):
        feed.parse((json.dumps(rec) + "\n").encode())


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


def _wire(rec: dict, ensure_ascii: bool = True) -> bytes:
    return (json.dumps(rec, ensure_ascii=ensure_ascii) + "\n").encode()


def _one_record() -> dict:
    return json.loads(feed.serialize(synth_data.tweets_pdf(1, seed=3)))


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"])
def test_parse_keeps_raw_unicode_line_separator_in_record(sep):
    """A raw U+2028 (or U+2029, NEL) is a valid character inside a JSON
    string; only the wire's ``\\n`` ends a record."""
    rec = _one_record()
    rec["text"] = f"before{sep}after"
    frame = _wire(rec, ensure_ascii=False) * 2
    assert sep.encode() in frame
    out = feed.parse(frame)
    assert len(out) == 2
    assert out["text"].tolist() == [f"before{sep}after"] * 2


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_parse_rejects_non_finite_tokens(value):
    frame = _wire({**_one_record(), "latitude": value})  # NaN, Infinity
    with pytest.raises(ValueError):
        feed.parse(frame)


def test_serialize_writes_strict_json():
    pdf = synth_data.tweets_pdf(1, seed=3).assign(latitude=float("nan"))
    with pytest.raises(ValueError):
        feed.serialize(pdf)


@pytest.mark.parametrize("big", [12345678901234567890123, 2**63,
                                 -2**63 - 1, "12345678901234567890123"])
def test_parse_rejects_id_beyond_int64(big):
    with pytest.raises(ValueError, match="int64"):
        feed.parse(_wire({**_one_record(), "id": big}))


def test_parse_accepts_int64_extremes():
    rec = _one_record()
    frame = b"".join(_wire({**rec, "id": i}) for i in (-2**63, 2**63 - 1))
    assert feed.parse(frame)["id"].tolist() == [-2**63, 2**63 - 1]


def test_parse_rejects_lone_surrogate_escape():
    """``"\\ud800"`` is valid JSON syntax but no Unicode text: it could
    not be stored as UTF-8, so the parser refuses it."""
    frame = _wire({**_one_record(), "text": "a\ud800b"})
    assert b"\\ud800" in frame
    with pytest.raises(ValueError):
        feed.parse(frame)


def test_parse_keeps_open_type_fields():
    """TweetType is open: a field the datatype does not name is kept."""
    rec = _one_record()
    rec["lang"] = "en"
    rec["entities"] = {"hashtags": ["a", "b"]}
    out = feed.parse(_wire(rec))
    assert out["lang"].tolist() == ["en"]
    assert out["entities"].tolist() == [{"hashtags": ["a", "b"]}]


def _reference_parse(frame: bytes) -> pd.DataFrame:
    """The wire format read with ``json.loads``, one line per record."""
    rows = []
    for line in frame.split(b"\n"):
        if line:
            rec = json.loads(line)
            user = rec.pop("user")
            rec["user_screen_name"] = user["screen_name"]
            rec["user_name"] = user["name"]
            rec["created_at"] = pd.Timestamp(rec["created_at"])
            rows.append(rec)
    return pd.DataFrame(rows)


_finite = st.floats(allow_nan=False, allow_infinity=False)
#: any UTF-8 text, with line ends and the characters JSON must escape
#: drawn often
_text = st.text(st.characters(codec="utf-8")
                | st.sampled_from("\u2028\u2029\x85\r\n\"\\"))
_tweet = st.fixed_dictionaries({
    "id": st.integers(-2**63, 2**63 - 1),
    "text": _text,
    "country": st.text(max_size=4),
    "latitude": _finite,
    "longitude": _finite,
    "created_at": st.datetimes(min_value=datetime(1700, 1, 1),
                               max_value=datetime(2200, 12, 31)),
    "user": st.fixed_dictionaries({"screen_name": st.text(max_size=8),
                                   "name": st.text(max_size=8)}),
})


@settings(max_examples=60, deadline=None)
@given(st.lists(_tweet, min_size=1, max_size=6), st.booleans())
def test_parse_matches_json_reference(tweets, ensure_ascii):
    frame = b"".join(
        _wire({**t, "created_at": t["created_at"].isoformat()}, ensure_ascii)
        for t in tweets)
    pd.testing.assert_frame_equal(feed.parse(frame), _reference_parse(frame))
