"""Data feed: adapter + parser (§ 2.3).

An AsterixDB feed has an **adapter**, which obtains raw bytes from an
external source and frames them, and a **parser**, which turns the bytes
into ADM records. The reproduction keeps both stages real so their costs
land on the measured path:

* :class:`TweetAdapter` plays the external source + adapter: it emits
  frames of newline-delimited JSON-encoded tweets (~450 bytes each,
  matching § 7.1's record size);
* :class:`TweetParser` parses a frame back into typed records (a pandas
  frame — the reproduction's record-batch representation).

``serialize``/``parse`` round-trip through real JSON so parse cost per
record — the bottleneck that keeps the paper's single-intake "Static
Ingestion" flat in Fig 24 — is measurable, not assumed. ``serialize``
writes strict JSON (no ``NaN``/``Infinity``), which is all ``parse``
accepts. ``parse`` decodes each record with orjson, a compiled JSON
decoder, straight from the frame's bytes, and still builds and checks
one record at a time, as AsterixDB's ADM parser does.
"""
import io
import json
from datetime import datetime

import orjson
import pandas as pd

from repro import synth_data

#: Paper batch sizes (records per computing-job invocation, § 7.1).
BATCH_1X = 420
BATCH_4X = 1680
BATCH_16X = 6720


class TweetAdapter:
    """Generates and frames tweets as an external socket source would.

    ``frames(n_records, frame_size)`` yields ``bytes`` frames. The
    generator is deterministic in ``seed`` and record ids are globally
    sequential, so the oracle can regenerate identical input.
    """

    def __init__(self, seed: int = 7):
        self.seed = seed
        self.records_emitted = 0

    def frames(self, n_records: int, frame_size: int = BATCH_1X):
        emitted = 0
        while emitted < n_records:
            take = min(frame_size, n_records - emitted)
            pdf = synth_data.tweets_pdf(
                take, seed=self.seed, start_id=self.records_emitted
            )
            frame = serialize(pdf)
            self.records_emitted += take
            emitted += take
            yield frame


class TweetParser:
    """Parses NDJSON frames into typed record batches."""

    def parse(self, frame: bytes) -> pd.DataFrame:
        return parse(frame)


def serialize(pdf: pd.DataFrame) -> bytes:
    """Record batch -> NDJSON bytes (the adapter's wire format)."""
    buf = io.StringIO()
    for rec in pdf.to_dict("records"):
        rec = dict(rec)
        rec["created_at"] = rec["created_at"].isoformat()
        # nest user fields as in the paper's tweet shape
        rec["user"] = {
            "screen_name": rec.pop("user_screen_name"),
            "name": rec.pop("user_name"),
        }
        buf.write(json.dumps(rec, allow_nan=False))
        buf.write("\n")
    return buf.getvalue().encode()


#: Required fields and their types, mirroring the open TweetType plus the
#: fields the UDFs rely on — the parser validates each record against
#: this the way AsterixDB's ADM parser type-checks against the datatype.
_TWEET_FIELD_TYPES = {
    "id": int,
    "text": str,
    "country": str,
    "latitude": float,
    "longitude": float,
    "created_at": str,
}
#: ``id`` is an int64 column; an id outside it is refused, not wrapped
#: or rounded.
_ID_MIN, _ID_MAX = -2**63, 2**63 - 1


def _coerce(value, typ):
    """``value`` as ``typ``. orjson decodes an integer beyond 64 bits as a
    rounded float, which ``int()`` would turn into a wrong id, or, at
    -2**63, into one inside int64; such a float is refused here."""
    if typ is int and isinstance(value, float) and not -2.0**63 < value < 2.0**63:
        raise ValueError(f"record id {value!r} outside int64")
    return typ(value)


def parse(frame: bytes) -> pd.DataFrame:
    """NDJSON bytes -> typed record batch (the parser stage).

    This is a deliberate per-record typed parse — JSON decode, field
    presence + type validation, timestamp conversion, record
    construction — matching what AsterixDB's parser does to build ADM
    records. The frame's bytes are split at line ends (``\\n``, ``\\r``),
    so a raw U+2028 inside a string stays in its record, and each line
    is decoded by ``orjson.loads``, which refuses ``NaN``/``Infinity``
    and escaped lone surrogates with a ``ValueError``. Each timestamp goes
    through the C ISO-8601 parser (``datetime.fromisoformat``,
    microsecond resolution); the frame's column is ``datetime64[ns]``.
    Parsing is the dominant per-record ingestion cost in the paper (it
    is what keeps single-intake Static Ingestion flat in Fig 24), so it
    must not be short-cut with a vectorized reader: a faster decoder
    lowers the per-record cost, and the cost stays per record.
    """
    rows = []
    for line in frame.splitlines():
        if not line:
            continue
        rec = orjson.loads(line)
        for name, typ in _TWEET_FIELD_TYPES.items():
            if name not in rec:
                raise ValueError(f"record missing required field {name!r}")
            if not isinstance(rec[name], typ):
                rec[name] = _coerce(rec[name], typ)
        if not _ID_MIN <= rec["id"] <= _ID_MAX:
            raise ValueError(f"record id {rec['id']} outside int64")
        user = rec.pop("user")
        if "screen_name" not in user or "name" not in user:
            raise ValueError("record missing user fields")
        rec["user_screen_name"] = str(user["screen_name"])
        rec["user_name"] = str(user["name"])
        rec["created_at"] = datetime.fromisoformat(rec["created_at"])
        rows.append(rec)
    return pd.DataFrame(rows)
