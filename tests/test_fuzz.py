"""Property-based input checks: malformed run records and config values
are input errors (``ParseError``, exit 2), whatever their text or bytes."""

import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgtns.analysis import RunRecord
from cgtns.cli import EXIT_CONFIG, RunConfig, main
from cgtns.errors import ParseError

H2 = str(Path(__file__).parent.parent / "src" / "cgtns" / "fixtures" / "h2.fcidump")

FUZZ = settings(max_examples=150, deadline=None, database=None)

VALID_RECORD = json.loads(
    RunRecord(
        kind="3s[2s]",
        n_active_parameters=560,
        n_frozen_parameters=96,
        reference_determinants=400,
        reference_csfs=175,
        reduction_pct=-40.0,
        final_energy=-3.1,
        trace_path="trace.csv",
        e_oracle=-3.2,
        error_vs_oracle=0.1,
        seed=1,
    ).to_json()
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def altered_records(draw):
    """A valid record with one key dropped, added or given another value."""
    doc = dict(VALID_RECORD)
    key = draw(st.sampled_from(sorted(doc)) | st.text())
    if key in doc and draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = draw(json_values)
    return json.dumps(doc)


def check_record(data):
    """``from_json`` raises ParseError and nothing else, and whatever it
    accepts is a record that round-trips."""
    try:
        record = RunRecord.from_json(data)
    except ParseError:
        return
    assert RunRecord.from_json(record.to_json()) == record


@FUZZ
@given(st.text() | st.binary())
@example("[" * 100_000)
@example(b'{"a": ' * 50_000)
def test_run_record_from_arbitrary_input(data):
    check_record(data)


@FUZZ
@given(altered_records() | json_values.map(json.dumps))
def test_run_record_from_altered_json(text):
    check_record(text)
    check_record(text.encode("utf-16"))


#: How each numeric key is read: by parse_config (int, float) or, after it,
#: by the value resolution ("count": an integer or "auto"; "occupations":
#: comma-separated values in [0, 2] or "auto").
NUMERIC_KEYS = {
    f.name: f.type for f in fields(RunConfig) if f.type in ("int", "float")
} | {"n_electrons": "count", "ms2": "count", "spin2": "count", "nat_occ": "occupations"}


def is_malformed(kind: str, value: str) -> bool:
    """True unless ``value`` reads as a finite value of ``kind`` (the range
    checks of individual keys aside)."""
    value = value.strip()
    if value == "auto" and kind in ("count", "occupations"):
        return False
    try:
        if kind in ("int", "count"):
            int(value)
        elif kind == "float":
            return not math.isfinite(float(value))
        else:
            return not all(0.0 <= float(tok) <= 2.0 for tok in value.split(","))
    except ValueError:
        return True
    return False


#: Text that parse_config reads as one value: no line break, no comment.
line_text = st.text(
    st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"), exclude_characters="#")
)
numeric_text = st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "0x10", "1.5", "1,2", "2.5", "1e3", "", "auto", "--1"]
)


@FUZZ
@given(st.sampled_from(sorted(NUMERIC_KEYS)), line_text | numeric_text)
@example("seed", "1_000.0")
@example("nat_occ", "1,,1")
def test_malformed_numeric_value_exits_2_before_any_output(key, value):
    kind = NUMERIC_KEYS[key]
    if not is_malformed(kind, value):
        return
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--integrals", H2, "--out", str(out)]) == EXIT_CONFIG
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["run.cfg"]


@FUZZ
@given(st.sampled_from(sorted(NUMERIC_KEYS)), st.binary())
@example("seed", b"\xff")
def test_undecodable_value_exits_2_before_any_output(key, value):
    try:
        text = value.decode("utf-8")
    except UnicodeDecodeError:  # the whole file is unreadable
        text = None
    if text is not None and (
        not is_malformed(NUMERIC_KEYS[key], text) or "#" in text or len(text.splitlines()) > 1
    ):
        return
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_bytes(key.encode() + b" = " + value + b"\n")
        assert main(["run", "--config", str(cfg), "--integrals", H2, "--out", str(out)]) == EXIT_CONFIG
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["run.cfg"]
