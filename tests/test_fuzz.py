"""Property-based input checks: malformed run records, checkpoints, traces
and config values are input errors (``ParseError``, exit 2; a checkpoint's
vectors that do not fit its ansatz raise ``DimensionError``), whatever
their text or bytes."""

import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgtns.analysis import RunRecord, export_trace, read_trace_csv
from cgtns.cli import EXIT_CONFIG, RunConfig, main
from cgtns.correlators import AnsatzSpec
from cgtns.energy import EnergyEvaluator
from cgtns.errors import DimensionError, ParseError
from cgtns.fock import build_csf_basis, enumerate_onvs
from cgtns.hamiltonian import HamiltonianOperator, parse_fcidump
from cgtns import optimizer
from cgtns.optimizer import (
    PtConfig,
    cold_start,
    load_checkpoint,
    run_parallel_tempering,
    save_checkpoint,
)

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


SPACE = enumerate_onvs(4, 2, 0.0)
PROBLEM = build_csf_basis(SPACE, 0.0), HamiltonianOperator(parse_fcidump(H2), SPACE)


def _valid_artifacts() -> tuple[str, str]:
    """A checkpoint and a trace of a short H2 `3s[2s]sel` ensemble, whose
    ansatz has every optional field set."""
    spec = AnsatzSpec("3s[2s]sel", selected_sites=(0, 1, 2))
    evaluator = EnergyEvaluator(spec, 4, *PROBLEM)
    config = PtConfig(n_replicas=2, sweeps=2, swap_interval=1, seed=1)
    start = cold_start(evaluator.engine, np.random.default_rng(1))
    ensemble = run_parallel_tempering(config, evaluator, start)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(ensemble, Path(tmp) / "checkpoint.json")
        export_trace(ensemble.trace, Path(tmp) / "trace.csv")
        return tuple((Path(tmp) / name).read_text() for name in ("checkpoint.json", "trace.csv"))


VALID_CHECKPOINT, VALID_TRACE = _valid_artifacts()


@st.composite
def altered_checkpoints(draw):
    """A valid checkpoint with one field dropped or given another JSON
    value: a top-level field, or one of a nested object (the config, the
    ansatz, a replica, an RNG state)."""
    doc = json.loads(VALID_CHECKPOINT)
    target, key = doc, draw(st.sampled_from(sorted(doc)))
    nested = doc[key]
    if isinstance(nested, list) and nested and isinstance(nested[0], dict):
        nested = nested[draw(st.integers(0, len(nested) - 1))]
    if isinstance(nested, dict) and nested and draw(st.booleans()):
        target, key = nested, draw(st.sampled_from(sorted(nested)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(json_values)
    return json.dumps(doc)


@st.composite
def altered_traces(draw):
    """A valid trace with one cell of one line dropped or replaced."""
    lines = VALID_TRACE.splitlines()
    row = draw(st.integers(0, len(lines) - 1))
    cells = lines[row].split(",")
    col = draw(st.integers(0, len(cells) - 1))
    if draw(st.booleans()):
        del cells[col]
    else:
        cells[col] = draw(line_text | numeric_text)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def check_loads(load, data, name):
    """``load`` raises ParseError or DimensionError, and nothing else, on
    ``data`` written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        try:
            load(path)
        except (ParseError, DimensionError):
            pass


def load_checkpoint_h2(path):
    return load_checkpoint(path, *PROBLEM)


def test_valid_checkpoint_and_trace_load():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        path.write_text(VALID_CHECKPOINT)
        ensemble = load_checkpoint_h2(path)
        assert ensemble.evaluator.spec.selected_sites == (0, 1, 2)
        path = Path(tmp) / "trace.csv"
        path.write_text(VALID_TRACE)
        assert len(read_trace_csv(path)) == len(VALID_TRACE.splitlines()) - 1


def load_altered_checkpoint(**ansatz):
    doc = json.loads(VALID_CHECKPOINT)
    doc["ansatz"].update(ansatz)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        path.write_text(json.dumps(doc))
        return load_checkpoint_h2(path)


def test_checkpoint_of_an_ansatz_without_active_tensors_is_a_parse_error():
    with pytest.raises(ParseError, match="frozen"):
        load_altered_checkpoint(selected_sites=[0, 1], si_selected_triples=False)


def test_a_fault_in_building_the_evaluator_is_not_a_parse_error(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("not from the document")

    monkeypatch.setattr(optimizer, "EnergyEvaluator", broken)
    with pytest.raises(ValueError, match="not from the document"):
        load_altered_checkpoint()


@FUZZ
@given(altered_checkpoints() | json_values.map(json.dumps) | st.binary())
@example("[" * 100_000)
@example(b'{"format": "cgtns-checkpoint", "version": 2, "m": ' + b"[" * 50_000)
@example(VALID_CHECKPOINT.encode("utf-16"))
def test_malformed_checkpoint_is_a_parse_error(data):
    check_loads(load_checkpoint_h2, data, "checkpoint.json")


@FUZZ
@given(altered_traces() | st.text() | st.binary())
@example(VALID_TRACE.encode("utf-16"))
@example(VALID_TRACE.replace("\n", "\x00\n", 2))
def test_malformed_trace_is_a_parse_error(data):
    check_loads(read_trace_csv, data, "trace.csv")
