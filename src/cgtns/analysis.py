"""Accuracy measures, parameter accounting, spin splittings, and trace export."""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, fields

from .correlators import AnsatzSpec, param_count
from .errors import DimensionError, ParseError
from .optimizer import TraceRow, write_atomic

#: JSON value types of the ``RunRecord`` field annotations (bools excluded).
_JSON_TYPES = {"str": str, "int": int, "float": (int, float)}
#: Hartree to kcal/mol (CODATA-consistent at the displayed precision).
HARTREE_TO_KCAL_PER_MOL = 627.5095


def accuracy_measure(e_low_order: float, e_next_order: float) -> float:
    """Energy change when the next correlator order is switched on.

    Negative values mean the higher-order ansatz improved the energy; feeding
    the selected-triple variant in place of the full one gives the cheap
    approximation to the same control measure.
    """
    return e_next_order - e_low_order


def spin_splitting(e_high: float, e_low: float) -> tuple[float, float]:
    """High-spin minus low-spin energy, in Hartree and kcal/mol."""
    delta = e_high - e_low
    return delta, delta * HARTREE_TO_KCAL_PER_MOL


def reduction_percentage(n_parameters: int, reference_dim: int) -> float:
    """100 * (1 - parameters/dimension); negative when the space grew."""
    if reference_dim <= 0:
        raise DimensionError("reference dimension must be positive")
    return 100.0 * (1.0 - n_parameters / reference_dim)


def display_percentage(value: float) -> int:
    """Round half away from zero, the convention used for displayed tables."""
    import math

    return int(math.floor(value + 0.5)) if value >= 0 else -int(math.floor(-value + 0.5))


@dataclass
class RunRecord:
    """Summary of one optimization run, serializable to JSON."""

    kind: str
    n_active_parameters: int
    n_frozen_parameters: int
    reference_determinants: int
    reference_csfs: int
    reduction_pct: float
    final_energy: float
    trace_path: str = ""
    e_oracle: float | None = None
    error_vs_oracle: float | None = None
    seed: int | None = None

    @property
    def reduction_pct_display(self) -> int:
        return display_percentage(self.reduction_pct)

    def to_json(self) -> str:
        doc = {"format": "cgtns-run-record", "version": 1}
        doc.update(asdict(self))
        doc["reduction_pct_display"] = self.reduction_pct_display
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str | bytes, path=None) -> "RunRecord":
        """Parse a record written by ``to_json``; ``path`` names the source
        in the ``ParseError`` raised for anything else, a float field that
        is not a finite float (NaN, infinite, or an integer beyond any float)
        included."""
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # undecodable, too deep
            raise ParseError(f"not a JSON document: {exc}", path) from None
        if (
            not isinstance(doc, dict)
            or doc.get("format") != "cgtns-run-record"
            or doc.get("version") != 1
        ):
            raise ParseError("unrecognized run-record document", path)
        doc.pop("format")
        doc.pop("version")
        doc.pop("reduction_pct_display", None)
        try:
            record = cls(**doc)
        except TypeError as exc:  # a missing or an unknown key
            raise ParseError(f"malformed run record: {exc}", path) from None
        for f in fields(cls):
            value = getattr(record, f.name)
            base, _, optional = f.type.partition(" | ")
            if not (value is None and optional) and (
                isinstance(value, bool)
                or not isinstance(value, _JSON_TYPES[base])
                or (base == "float" and not abs(value) <= sys.float_info.max)
            ):
                message = f"{f.name} = {value!r} is not {f.type}"
                raise ParseError(f"malformed run record: {message}", path)
        return record


def reduction_report(
    spec: AnsatzSpec | str,
    m: int,
    reference_dim: int,
    n_selected: int | None = None,
) -> tuple[int, float, int]:
    """(parameter count, exact reduction %, display-rounded %) for one ansatz."""
    n = param_count(spec, m, n_selected=n_selected)
    pct = reduction_percentage(n, reference_dim)
    return n, pct, display_percentage(pct)


def balanced_reduction_advisory(
    pct_a: float, pct_b: float, threshold: float = 10.0
) -> str | None:
    """Warn when two runs reduce their variational spaces very differently.

    Energy differences are balanced when both states are approximated about
    equally well; a large gap in reduction percentages signals an imbalance.
    """
    gap = abs(pct_a - pct_b)
    if gap > threshold:
        return (
            f"reduction percentages differ by {gap:.1f} points "
            f"({pct_a:.1f}% vs {pct_b:.1f}%); energy differences between these "
            "runs may carry unbalanced parameterization errors"
        )
    return None


TRACE_COLUMNS = ("sweep", "replica", "temperature", "energy", "acceptance", "swap")


def export_trace(trace: list[TraceRow], path) -> None:
    """Write a trace as CSV with a fixed column order, losslessly.

    Columns: sweep, replica, temperature, energy, acceptance, swap.
    Floats are written in round-trip precision.
    """
    if not trace:
        raise DimensionError("refusing to export an empty trace")
    with io.StringIO() as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for row in trace:
            writer.writerow(
                [
                    row.sweep,
                    row.replica,
                    repr(row.temperature),
                    repr(row.energy),
                    repr(row.acceptance),
                    int(row.swapped),
                ]
            )
        write_atomic(path, handle.getvalue())


def read_trace_csv(path) -> list[TraceRow]:
    """Parse a CSV trace back; numbers round-trip exactly.  A file that is
    not a trace export raises ParseError naming ``path`` and the line."""
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            if tuple(next(reader, ())) != TRACE_COLUMNS:
                raise ValueError("not a trace export")
            for sweep, replica, temperature, energy, acceptance, swap in reader:
                rows.append(
                    TraceRow(
                        int(sweep), int(replica), float(temperature), float(energy),
                        float(acceptance), bool(int(swap)),
                    )
                )
        except (ValueError, csv.Error) as exc:  # undecodable bytes included
            raise ParseError(f"malformed trace: {exc}", path, reader.line_num) from None
    return rows
