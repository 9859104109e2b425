"""Run records as JSON lines, and dimension-ratio CSV export.

A record is one diagram produced by one generator (greedy, shake,
branches, astar, improve, oracle) together with its dimensions.  Exact
dimensions are stored as decimal strings because they outgrow machine
integers almost immediately; floats are stored with full round-trip
precision.  Above a configurable size threshold the exact dimension is
dropped and only the log-domain value is kept.  Exact dimensions outgrow
CPython's int/str digit limit, so every conversion between a dimension
and its decimal text goes through `_decimal`, which converts pieces too
short for any limit and joins them by divide and conquer, in `decimal`
arithmetic for int to text.
"""

from __future__ import annotations

import csv
import decimal
import functools
import json
import math
import re
from fractions import Fraction
from typing import NamedTuple

from .diagram import YoungDiagram
from .dimension import _normalized, dim_exact, hook_product, log_dim
from .errors import (
    KeyMismatch,
    PartitionParseError,
    RecordSchemaError,
)

SOURCES = ("greedy", "shake", "branches", "astar", "improve", "oracle")

DEFAULT_MAX_EXACT_N = 300

_ROW_LENGTH = re.compile(r"-?[0-9]+")
_DIM = re.compile(r"[0-9]+")


# CPython's lowest settable int/str digit limit: no shorter piece meets one
_PIECE = 640


@functools.cache
def _pow10(k: int) -> int:
    return 10**k


@functools.cache
def _pow2(k: int) -> decimal.Decimal:
    """2^k as an exact Decimal, k a power of two, in `_decimal`'s context."""
    if k <= 3 * _PIECE:
        return decimal.Decimal(1 << k)
    half = _pow2(k // 2)
    return half * half


def _to_decimal(value: int) -> decimal.Decimal:
    """A non-negative int as an exact Decimal, in `_decimal`'s context."""
    if value.bit_length() <= 3 * _PIECE:
        return decimal.Decimal(value)
    k = 1 << (value.bit_length() // 2).bit_length() - 1
    hi = value >> k
    return _to_decimal(hi) * _pow2(k) + _to_decimal(value - (hi << k))


def _decimal(value):
    """An exact dimension as decimal text, or decimal text as an int.

    Up to `_PIECE` digits this is `str` or `int`.  Past it the number
    splits at a power of two, the largest power of two up to half its
    size: text into its last k digits and the rest, joined as
    hi * 10^k + lo by CPython's subquadratic multiplication; an int
    into its high bits and its last k bits, joined as hi * 2^k + lo in
    `decimal` arithmetic, which multiplies subquadratically, and printed.
    """
    if isinstance(value, int):
        if value.bit_length() <= 3 * _PIECE:  # 2^(3d) < 10^d
            return str(value)
        with decimal.localcontext() as ctx:
            # the largest precision and exponent, and Inexact trapped, as
            # in CPython 3.12's _pylong: a step that would round raises
            ctx.prec = decimal.MAX_PREC
            ctx.Emax = decimal.MAX_EMAX
            ctx.traps[decimal.Inexact] = True
            return str(_to_decimal(value))
    if len(value) <= _PIECE:
        return int(value, 10)
    k = 1 << (len(value) // 2).bit_length() - 1
    return _decimal(value[:-k]) * _pow10(k) + _decimal(value[-k:])


def format_partition(diagram: YoungDiagram) -> str:
    """Render row lengths as comma-separated text; empty diagram is ""."""
    return str(diagram)


def parse_partition(text: str) -> YoungDiagram:
    """Parse "4,2,2" (whitespace tolerated) into a diagram.

    Each row length is an optional minus sign and ASCII digits, so
    negative lengths reach the diagram's own check and "1_0" or
    non-ASCII digits are rejected.
    """
    stripped = text.strip()
    if not stripped:
        return YoungDiagram(())
    parts = []
    for token in stripped.split(","):
        token = token.strip()
        if not _ROW_LENGTH.fullmatch(token):
            raise PartitionParseError(f"row length {token!r} is not an integer")
        parts.append(int(token, 10))
    return YoungDiagram(parts)


class RunRecord(NamedTuple):
    n: int
    rows: str
    log_dim: float
    dim: str | None
    c: float
    source: str


def record_for(
    diagram: YoungDiagram,
    source: str,
    max_exact_n: int = DEFAULT_MAX_EXACT_N,
) -> RunRecord:
    """Build the record for one diagram.

    The exact dimension is included only up to size max_exact_n; beyond
    that the record carries the log-domain value alone.
    """
    if source not in SOURCES:
        raise ValueError(f"unknown record source {source!r}")
    exact = None
    if diagram.size <= max_exact_n:
        exact = _decimal(dim_exact(diagram))
    ld = log_dim(diagram)
    return RunRecord(
        n=diagram.size,
        rows=format_partition(diagram),
        log_dim=ld,
        dim=exact,
        c=_normalized(diagram.size, ld),
        source=source,
    )


def record_to_json(record: RunRecord) -> str:
    return json.dumps(record._asdict(), ensure_ascii=False)


def _emit(lines, out=None) -> None:
    """Write lines to the file `out` (UTF-8, one per line), or print them."""
    if not out:
        for line in lines:
            print(line)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def emit_records(records, path) -> None:
    """Write records to a file, one JSON object per line, UTF-8."""
    _emit(map(record_to_json, records), path)


def _schema_error(line_number, message):
    return RecordSchemaError(f"line {line_number}: {message}", line_number=line_number)


def _finite_float(obj, key, line_number) -> float:
    value = obj[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise _schema_error(line_number, f"field {key} is not a number")
    value = float(value)
    if not math.isfinite(value):
        raise _schema_error(line_number, f"field {key} is not finite")
    return value


def _close(value: float, want: float) -> bool:
    """Equal to a relative tolerance of 1e-9 (absolute below 1)."""
    return abs(value - want) <= 1e-9 * max(1.0, abs(value))


def _parse_record(obj, line_number) -> tuple[RunRecord, YoungDiagram]:
    """A checked record and its diagram, carrying the record's exact dimension."""
    if not isinstance(obj, dict):
        raise _schema_error(line_number, "record is not an object")
    if set(obj) != set(RunRecord._fields):
        raise _schema_error(
            line_number, f"keys {sorted(obj)} do not match {sorted(RunRecord._fields)}"
        )
    if not isinstance(obj["n"], int) or isinstance(obj["n"], bool):
        raise _schema_error(line_number, "field n is not an integer")
    if not isinstance(obj["rows"], str):
        raise _schema_error(line_number, "field rows is not a string")
    log = _finite_float(obj, "log_dim", line_number)
    c = _finite_float(obj, "c", line_number)
    if obj["dim"] is not None and not isinstance(obj["dim"], str):
        raise _schema_error(line_number, "field dim is neither null nor a string")
    if obj["source"] not in SOURCES:
        raise _schema_error(line_number, f"unknown source {obj['source']!r}")
    try:
        diagram = parse_partition(obj["rows"])
    except Exception as exc:
        raise _schema_error(line_number, f"rows do not parse: {exc}") from exc
    if diagram.size != obj["n"]:
        raise _schema_error(
            line_number, f"rows sum to {diagram.size}, field n says {obj['n']}"
        )
    if diagram.size == 0:
        raise _schema_error(line_number, "record has no boxes")
    if obj["dim"] is None:
        want, name = log_dim(diagram), "rows"
    else:
        text = obj["dim"]
        if not _DIM.fullmatch(text):
            raise _schema_error(line_number, "field dim is not a decimal integer")
        # 10^(len - 1) > n! means more digits than n! has; the bit test
        # settles long strings without building the power
        most = math.factorial(diagram.size)
        if 3 * (len(text) - 1) >= most.bit_length() or 10 ** (len(text) - 1) > most:
            raise _schema_error(
                line_number, f"field dim has more digits than {diagram.size}! has"
            )
        value = _decimal(text)
        if value < 1:
            raise _schema_error(line_number, "field dim is not positive")
        # dim * hook product == n! is the hook formula without a division
        if value * hook_product(diagram) != most:
            raise _schema_error(line_number, "field dim disagrees with rows")
        diagram._dim = value
        want, name = math.log(value), "dim"
    if not _close(log, want):
        raise _schema_error(line_number, f"log_dim disagrees with {name}")
    if not _close(c, _normalized(diagram.size, log)):
        raise _schema_error(line_number, "c disagrees with log_dim")
    record = RunRecord(
        n=obj["n"],
        rows=obj["rows"],
        log_dim=log,
        dim=obj["dim"],
        c=c,
        source=obj["source"],
    )
    return record, diagram


def _parse_int(text: str) -> int | float:
    """A JSON integer literal, read as a float past 20 digits.

    n is a record's only integer field, and int() takes quadratic time
    in the length of a literal; float() is linear, and a float n, like
    an over-long float field, then fails its own check.
    """
    return float(text) if len(text.lstrip("-")) > 20 else int(text)


def load_records(path) -> list[RunRecord]:
    """Read a JSON-lines record file, validating every line."""
    return [record for record, _ in _load_records(path)]


def _load_records(path) -> list[tuple[RunRecord, YoungDiagram]]:
    """`load_records`, each record paired with its checked diagram."""
    pairs = []
    with open(path, "rb") as fh:
        # split as text mode would, then decode line by line, so a bad
        # byte is reported on its own line
        lines = fh.read().splitlines()
    for line_number, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            obj = json.loads(line, parse_int=_parse_int)
        except (ValueError, RecursionError) as exc:
            # UnicodeDecodeError and JSONDecodeError are ValueErrors;
            # deep nesting is a RecursionError
            raise _schema_error(line_number, f"invalid JSON: {exc}") from exc
        pairs.append(_parse_record(obj, line_number))
    return pairs


def ratios_csv(old_records, new_records, path) -> None:
    """Write per-size dimension ratios new/old as CSV.

    Both inputs must cover exactly the same sizes.  The ratio is exact
    when both records carry exact dimensions, otherwise it falls back to
    the exponential of the log difference.
    """
    old_by_n = {rec.n: rec for rec in old_records}
    new_by_n = {rec.n: rec for rec in new_records}
    if len(old_by_n) != len(old_records) or len(new_by_n) != len(new_records):
        raise KeyMismatch("duplicate sizes within a record set")
    if set(old_by_n) != set(new_by_n):
        only_old = sorted(set(old_by_n) - set(new_by_n))
        only_new = sorted(set(new_by_n) - set(old_by_n))
        raise KeyMismatch(
            f"sizes only in old: {only_old}; sizes only in new: {only_new}"
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("n", "ratio", "log_ratio", "improved"))
        for n in sorted(old_by_n):
            old, new = old_by_n[n], new_by_n[n]
            if old.dim is not None and new.dim is not None:
                exact = Fraction(_decimal(new.dim), _decimal(old.dim))
                ratio = float(exact)
                log_ratio = (
                    0.0 if exact == 1 else math.log(exact.numerator) - math.log(exact.denominator)
                )
                improved = exact > 1
            else:
                log_ratio = new.log_dim - old.log_dim
                ratio = math.exp(log_ratio)
                improved = log_ratio > 0
            writer.writerow((n, repr(ratio), repr(log_ratio), "true" if improved else "false"))
