import json
import math
import random
import sys

import pytest

from youngdim import (
    YoungDiagram,
    dim_exact,
    emit_records,
    format_partition,
    load_records,
    parse_partition,
    ratios_csv,
    record_for,
)
from youngdim.dimension import _normalized, log_dim
from youngdim.errors import (
    EmptyDiagramError,
    KeyMismatch,
    NegativeRowLength,
    NonMonotoneRows,
    PartitionParseError,
    RecordSchemaError,
)
from youngdim.records import _decimal, record_to_json

from conftest import partitions


def test_partition_text_roundtrip():
    assert format_partition(YoungDiagram([4, 2, 2])) == "4,2,2"
    assert format_partition(YoungDiagram([])) == ""
    assert parse_partition("4,2,2").rows == (4, 2, 2)
    assert parse_partition(" 3 , 1 ").rows == (3, 1)
    assert parse_partition("").rows == ()
    with pytest.raises(NonMonotoneRows):
        parse_partition("1,2")
    with pytest.raises(PartitionParseError):
        parse_partition("a")
    with pytest.raises(PartitionParseError):
        parse_partition("3,,1")
    # row lengths are ASCII digits with an optional minus sign only
    for text in ("1_0", "+3", "3.0", "\u0663,1", "\uff13", "0x3", "--1"):
        with pytest.raises(PartitionParseError):
            parse_partition(text)
    with pytest.raises(NegativeRowLength):
        parse_partition("3,-1")
    assert parse_partition("007,01").rows == (7, 1)


def test_record_for_known_values():
    rec = record_for(YoungDiagram([4, 2, 1]), "greedy")
    assert rec.n == 7
    assert rec.rows == "4,2,1"
    assert rec.dim == "35"
    assert rec.log_dim == pytest.approx(math.log(35))
    assert rec.c == pytest.approx(
        (-1 / math.sqrt(7)) * (math.log(35) - 0.5 * math.lgamma(8))
    )
    assert rec.source == "greedy"


def test_record_for_guards():
    with pytest.raises(ValueError):
        record_for(YoungDiagram([2, 1]), "psychic")
    with pytest.raises(EmptyDiagramError):
        record_for(YoungDiagram([]), "oracle")
    rec = record_for(YoungDiagram([2, 1]), "oracle", max_exact_n=0)
    assert rec.dim is None
    assert rec.log_dim == pytest.approx(math.log(2))


def test_record_json_shape():
    rec = record_for(YoungDiagram([2, 1]), "astar")
    obj = json.loads(record_to_json(rec))
    assert list(obj) == ["n", "rows", "log_dim", "dim", "c", "source"]
    assert obj["dim"] == "2"


def test_emit_and_load_roundtrip(tmp_path):
    sources = ("greedy", "shake", "branches", "astar", "improve", "oracle")
    recs = []
    for i, d in enumerate(x for n in range(1, 9) for x in partitions(n)):
        recs.append(record_for(d, sources[i % len(sources)]))
    assert len(recs) > 50
    path = tmp_path / "runs.jsonl"
    emit_records(recs, path)
    assert load_records(path) == recs
    # blank lines between records are skipped
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text(f"{lines[0]}\n\n  \n{lines[1]}\n", encoding="utf-8")
    assert load_records(path) == recs[:2]


def test_huge_dimension_survives_the_roundtrip(tmp_path):
    stairs = YoungDiagram(range(20, 0, -1))
    rec = record_for(stairs, "oracle")
    assert len(rec.dim) > 100
    assert int(rec.dim) == dim_exact(stairs)
    path = tmp_path / "big.jsonl"
    emit_records([rec], path)
    assert load_records(path) == [rec]


def test_long_dimensions_load_under_the_default_digit_limit(tmp_path):
    # the staircase with 85 rows (n = 3655) has a dimension of more
    # digits than CPython converts between int and str by default;
    # records convert it in pieces below any limit and leave it as set
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    stairs = YoungDiagram(range(85, 0, -1))
    if limit:
        with pytest.raises(ValueError):
            str(dim_exact(stairs))
    rec = record_for(stairs, "oracle", 5000)
    assert len(rec.dim) > 4300
    path = tmp_path / "stairs.jsonl"
    emit_records([rec], path)
    assert load_records(path) == [rec]
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def _str_without_limit(value):
    # CPython's own conversion, with its digit limit lifted for this call
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "digits", [1, 2, 577, 578, 579, 639, 640, 641, 1280, 1281, 4300, 4301, 9000]
)
def test_decimal_round_trips_around_the_piece_size(digits):
    # ints up to 1920 bits and text up to 640 digits convert directly,
    # longer ones by divide and conquer on 10^(2^k)
    rng = random.Random(digits)
    low, high = 10 ** (digits - 1), 10**digits
    for value in (low, high - 1, rng.randrange(low, high)):
        text = _str_without_limit(value)
        assert len(text) == digits
        assert _decimal(value) == text
        assert _decimal(text) == value


def test_decimal_round_trips_the_200_square_dimension():
    dim = dim_exact(YoungDiagram([200] * 200))
    text = _str_without_limit(dim)
    assert len(text) == 76648
    assert _decimal(dim) == text
    assert _decimal(text) == dim


def _text_by_divmod(value):
    # the int-to-text splitter that `_decimal` used before it built a
    # Decimal: split at 10^k, k the largest power of two up to half the
    # digits, by divmod, and join the halves as text
    if value.bit_length() <= 1920:
        return str(value)
    digits = (value.bit_length() - 1) * 3 // 10
    k = 1 << (digits // 2).bit_length() - 1
    hi, lo = divmod(value, 10**k)
    return _text_by_divmod(hi) + _text_by_divmod(lo).zfill(k)


def test_decimal_matches_the_divmod_splitter_past_70000_digits():
    rng = random.Random(70000)
    for value in (
        rng.getrandbits(240_000),
        (1 << 240_000) - 1,
        1 << 240_000,
        10**72_000,
        10**72_000 - 1,
        rng.randrange(10**71_999, 10**72_000),
    ):
        text = _text_by_divmod(value)
        assert len(text) >= 70_000
        assert _decimal(value) == text


def test_load_rejects_dim_with_more_digits_than_n_factorial(tmp_path):
    # 4,2,1 has dimension 35 and 7! = 5040 has four digits, so "0035"
    # loads, "00035" is one digit too long, and a million digits are
    # turned away before any conversion
    obj = json.loads(record_to_json(record_for(YoungDiagram([4, 2, 1]), "greedy")))
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({**obj, "dim": "0035"}) + "\n")
    assert load_records(path)[0].dim == "0035"
    for dim in ("00035", "1" * 1_000_000):
        path.write_text(json.dumps({**obj, "dim": dim}) + "\n")
        with pytest.raises(RecordSchemaError, match=r"field dim has more digits than 7! has"):
            load_records(path)


def test_load_reports_the_offending_line(tmp_path):
    good = record_to_json(record_for(YoungDiagram([2, 1]), "greedy")).encode()
    path = tmp_path / "bad.jsonl"
    for bad in (
        b'{"n": 3}',
        b"\xff\xfe",  # not UTF-8
        b"[" * 200_000,  # nested past the recursion limit
        b'{"n": ' + b"1" * 5001 + b"}",  # an integer literal of 5001 digits
    ):
        path.write_bytes(b"\n".join([good] * 6 + [bad, good]) + b"\n")
        with pytest.raises(RecordSchemaError) as err:
            load_records(path)
        assert err.value.line_number == 7


def test_load_rejects_tampered_log_dim(tmp_path):
    rec = record_for(YoungDiagram([3, 2]), "oracle")
    obj = json.loads(record_to_json(rec))
    obj["log_dim"] = obj["log_dim"] + 0.5
    path = tmp_path / "skew.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(RecordSchemaError):
        load_records(path)


def test_load_rejects_dim_that_disagrees_with_rows(tmp_path):
    # 4,2,1 has dimension 35; dim, log_dim and c agree with each other on 36
    obj = json.loads(record_to_json(record_for(YoungDiagram([4, 2, 1]), "greedy")))
    obj.update(dim="36", log_dim=math.log(36), c=_normalized(7, math.log(36)))
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(RecordSchemaError, match="field dim disagrees with rows"):
        load_records(path)


@pytest.mark.parametrize(
    "dim",
    ["3_5", pytest.param("\u0663\u0665", id="arabic-indic"), "+35", " 35", "35.0", "0x23"],
)
def test_load_rejects_dim_that_is_not_ascii_digits(tmp_path, dim):
    # 4,2,1 has dimension 35, so only the digits check can reject these
    obj = json.loads(record_to_json(record_for(YoungDiagram([4, 2, 1]), "greedy")))
    assert obj["dim"] == "35"
    obj["dim"] = dim
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(RecordSchemaError, match="field dim is not a decimal integer"):
        load_records(path)


def test_load_checks_log_dim_and_c_in_every_record(tmp_path):
    lam = YoungDiagram([4, 2, 1])
    path = tmp_path / "runs.jsonl"
    for max_exact_n in (0, 300):
        rec = record_for(lam, "greedy", max_exact_n)
        emit_records([rec], path)
        assert load_records(path) == [rec]
    obj = json.loads(record_to_json(record_for(lam, "greedy", 0)))
    assert obj["dim"] is None
    cases = [
        ({"log_dim": 50.0, "c": 123.0}, "log_dim disagrees with rows"),
        ({"log_dim": obj["log_dim"] + 1e-6}, "log_dim disagrees with rows"),
        ({"c": obj["c"] + 1e-6}, "c disagrees with log_dim"),
        ({"dim": "35", "c": 123.0}, "c disagrees with log_dim"),
        ({"n": 0, "rows": "", "log_dim": 0.0, "dim": "1", "c": 0.0}, "no boxes"),
        ("[4, 2, 1]", "record is not an object"),
        ({"rows": [4, 2, 1]}, "field rows is not a string"),
        ({"dim": 35}, "field dim is neither null nor a string"),
        ({"source": "psychic"}, "unknown source 'psychic'"),
        ({"n": 2, "rows": "2,x"}, "rows do not parse"),
        ({"rows": "4,2"}, "rows sum to 6, field n says 7"),
        ({"dim": "0"}, "field dim is not positive"),
        ({"log_dim": str(obj["log_dim"])}, "field log_dim is not a number"),
    ]
    for change, message in cases:
        # a string is a raw line; a dict is merged into the good record
        line = change if isinstance(change, str) else json.dumps({**obj, **change})
        path.write_text(line + "\n")
        with pytest.raises(RecordSchemaError, match=message):
            load_records(path)


@pytest.mark.parametrize("key", ["log_dim", "c"])
@pytest.mark.parametrize(
    "value",
    ["NaN", "Infinity", "-Infinity", "1e999", pytest.param("9" * 400, id="huge-int")],
)
def test_load_rejects_non_finite_floats(tmp_path, key, value):
    good = record_to_json(record_for(YoungDiagram([2, 1]), "greedy"))
    obj = json.loads(record_to_json(record_for(YoungDiagram([3, 2]), "greedy")))
    bad = json.dumps(obj).replace(f'"{key}": {obj[key]!r}', f'"{key}": {value}')
    assert bad != json.dumps(obj)
    path = tmp_path / "bad.jsonl"
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(RecordSchemaError, match=f"field {key} is not finite") as err:
        load_records(path)
    assert err.value.line_number == 2


def test_ratios_csv_exact_and_fallback(tmp_path):
    old = [record_for(YoungDiagram([4, 2, 2]), "greedy")]
    new = [record_for(YoungDiagram([4, 3, 1]), "astar")]
    path = tmp_path / "ratios.csv"
    ratios_csv(old, new, path)
    header, row = path.read_text().strip().splitlines()
    assert header == "n,ratio,log_ratio,improved"
    n, ratio, log_ratio, improved = row.split(",")
    assert (n, improved) == ("8", "true")
    assert float(ratio) == 1.25
    assert float(log_ratio) == pytest.approx(math.log(70) - math.log(56))

    same = [record_for(YoungDiagram([3, 2]), "greedy")]
    ratios_csv(same, same, path)
    row = path.read_text().strip().splitlines()[1]
    assert row == "5,1.0,0.0,false"

    # above the exact-dimension cutoff the ratio falls back to the log gap
    old_log = [record_for(YoungDiagram([4, 2, 2]), "greedy", max_exact_n=0)]
    new_log = [record_for(YoungDiagram([4, 3, 1]), "astar", max_exact_n=0)]
    ratios_csv(old_log, new_log, path)
    row = path.read_text().strip().splitlines()[1]
    ratio = float(row.split(",")[1])
    assert ratio == pytest.approx(70 / 56)


def test_ratios_csv_key_mismatch(tmp_path):
    a = [record_for(YoungDiagram([2, 1]), "greedy")]
    b = [record_for(YoungDiagram([3, 1]), "greedy")]
    path = tmp_path / "no.csv"
    with pytest.raises(KeyMismatch):
        ratios_csv(a, b + [record_for(YoungDiagram([2, 2]), "astar")], path)
    dup = a + [record_for(YoungDiagram([1, 1, 1]), "oracle")]
    with pytest.raises(KeyMismatch):
        ratios_csv(dup, dup, path)
    # sets of different sizes: the message names the sizes on one side only
    old = [record_for(YoungDiagram(rows), "greedy") for rows in ([1], [2], [2, 1])]
    new = [record_for(YoungDiagram(rows), "astar") for rows in ([2], [2, 1], [3, 1])]
    with pytest.raises(KeyMismatch) as err:
        ratios_csv(old, new, path)
    assert str(err.value) == "sizes only in old: [1]; sizes only in new: [4]"
    assert not path.exists()
