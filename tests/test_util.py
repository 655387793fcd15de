"""The shared input-file reader, JSONL writer and JSON-number rule."""

import json
import math

import pytest

from entail_typing import DatasetLoadError
from entail_typing._util import atomic_write_jsonl, json_number, numbered_jsonl, numbered_lines


class TestNumberedLines:
    def test_skips_blank_lines_and_strips(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"  first \r\n\n \t \nsecond\nthird")
        assert list(numbered_lines(path)) == [(1, "first"), (4, "second"), (5, "third")]

    def test_not_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"ok\n\nbad \xff byte\n")
        with pytest.raises(DatasetLoadError, match=r"lines\.txt:3: not UTF-8"):
            list(numbered_lines(path))

    def test_jsonl_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n', encoding="utf-8")
        assert list(numbered_jsonl(path)) == [(1, {"a": 1}), (3, {"a": 2})]


class TestAtomicWriteJsonl:
    @pytest.mark.parametrize(
        "records",
        [[{"label": "café", "score": 0.5}, {"chosen": ["東京", "naïve"], "topk": []}], []],
        ids=["non-ascii", "no-records"],
    )
    def test_bytes_match_joined_lines(self, tmp_path, records):
        path = tmp_path / "out.jsonl"
        atomic_write_jsonl(path, iter(records))
        lines = [json.dumps(r, ensure_ascii=False) for r in records]
        expected = "\n".join(lines) + "\n" if lines else ""
        assert path.read_bytes() == expected.encode("utf-8")

    def test_failing_records_leave_the_file_and_no_temp(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_bytes(b'{"old": true}\n')

        def records():
            for i in range(50):  # enough to spill past the write buffer
                yield {"i": i, "text": "x" * 10_000}
            raise RuntimeError("scorer failed")

        with pytest.raises(RuntimeError, match="scorer failed"):
            atomic_write_jsonl(path, records())
        assert path.read_bytes() == b'{"old": true}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


class TestJsonNumber:
    @pytest.mark.parametrize("value", [0, 1, -3, 0.5, 10**300])
    def test_numbers_become_floats(self, value):
        assert json_number(value) == float(value)
        assert type(json_number(value)) is float

    def test_non_finite_floats_pass_through(self):
        assert json_number(math.inf) == math.inf
        assert math.isnan(json_number(math.nan))

    @pytest.mark.parametrize(
        "value", [True, False, "0.5", None, [0.5], {"s": 0.5}, 10**401],
        ids=["true", "false", "string", "null", "list", "object", "overflowing-integer"],
    )
    def test_anything_else_is_a_value_error(self, value):
        with pytest.raises(ValueError):
            json_number(value)
