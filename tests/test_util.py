"""The shared input-file reader, JSONL writer and JSON-number rule."""

import json
import math
import tracemalloc

import pytest

from entail_typing import DatasetLoadError
from entail_typing._util import atomic_write_jsonl, json_number, numbered_jsonl, numbered_lines


class TestNumberedLines:
    def test_skips_blank_lines_and_strips(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"  first \r\n\n \t \nsecond\nthird")
        assert list(numbered_lines(path)) == [(1, "first"), (4, "second"), (5, "third")]

    def test_drops_only_a_leading_byte_order_mark(self, tmp_path):
        path = tmp_path / "lines.txt"
        bom = "\ufeff".encode()
        path.write_bytes(bom + b"first\r\n\n" + bom + b"second\n" + bom + b"\n")
        assert list(numbered_lines(path)) == [(1, "first"), (3, "\ufeffsecond"), (4, "\ufeff")]
        path.write_bytes(bom + b"first\n\nbad \xff\n")
        with pytest.raises(DatasetLoadError, match=r"lines\.txt:3: not UTF-8"):
            list(numbered_lines(path))
        path.write_bytes(bom)
        assert list(numbered_lines(path)) == []

    def test_not_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"ok\n\nbad \xff byte\n")
        with pytest.raises(DatasetLoadError, match=r"lines\.txt:3: not UTF-8"):
            list(numbered_lines(path))

    def test_bad_byte_past_the_first_block_names_its_line(self, tmp_path):
        path = tmp_path / "lines.txt"
        # 40,000 lines of about 2 MB, so the bad byte sits in a later block
        path.write_bytes((b"y" * 99 + b"\n\n") * 20_000 + b"ok\nbad \xff byte\nnext\n")
        with pytest.raises(DatasetLoadError, match=r"lines\.txt:40002: not UTF-8"):
            list(numbered_lines(path))

    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        line = b"z" * 99 + b"\n"
        peaks = []
        for megabytes in (4, 16):
            path = tmp_path / f"{megabytes}.txt"
            n_lines = (megabytes << 20) // len(line)
            path.write_bytes(line * n_lines)
            tracemalloc.start()
            try:
                for lineno, _ in numbered_lines(path):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert lineno == n_lines
        assert abs(peaks[1] - peaks[0]) < 2 << 20

    def test_jsonl_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n', encoding="utf-8")
        assert list(numbered_jsonl(path)) == [(1, {"a": 1}), (3, {"a": 2})]

    @pytest.mark.parametrize(
        "text",
        ['{"a": ["\\ud800x"]}', '{"a": "\\uDFFF"}', '{"\\udc00": 1}', '{"a": "\\udc00\\ud83d"}'],
        ids=["high-in-list", "low-upper-case", "in-a-key", "pair-reversed"],
    )
    def test_lone_surrogate_escape_names_path_and_line(self, tmp_path, text):
        path = tmp_path / "records.jsonl"
        path.write_text('{"a": 1}\n' + text + "\n", encoding="utf-8")
        with pytest.raises(DatasetLoadError,
                           match=r"records\.jsonl:2: a \\u escape leaves a lone surrogate"):
            list(numbered_jsonl(path))

    @pytest.mark.parametrize(
        "text, value",
        [('{"a": "\\ud83d\\ude00"}', "\U0001F600"), ('{"a": "\\\\ud800"}', "\\ud800"),
         ('{"a": "\\u00e9"}', "\u00e9")],
        ids=["escaped-pair", "escaped-backslash", "plain-escape"],
    )
    def test_escapes_that_make_text_are_read(self, tmp_path, text, value):
        path = tmp_path / "records.jsonl"
        path.write_text(text + "\n", encoding="utf-8")
        assert list(numbered_jsonl(path)) == [(1, {"a": value})]


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
