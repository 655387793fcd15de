"""Small shared helpers: seeded substreams, reading input files, atomic file writes."""

import hashlib
import json
import os
import random
import re
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

from .errors import DatasetLoadError


def substream(seed: int, *names: object) -> random.Random:
    """Return an independent RNG derived from a root seed and a stream name.

    Every random decision in the package draws from a named substream so
    components stay individually reproducible: the same (seed, names) always
    yields the same generator state regardless of what other components drew.
    """
    key = f"{seed}/" + "/".join(str(n) for n in names)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def atomic_write(path: str | os.PathLike, chunks: Iterable[str]) -> None:
    """Write each chunk as it is yielded to a temp file, then rename that to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_jsonl(path: str | os.PathLike, records: Iterable[dict]) -> None:
    """Write records as one compact JSON object per line, each as it is yielded, atomically."""
    atomic_write(path, (json.dumps(r, ensure_ascii=False) + "\n" for r in records))


def atomic_write_json(path: str | os.PathLike, doc: dict) -> None:
    """Write one JSON document, indented by two spaces, atomically."""
    atomic_write(path, [json.dumps(doc, ensure_ascii=False, indent=2) + "\n"])


def numbered_lines(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) per nonblank line of a UTF-8 text file.

    Lines end at ``\n``. The file is decoded in blocks of whole lines, about
    1 MB each, so memory does not grow with the file. Bytes that are not UTF-8
    raise naming ``path:line`` when their block is reached.
    """
    with open(path, "rb") as f:
        start = 1
        while block := f.readlines(1 << 20):
            data = b"".join(block)
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                lineno = start + data.count(b"\n", 0, exc.start)
                raise DatasetLoadError(f"{path}:{lineno}: not UTF-8 ({exc})") from None
            for lineno, line in enumerate(text.split("\n"), start=start):
                if line := line.strip():
                    yield lineno, line
            start += len(block)


# A \u escape in the UTF-16 surrogate range, U+D800 to U+DFFF. JSON text
# without one cannot parse to a string holding a lone surrogate.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def has_lone_surrogate(value) -> bool:
    """Whether a parsed JSON value holds a lone surrogate, which UTF-8 cannot encode."""
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def numbered_jsonl(path: str | os.PathLike) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) per nonblank line; a bad line raises naming ``path:line``.

    A line whose escapes leave a lone surrogate is bad too: its text could
    be read but never written out again as UTF-8.
    """
    for lineno, line in numbered_lines(path):
        try:
            record = json.loads(line)
        except ValueError as exc:  # also an integer too long to convert
            raise DatasetLoadError(f"{path}:{lineno}: malformed JSON ({exc})") from None
        if not isinstance(record, dict):
            raise DatasetLoadError(f"{path}:{lineno}: expected a JSON object")
        if _SURROGATE_ESCAPE.search(line) and has_lone_surrogate(record):
            raise DatasetLoadError(f"{path}:{lineno}: a \\u escape leaves a lone surrogate")
        yield lineno, record


def json_number(value) -> float:
    """A parsed JSON number as a float: an int or a float, but not a bool.

    Anything else raises ``ValueError``, as does an integer too large for a
    float. Infinities and NaN pass through for the caller to bound.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not a JSON number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"integer too large for a float: {value}") from None
