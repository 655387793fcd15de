"""Small shared helpers: seeded substreams, hashing, reading input files, atomic file writes."""

import hashlib
import json
import os
import random
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

from .errors import DatasetLoadError

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3


def fnv1a_64(text: str, h: int = FNV64_OFFSET) -> int:
    """64-bit FNV-1a hash of the UTF-8 encoding of ``text``, started from state ``h``.

    Used for score-cache records so cache files stay portable across
    implementations; the algorithm is fixed, do not swap it for ``hash()``.
    The hash runs left to right, so ``fnv1a_64(a + b)`` equals
    ``fnv1a_64(b, fnv1a_64(a))``.
    """
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


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

    Lines end at ``\n``. A file that is not UTF-8 raises naming ``path:line``.
    Lines are yielded, not returned as a list: a list of one tuple per line of
    a 10,331-label vocabulary made later warm-cache tuning about 13% slower.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DatasetLoadError(f"{path}:{lineno}: not UTF-8 ({exc})") from None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line := line.strip():
            yield lineno, line


def numbered_jsonl(path: str | os.PathLike) -> Iterator[tuple[int, dict]]:
    """(line number, JSON object) per nonblank line; a bad line raises naming ``path:line``."""
    for lineno, line in numbered_lines(path):
        try:
            record = json.loads(line)
        except ValueError as exc:  # also an integer too long to convert
            raise DatasetLoadError(f"{path}:{lineno}: malformed JSON ({exc})") from None
        if not isinstance(record, dict):
            raise DatasetLoadError(f"{path}:{lineno}: expected a JSON object")
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
