"""Small shared helpers: seeded substreams, hashing, atomic file writes."""

import hashlib
import json
import os
import random
import tempfile
from collections.abc import Iterable
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


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_jsonl(path: str | os.PathLike, records: Iterable[dict]) -> None:
    """Write records as one compact JSON object per line, atomically."""
    lines = [json.dumps(r, ensure_ascii=False) for r in records]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def numbered_jsonl(path: str | os.PathLike) -> list[tuple[int, dict]]:
    """(line number, JSON object) per nonblank line; a bad line raises naming ``path:line``."""
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # also an integer too long to convert
                raise DatasetLoadError(f"{path}:{lineno}: malformed JSON ({exc})") from None
            if not isinstance(record, dict):
                raise DatasetLoadError(f"{path}:{lineno}: expected a JSON object")
            records.append((lineno, record))
    return records


def read_jsonl(path: str | os.PathLike) -> list[dict]:
    """One JSON object per nonblank line, as :func:`numbered_jsonl` reads them."""
    return [record for _, record in numbered_jsonl(path)]
