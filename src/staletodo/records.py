"""The one way the program writes a file: whole, or not at all."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping


@contextmanager
def replacing(path: str, binary: bool = False) -> Iterator[IO]:
    """A file, written as path + ".tmp", that replaces path when the block ends.

    If the block raises, the temporary file is removed and path is left as
    it was. path must be a regular file or not exist.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"{path} is not a regular file")
    path = os.path.realpath(path)  # a symlink stays, and its file is replaced
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def write_records(records: Iterable[Mapping], path: str) -> int:
    """Replace path with one UTF-8 JSON line per record, enums by value; returns the count."""
    count = 0
    with replacing(path) as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, default=lambda e: e.value) + "\n")
            count += 1
    return count
