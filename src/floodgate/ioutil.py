"""Small I/O helpers."""

import os
import tempfile
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path, mode="w", **kwargs):
    """Open a temp file next to `path`; rename over `path` only on success.

    Guarantees no partial output file is left behind if the body raises.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    with removed_on_failure(tmp):
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)


@contextmanager
def open_text(path, error, **kwargs):
    """Open `path` to read UTF-8 text; a byte that does not decode raises `error`."""
    try:
        with open(path, encoding="utf-8", **kwargs) as fh:
            yield fh
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None


@contextmanager
def removed_on_failure(path):
    """Delete `path` if the body raises; for a file whose companion is written after it."""
    try:
        yield
    except BaseException:
        with suppress(OSError):
            os.unlink(path)
        raise


def strict_floats(texts) -> list[float]:
    """`float` of each text, which must be a plain decimal number, nan or inf.

    `float` alone also reads blanks around a number, `_` between digits and
    non-ASCII digits; a text with any of these raises ValueError, as does
    anything `float` rejects.
    """
    joined = "".join(texts)
    if not (joined.isascii() and joined.isprintable()) or " " in joined or "_" in joined:
        raise ValueError("not a plain number")
    return [float(t) for t in texts]
