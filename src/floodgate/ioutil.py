"""Small I/O helpers."""

import os
import tempfile
from contextlib import contextmanager, suppress

from .errors import FloodgateError


@contextmanager
def atomic_write(path, mode, **kwargs):
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
def open_text(path, **kwargs):
    """Open `path` to read UTF-8 text; a byte that does not decode raises FloodgateError."""
    try:
        with open(path, encoding="utf-8", **kwargs) as fh:
            yield fh
    except UnicodeDecodeError:
        raise FloodgateError(f"{path}: not UTF-8 text") from None


@contextmanager
def removed_on_failure(path):
    """Delete `path` if the body raises; for a file whose companion is written after it."""
    done = False
    try:
        yield
        done = True
    finally:
        if not done:
            with suppress(OSError):
                os.unlink(path)


def strict_numbers(texts, kind=float) -> list:
    """`kind(text)`, for `kind` float or int, of each text, which must be a plain number.

    `float` and `int` alone also read blanks around a number, `_` between
    digits and non-ASCII digits; a text with any of these raises ValueError,
    as does anything `kind` rejects. Every number the package reads, from a
    file or the command line, goes through here.
    """
    joined = "".join(texts)
    if not (joined.isascii() and joined.isprintable()) or " " in joined or "_" in joined:
        raise ValueError(f"{' '.join(texts)!r} is not a plain number")
    return [kind(t) for t in texts]
