"""Crash-safe file publication: write-temp, fsync, atomic rename.

All on-disk formats in this package share the same durability contract:
a writer must never leave a half-written file under the final name.  The
:func:`atomic_output` context manager implements it once — bytes land in
``<path>.tmp``; on clean exit the file is flushed, fsynced and renamed
over the target with :func:`os.replace` (atomic on POSIX); on error the
temporary is unlinked and any pre-existing file at the target survives
untouched.
"""

from __future__ import annotations

import contextlib
import errno
import os
from typing import BinaryIO, Iterator, Union

__all__ = ["atomic_output", "fsync_directory"]

PathLike = Union[str, os.PathLike]

#: errno values meaning "this filesystem cannot fsync a directory".
_NO_DIRECTORY_FSYNC = frozenset(
    getattr(errno, name)
    for name in ("EINVAL", "ENOTSUP", "EOPNOTSUPP")
    if hasattr(errno, name)
)


@contextlib.contextmanager
def atomic_output(path: PathLike) -> Iterator[BinaryIO]:
    """Yield a binary stream that atomically replaces ``path`` on success."""
    final_path = os.fspath(path)
    tmp_path = final_path + ".tmp"
    stream = open(tmp_path, "wb")
    try:
        yield stream
        stream.flush()
        os.fsync(stream.fileno())
        stream.close()
        os.replace(tmp_path, final_path)
    except BaseException:
        stream.close()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp_path)
        raise


def fsync_directory(path: PathLike) -> None:
    """Fsync a directory so a just-renamed entry survives a power cut.

    ``os.replace`` makes the rename atomic but not necessarily durable —
    the directory entry itself must reach the disk.  Some filesystems
    cannot sync a directory handle and say so with ``EINVAL`` (or
    ``ENOTSUP``/``EOPNOTSUPP``); that is tolerated, since the rename is
    still atomic, merely not yet durable.  Every other error propagates.
    An ``EIO`` from ``fsync`` in particular means write-back failed, and
    the kernel may already have dropped the dirty pages and cleared the
    error, so a retry could "succeed" with nothing on disk (PostgreSQL's
    "fsyncgate").  The caller must fail the operation instead, which
    poisons the writer so recovery re-reads the truth from disk.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError as error:
        if error.errno not in _NO_DIRECTORY_FSYNC:
            raise
