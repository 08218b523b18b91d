"""Content-addressed result cache with atomic writes.

Keys are canonical JSON descriptors; the file name is the SHA-256 of the
descriptor, so identical requests share an entry and differing ones never
collide.  Writes go through a temporary file and an atomic rename; readers
never see partial files.  A stored entry repeats its descriptor, which is
checked on load to catch corruption or hash collisions.
"""

from __future__ import annotations

import json
import os
import tempfile


class CacheIntegrityError(RuntimeError):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def descriptor_hash(descriptor) -> str:
    # imported here: loading _hashlib costs every process that never hashes
    import hashlib

    return hashlib.sha256(canonical_json(descriptor).encode("utf-8")).hexdigest()


def atomic_write(path, text):
    """Write text to path through a temporary file and an atomic rename.

    The file gets the mode a plain open() would give it under the current
    umask.  On any failure the temporary file is removed and path is left as
    it was.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ResultCache:
    def __init__(self, directory):
        self.directory = directory

    def _path(self, descriptor):
        return os.path.join(self.directory, descriptor_hash(descriptor) + ".json")

    def load(self, descriptor):
        path = self._path(descriptor)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:
            raise CacheIntegrityError(f"unreadable cache entry {path}: {exc}")
        if obj.get("descriptor") != descriptor:
            raise CacheIntegrityError(f"descriptor mismatch in cache entry {path}")
        return obj.get("payload")

    def store(self, descriptor, payload):
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(descriptor)
        atomic_write(path, canonical_json({"descriptor": descriptor, "payload": payload}))
        return path
