"""Content-addressed result cache with atomic writes.

Keys are canonical JSON descriptors; the file name is the SHA-256 of the
descriptor, so identical requests share an entry and differing ones never
collide.  Writes go through a temporary file and an atomic rename; readers
never see partial files.  A stored entry repeats its descriptor and carries
the SHA-256 of its payload's canonical JSON; both are checked on load, so an
edited entry is an integrity error, never a different result.
"""

from __future__ import annotations

import json
import os
import tempfile


class CacheIntegrityError(RuntimeError):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    """Hex SHA-256 of ``text`` in UTF-8.  CPython's built-in module (``_sha2``
    from Python 3.12 on, ``_sha256`` before) gives ``hashlib``'s digest
    without loading OpenSSL (several ms per process)."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode("utf-8")).hexdigest()


def descriptor_hash(descriptor) -> str:
    return sha256_hex(canonical_json(descriptor))


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
        if not isinstance(obj, dict) or obj.get("descriptor") != descriptor:
            raise CacheIntegrityError(f"descriptor mismatch in cache entry {path}")
        payload = obj.get("payload")
        if obj.get("sha256") != sha256_hex(canonical_json(payload)):
            raise CacheIntegrityError(f"payload checksum mismatch in cache entry {path}")
        return payload

    def store(self, descriptor, payload):
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(descriptor)
        entry = {"descriptor": descriptor, "payload": payload,
                 "sha256": sha256_hex(canonical_json(payload))}
        atomic_write(path, canonical_json(entry))
        return path
