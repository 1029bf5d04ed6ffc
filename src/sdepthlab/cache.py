"""Content-addressed result cache for CLI runs.

Keys are SHA-256 hashes over a canonical JSON encoding of the command, the
inputs and the engine version, so entries survive re-serialization of the
same ideal but not engine changes.  Writes are atomic (temp file + rename).
A record holds the key and the payload only, so its bytes depend on them
alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile


def content_key(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def load(self, key: str):
        """Return the cached payload, or None.  Records that are not JSON
        objects, or whose stored key disagrees with the requested one, are
        treated as misses."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if (not isinstance(record, dict) or record.get("key") != key
                or "payload" not in record):
            return None
        return record["payload"]

    def store(self, key: str, payload) -> None:
        record = {"key": key, "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(record, fh)
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
