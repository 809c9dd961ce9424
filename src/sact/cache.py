"""Content-addressed result cache for classification runs.

Entries are keyed on (command, group, genus, code version, schema).  The
schema is an integer (`cli.CACHE_SCHEMA`) raised whenever an algorithm
change could alter a stored result, so older entries become misses.  Only
complete results are stored, so an interrupted run can never shadow a full
one, and the budget is not part of the key: a complete result is the same
under any budget.  Files are plain JSON under the cache directory.
"""

from __future__ import annotations

import json
import os
from typing import Optional


def _digest(key: dict) -> str:
    import hashlib  # only runs that use a cache directory need it
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _path(cache_dir: str, key: dict) -> str:
    return os.path.join(cache_dir, _digest(key) + ".json")


def _read(path: str) -> Optional[dict]:
    """The stored object, or None for a missing, corrupt or truncated file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError):
        return None
    return obj if isinstance(obj, dict) else None


def load(cache_dir: Optional[str], key: dict) -> Optional[dict]:
    if not cache_dir:
        return None
    obj = _read(_path(cache_dir, key))
    if obj is None or obj.get("key") != key or not obj.get("complete", False):
        return None
    return obj


def store(cache_dir: Optional[str], key: dict, value: dict) -> None:
    if not cache_dir or not value.get("complete", False):
        return
    os.makedirs(cache_dir, exist_ok=True)
    obj = dict(value)
    obj["key"] = key
    tmp = _path(cache_dir, key) + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
    os.replace(tmp, _path(cache_dir, key))


def info(cache_dir: Optional[str]) -> list:
    if not cache_dir or not os.path.isdir(cache_dir):
        return []
    out = []
    for name in sorted(os.listdir(cache_dir)):
        if not name.endswith(".json"):
            continue
        obj = _read(os.path.join(cache_dir, name))
        if obj is None:
            continue
        out.append({"file": name, "key": obj.get("key"),
                    "rows": len(obj.get("rows", []))})
    return out


def clear(cache_dir: Optional[str]) -> int:
    if not cache_dir or not os.path.isdir(cache_dir):
        return 0
    removed = 0
    for name in os.listdir(cache_dir):
        if name.endswith(".json"):
            os.remove(os.path.join(cache_dir, name))
            removed += 1
    return removed
