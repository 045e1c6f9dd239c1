"""Kill-safe publish: a run's outputs replace the previous ones in one rename.

Layout under ``output_dir`` (all links relative; the filesystem needs
symlinks, as local Linux filesystems have)::

    _sets/<id>/                   one complete set, sealed by its own
                                  _PUBLISH.json {key, paths, entries, files}
    _current -> _sets/<id>        the live set
    <name> -> _current/<name>     each output name, _PUBLISH.json included

``paths`` maps each output name to its path relative to the set (so also to
``output_dir``, through the names), ``entries`` are the set's top-level
names and ``files`` the size and md5 of every file under them.

A publish writes every output into ``new_set``, ``seal`` writes the set's
manifest last, then ``commit`` links each name the set holds and
``output_dir`` lacks (it dangles, so reads as absent, until the swap),
swaps ``_current`` by one ``os.replace`` of a fresh link, and runs
``repair``.  ``repair``, run before every publish too, only deletes: each
set ``_current`` does not name, a leftover ``_current.tmp`` and each name
link into ``_current/`` that no longer resolves (``mentions`` after a set
without it).  So after a kill at any point the names read as one complete
set, old or new, whose ``_PUBLISH.json`` verifies; the next run leaves one.

A dir with real entries at the names (the earlier layout, whose leftover
``_publish.tmp/`` ``repair`` deletes, or a copy made through the links) is
converted by its first commit: it removes each owned real entry and a
real ``_current``, and links the names.  A kill within that step can
leave names missing; the dir then reads as unpublished and the next run
publishes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid

MANIFEST = "_PUBLISH.json"
SETS = "_sets"
CURRENT = "_current"


def _load(path: str) -> dict | None:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _remove(path: str) -> None:
    if os.path.isdir(path) and not os.path.islink(path):
        shutil.rmtree(path)
    elif os.path.lexists(path):
        os.remove(path)


def file_md5(path: str) -> str:
    """md5 hex digest of a file's bytes (both manifests record it)."""
    h = hashlib.md5()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digests(root: str, entries: list[str]) -> dict[str, dict]:
    """{path relative to root: {size, md5}} of every file under ``entries``."""
    files = []
    for entry in entries:
        path = os.path.join(root, entry)
        if os.path.isdir(path):
            files += [
                os.path.relpath(os.path.join(d, name), root)
                for d, _, names in os.walk(path)
                for name in names
            ]
        elif os.path.isfile(path):
            files.append(entry)
    paths = {rel: os.path.join(root, rel) for rel in sorted(files)}
    return {rel: {"size": os.path.getsize(p), "md5": file_md5(p)} for rel, p in paths.items()}


def new_set(output_dir: str) -> str:
    """A fresh, empty set directory for the next publish."""
    path = os.path.join(output_dir, SETS, uuid.uuid4().hex)
    os.makedirs(path)
    return path


def resolve(output_dir: str, manifest: dict) -> dict[str, str]:
    """The manifest's ``paths`` as paths under ``output_dir``."""
    return {k: os.path.join(output_dir, v) for k, v in manifest["paths"].items()}


def repair(output_dir: str) -> None:
    """Delete what a kill left behind (see the module docstring)."""
    current = os.path.join(output_dir, CURRENT)
    live = os.path.islink(current) and os.path.basename(os.readlink(current))
    sets = os.path.join(output_dir, SETS)
    for name in os.listdir(sets) if os.path.isdir(sets) else ():
        if name != live:
            _remove(os.path.join(sets, name))
    _remove(current + ".tmp")
    _remove(os.path.join(output_dir, "_publish.tmp"))  # the earlier layout's staging
    for name in os.listdir(output_dir):
        path = os.path.join(output_dir, name)  # listed but not there: a dangling link
        if not os.path.exists(path) and os.readlink(path).startswith(CURRENT + os.sep):
            os.remove(path)


def seal(set_dir: str, key: str | None, paths: dict[str, str]) -> None:
    """Write the set's manifest for ``paths`` (output name -> path in the
    set), last and atomically: a set holding a manifest is complete."""
    rel = {k: os.path.relpath(p, set_dir) for k, p in paths.items()}
    entries = sorted({r.split(os.sep, 1)[0] for r in rel.values()})
    manifest = {"key": key, "paths": rel, "entries": entries, "files": _digests(set_dir, entries)}
    tmp = os.path.join(set_dir, MANIFEST + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(set_dir, MANIFEST))


def commit(output_dir: str, set_dir: str, owned) -> dict:
    """Make the sealed ``set_dir`` the live set (see the module docstring).
    ``owned`` are the output names a dir may hold as real entries: each
    one found, and a real ``_current``, is removed, then linked if the set
    holds it."""
    manifest = _load(os.path.join(set_dir, MANIFEST))
    names = [MANIFEST] + manifest["entries"]
    for name in names + sorted(set(owned) - set(names)) + [CURRENT]:
        path = os.path.join(output_dir, name)
        if os.path.islink(path):
            continue
        _remove(path)
        if name in names:
            os.symlink(os.path.join(CURRENT, name), path)
    current = os.path.join(output_dir, CURRENT)
    os.symlink(os.path.relpath(set_dir, output_dir), current + ".tmp")
    os.replace(current + ".tmp", current)
    repair(output_dir)
    return manifest


def verify(output_dir: str, key: str | None) -> dict | None:
    """The published manifest when its key is ``key`` and the files under
    its entries, read through the names, are exactly the listed ones, each
    with its size and md5; else ``None``."""
    manifest = _load(os.path.join(output_dir, MANIFEST))
    if manifest is None or manifest.get("key") != key:
        return None
    if _digests(output_dir, manifest["entries"]) != manifest["files"]:
        return None
    return manifest
