"""Kill-safe publish: a run's outputs replace the previous ones as one set.

Layout under ``output_dir``::

    <output_dir>/<entry>                  published outputs (files, parquet dirs)
    <output_dir>/_PUBLISH.json            {key, paths, entries, replaces, files}
    <output_dir>/_publish.tmp/            staging: the next set, sealed by
                                          its own _PUBLISH.json, written last

``paths`` maps each output name to its path relative to ``output_dir``;
``entries`` are the top-level names the set holds; ``replaces`` are the
names a commit owns (an owned name the new set lacks, e.g. a stale
``mentions/``, is removed); ``files`` holds the size and md5 of every file
under the entries.

A publish writes every output into the staging directory, then ``seal``
writes the staged manifest, then ``commit``:

1. removes ``<output_dir>/_PUBLISH.json``;
2. moves each staged entry into place over the old one, and removes each
   owned entry the new set lacks;
3. moves the staged ``_PUBLISH.json`` into place;
4. deletes the staging directory.

``repair`` runs before the next publish.  A staging directory that holds a
manifest is committed (roll forward; the moves a kill already made are
skipped); any other staging directory is deleted.  So after any kill,
``_PUBLISH.json`` is either absent or lists files that verify, and the
next run ends with one complete set and no staging directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

MANIFEST = "_PUBLISH.json"
STAGING = "_publish.tmp"


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


def _move(src: str, dst: str) -> None:
    os.replace(src, dst)


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
    return {
        rel: {
            "size": os.path.getsize(os.path.join(root, rel)),
            "md5": file_md5(os.path.join(root, rel)),
        }
        for rel in sorted(files)
    }


def staging_dir(output_dir: str) -> str:
    return os.path.join(output_dir, STAGING)


def resolve(output_dir: str, manifest: dict) -> dict[str, str]:
    """The manifest's ``paths`` as paths under ``output_dir``."""
    return {k: os.path.join(output_dir, v) for k, v in manifest["paths"].items()}


def repair(output_dir: str) -> None:
    """Finish (roll forward) a sealed publish a kill interrupted; delete
    any other leftover staging directory."""
    staging = staging_dir(output_dir)
    if not os.path.lexists(staging):
        return
    if _load(os.path.join(staging, MANIFEST)) is not None:
        commit(output_dir)
    else:
        _remove(staging)


def seal(staging: str, key: str | None, paths: dict[str, str], replaces) -> None:
    """Write the staged manifest for ``paths`` (output name -> staged path),
    last and atomically: a staging directory holding a manifest is
    complete."""
    rel = {k: os.path.relpath(p, staging) for k, p in paths.items()}
    entries = sorted({r.split(os.sep, 1)[0] for r in rel.values()})
    manifest = {
        "key": key,
        "paths": rel,
        "entries": entries,
        "replaces": sorted(set(replaces) | set(entries)),
        "files": _digests(staging, entries),
    }
    tmp = os.path.join(staging, MANIFEST + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    _move(tmp, os.path.join(staging, MANIFEST))


def commit(output_dir: str) -> dict:
    """Move the sealed staged set into place (steps 1-4 above); safe to
    re-run after a kill at any point."""
    staging = staging_dir(output_dir)
    staged_manifest = os.path.join(staging, MANIFEST)
    manifest = _load(staged_manifest)
    _remove(os.path.join(output_dir, MANIFEST))
    for name in manifest["replaces"]:
        src, dst = os.path.join(staging, name), os.path.join(output_dir, name)
        if name not in manifest["entries"]:
            _remove(dst)
        elif os.path.lexists(src):  # else an interrupted commit moved it
            _remove(dst)
            _move(src, dst)
    _move(staged_manifest, os.path.join(output_dir, MANIFEST))
    _remove(staging)
    return manifest


def verify(output_dir: str, key: str | None) -> dict | None:
    """The published manifest when its key is ``key`` and the files under
    its entries are exactly the listed ones, each with its size and md5;
    else ``None``."""
    manifest = _load(os.path.join(output_dir, MANIFEST))
    if manifest is None or manifest.get("key") != key:
        return None
    if _digests(output_dir, manifest["entries"]) != manifest["files"]:
        return None
    return manifest
