"""On-disk result cache: versioned JSON documents with atomic writes.

Files are content-addressed by (operation, parameters, schema version) in
their name and carry the schema version inline; a document whose version
does not match is recomputed, never migrated.  Writes go through a
temporary file in the target directory followed by os.replace, so
concurrent processes sharing a cache directory never observe partial
files.
"""

from __future__ import annotations

import os
from pathlib import Path

# json and tempfile are imported inside the functions that use them, so a
# command that never touches the cache or renders JSON does not load them

# the version of every cached document, in its name and inline, and of the
# documents the command line prints
SCHEMA_VERSION = 1

ENV_CACHE_DIR = "KCYCLES_CACHE_DIR"

# reading the umask sets it, so it is read once, at import
_UMASK = os.umask(0)
os.umask(_UMASK)


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "kcycles"


def document_path(cache_dir: Path, operation: str, params: str) -> Path:
    return Path(cache_dir) / f"{operation}-{params}.v{SCHEMA_VERSION}.json"


def table_paths(cache_dir: Path) -> list[tuple[int, Path]]:
    """(weight, path) per file in cache_dir, if it is a directory, named
    table-w<digits>[.*].v<SCHEMA_VERSION>.json, in path order."""
    paths = sorted(Path(cache_dir).glob(f"table-w*.v{SCHEMA_VERSION}.json"))
    names = [path.name.split(".")[0].removeprefix("table-w") for path in paths]
    return [(int(digits), path) for digits, path in zip(names, paths)
            if digits.isascii() and digits.isdigit()]


def canonical_json(obj) -> str:
    """The single byte-stable rendering used for files and stdout."""
    import json

    return json.dumps(obj, indent=2) + "\n"


def write_atomic(path: Path, text: str) -> None:
    import tempfile

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp makes the file 0o600; give it the mode open(path, "w") would
        os.chmod(tmp_name, 0o666 & ~_UMASK)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_document(path: Path) -> dict | None:
    """Parsed document, or None if absent, unparsable or from another schema version."""
    path = Path(path)
    if not path.is_file():
        return None
    import json

    with open(path) as handle:
        try:
            obj = json.load(handle)
        except ValueError:  # bad JSON, and bytes that are not text
            return None
    if not isinstance(obj, dict) or obj.get("version") != SCHEMA_VERSION:
        return None
    return obj


def load_table(path: Path, weight: int) -> dict | None:
    """The cached weight-`weight` table document at path, or None if it does
    not load under the schema version or is for another weight.

    This is the rule by which `kcycles table` reuses a cached file and the
    cache check decides whether a file is worth comparing with a fresh build.
    """
    doc = load_document(path)
    return doc if doc is not None and doc.get("weight") == weight else None
