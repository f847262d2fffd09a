#!/usr/bin/env python3
"""Convert recorded fixtures from older layouts to the current one.

Older data recordings are ``<root>/<source>/<request key>.json`` files, each
one JSON object with the ``request``, the ``status`` and the ``body`` as an
escaped string. Each is rewritten through ``sources.write_fixture`` as
``<root>/<source>/<request key>.http``: a one-line JSON header, then the
body as received, which is what replay reads.

Older completion recordings are ``<root>/llm/<sha256 of the prompt>.txt``
files, each the completion text as received. Each is rewritten through
``sources.write_completion_fixture`` as ``<root>/llm/<same sha256>.http``,
the chat reply that replay reads. The old files stay in place.

Every old file is checked before any new one is written. A file that is not
such an envelope, whose request no longer hashes to its file name, or a
completion whose name is not 64 lowercase hex digits, stops the conversion
with an error naming it.

    python3 scripts/convert_fixtures.py fixtures
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from shiftminer.series import Source
from shiftminer.sources import (
    Request,
    Response,
    canonical_request_key,
    write_completion_fixture,
    write_fixture,
)
from shiftminer.storage import read_file


def read_envelope(path: Path) -> tuple[Request, Response]:
    """The exchange an old ``<source>/<key>.json`` envelope recorded."""
    record = json.loads(read_file(path))
    raw = record["request"]
    request = Request(path.parent.name, raw["method"], raw["url"], tuple(map(tuple, raw["params"])))
    status, body = record["status"], record["body"]
    if type(status) is not int or not isinstance(body, str):
        raise TypeError("status is not an int or body is not a string")
    if (key := canonical_request_key(request)) != path.stem:
        raise ValueError(f"the request hashes to {key}, not to the file name")
    return request, Response(status, body)


def read_completion(path: Path) -> tuple[str, str]:
    """The prompt fingerprint and the completion of an old ``llm/<sha256>.txt``."""
    if not re.fullmatch(r"[0-9a-f]{64}", path.stem):
        raise ValueError("the name is not the sha256 of a prompt")
    return path.stem, read_file(path)


def write_completion(llm_dir: Path, fingerprint: str, completion: str) -> None:
    """The completion as ``llm/<fingerprint>.http``. The old file names the prompt
    only by its hash, and the new file's bytes do not depend on the prompt: so it
    is written under a placeholder prompt (the fingerprint itself) and renamed."""
    written = write_completion_fixture(llm_dir, fingerprint, completion)
    written.replace(llm_dir / f"{fingerprint}.http")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("root", type=Path, help="the fixtures directory")
    args = parser.parse_args(argv)

    exchanges, completions = [], []
    for source in Source:
        for path in sorted((args.root / source.value).glob("*.json")):
            try:
                exchanges.append(read_envelope(path))
            except (ValueError, LookupError, TypeError) as exc:
                sys.exit(f"cannot convert {path}: {exc!r}")
    for path in sorted((args.root / "llm").glob("*.txt")):
        try:
            completions.append(read_completion(path))
        except ValueError as exc:
            sys.exit(f"cannot convert {path}: {exc!r}")
    for request, response in exchanges:
        write_fixture(args.root, request, response)
    for fingerprint, completion in completions:
        write_completion(args.root / "llm", fingerprint, completion)
    print(f"converted {len(exchanges) + len(completions)} fixtures under {args.root}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
