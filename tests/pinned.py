"""The outputs whose digests CI and the tier-1 suite both pin.

``pinned_outputs.json`` lists each command's arguments, how many story
separators its output holds, and the SHA-256 of that output. Two
placeholders stand for paths: ``{data}`` is the package's data
directory, and ``{run}`` a file holding the output of the entry's
``run`` command. With ``drop_manifest`` the output is JSON and is
hashed without its manifest, whose ``kb_path`` depends on where the
package is installed.

Check every entry, running the program through any launcher:

    python tests/pinned.py incidentgen
    PYTHONPATH=src python tests/pinned.py python -m incidentgen
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from incidentgen.cli import SEPARATOR
from incidentgen.kb import data_path

ENTRIES = json.loads(Path(__file__).with_name("pinned_outputs.json").read_text())


def _stdout(argv: Sequence[str], env: Optional[dict]) -> bytes:
    run = subprocess.run(argv, capture_output=True, env=env)
    if run.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {run.returncode}: {run.stderr.decode()}")
    return run.stdout


def output(entry: dict, command: Sequence[str], workdir: Path, env: Optional[dict] = None) -> bytes:
    """What the entry's command prints, run through ``command``."""
    paths = {"data": str(data_path("")), "run": str(workdir / "run.json")}
    if "run" in entry:
        (workdir / "run.json").write_bytes(_stdout([*command, *entry["run"]], env))
    return _stdout([*command, *(arg.format(**paths) for arg in entry["args"])], env)


def problems(entry: dict, out: bytes) -> list[str]:
    """How ``out`` differs from what the entry pins."""
    found = []
    separators = out.count(f"{SEPARATOR}\n".encode())
    if separators != entry["separators"]:
        found.append(f"{entry['id']}: {separators} separators, not {entry['separators']}")
    if entry.get("drop_manifest"):
        body = json.loads(out)
        body.pop("manifest")
        out = json.dumps(body, indent=2, sort_keys=True).encode()
    digest = hashlib.sha256(out).hexdigest()
    if digest != entry["sha256"]:
        found.append(f"{entry['id']}: sha256 {digest}, not {entry['sha256']}")
    return found


def main(command: Sequence[str]) -> int:
    found = []
    with tempfile.TemporaryDirectory() as workdir:
        for entry in ENTRIES:
            found += problems(entry, output(entry, command, Path(workdir)))
    for problem in found:
        print(problem, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
