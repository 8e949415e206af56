"""One sha256 per config over every report affconn makes from it.

    PYTHONPATH=src python tools/report_digest.py CONFIG [CONFIG ...]

For each config this runs, in process, ``verify`` clean and once per
``--corrupt-term`` (every corruptible term), then ``ablate`` and
``tensors``.  Each report is rendered as JSON (17 significant digits, so
every float round-trips to its bits) and hashed with its exit code.  It
prints one line per config and a last line over all of them.  Two trees
that print the same overall digest produce byte-identical reports on
these configs.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from affconn.cli import cmd_ablate, cmd_tensors, cmd_verify, parse_config, render_json
from affconn.curvature import CORRUPTIBLE_TERMS


def reports(config):
    """(name, exit code, report) for every command run on ``config``."""
    yield ("verify", *cmd_verify(config))
    for term in CORRUPTIBLE_TERMS:
        yield (f"verify --corrupt-term {term}", *cmd_verify(config, corrupt_term=term))
    yield ("ablate", *cmd_ablate(config))
    yield ("tensors", *cmd_tensors(config))


def config_digest(path: str) -> str:
    digest = hashlib.sha256()
    for name, code, report in reports(parse_config(Path(path).read_text(encoding="utf-8"))):
        digest.update(f"{name}\n{code}\n{render_json(report)}\n".encode())
    return digest.hexdigest()


def main(paths: list[str]) -> int:
    if not paths:
        sys.stderr.write(__doc__)
        return 2
    overall = hashlib.sha256()
    for path in paths:
        digest = config_digest(path)
        overall.update(digest.encode())
        print(f"{digest}  {path}")
    print(f"{overall.hexdigest()}  overall")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
