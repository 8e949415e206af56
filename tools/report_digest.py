"""One sha256 per config over every report affconn makes from it.

    PYTHONPATH=src python tools/report_digest.py [--points N] CONFIG [CONFIG ...]

For each config this runs, in process, ``verify`` clean and once per
``--corrupt-term`` (every corruptible term), then ``ablate`` and
``tensors``.  Each report is rendered as JSON (17 significant digits, so
every float round-trips to its bits) and hashed with its exit code.  It
prints one line per config and a last line over all of them.  Two trees
that print the same overall digest produce byte-identical reports on
these configs.

``--points N`` sets each config's ``points.count`` to N before parsing
(the config must draw its points with a ``{count, seed}`` sampler), so
one config can check batches of any size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def config_text(path: str, points: int | None) -> str:
    """The config at ``path``, with ``points.count`` set to ``points`` if given."""
    text = Path(path).read_text(encoding="utf-8")
    if points is None:
        return text
    root = json.loads(text)
    if not isinstance(root.get("points"), dict):
        raise SystemExit(f"{path}: --points needs a {{count, seed}} points sampler")
    root["points"]["count"] = points
    return json.dumps(root)


def config_digest(path: str, points: int | None = None) -> str:
    digest = hashlib.sha256()
    for name, code, report in reports(parse_config(config_text(path, points))):
        digest.update(f"{name}\n{code}\n{render_json(report)}\n".encode())
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", type=int, metavar="N",
                        help="override each config's points.count")
    parser.add_argument("configs", nargs="+", metavar="CONFIG")
    args = parser.parse_args(argv)
    overall = hashlib.sha256()
    for path in args.configs:
        digest = config_digest(path, args.points)
        overall.update(digest.encode())
        print(f"{digest}  {path}")
    print(f"{overall.hexdigest()}  overall")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
