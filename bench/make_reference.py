"""Record the reference answers in ``bench/reference`` from the current source.

    PYTHONPATH=src python bench/make_reference.py

Run it only when the program's answers are meant to change (for example a
newly certified rule), and review the diff of the reference files: the
benchmark judges every later commit against them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import oracle
import queries
import worker

ROOT = Path(__file__).resolve().parent.parent


def _cli_json(*argv: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "g2flop.cli", *argv, "--json"],
        cwd=ROOT,
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    payload = json.loads(out)
    payload.pop("timestamp", None)
    return payload


def query_answers() -> dict[str, str]:
    import g2flop.bundles as bundles
    import g2flop.totalspace as totalspace
    from g2flop import g2

    rs = g2()
    answers = {}
    for stratum, pool in queries.pools().items():
        for q in pool:
            key = queries.query_key(q)
            if stratum == queries.MALFORMED:
                try:
                    bundles.parse_expr(q[1])
                except bundles.ParseError:
                    answers[key] = oracle.PARSE_ERROR
                    continue
                raise SystemExit(f"malformed pool entry {key!r} parses")
            if q[0] == "coh":
                res = bundles.flag_cohomology(rs, bundles.parse_expr(q[1]))
                answers[key] = oracle.encode_coh(res)
            else:
                a, b = bundles.parse_expr(q[1]), bundles.parse_expr(q[2])
                answers[key] = oracle.encode_homv(totalspace.hom_v(rs, a, b))
    return answers


def scale_answers() -> dict[str, str]:
    return {name: encode(thunk()) for name, thunk, encode in worker.scale_probes()}


def _write(name: str, data) -> None:
    path = oracle.REFERENCE_DIR / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> int:
    oracle.REFERENCE_DIR.mkdir(exist_ok=True)
    _write("check_all.json", _cli_json("check-all"))
    _write("sod_replay.json", _cli_json("sod-replay"))
    _write("queries.json", query_answers())
    _write("scale.json", scale_answers())
    return 0


if __name__ == "__main__":
    sys.exit(main())
