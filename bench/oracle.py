"""Reference answers recorded from the program, and the checks against them.

Reference files live in ``bench/reference``.  They are data: an answer is
compared with them, never recomputed by the program under test.  An answer
that was indeterminate in the reference and is determinate now is not a
failure; it is counted as ``newly_determined`` and must still pass the
route-independent Euler-characteristic check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
INDETERMINATE = "?"
PARSE_ERROR = "ParseError"

#: Classical Weyl orders and positive-root counts of the scale builds.
CLASSICAL_BUILDS = {
    "B3": (48, 9),
    "C3": (48, 9),
    "A4": (120, 10),
    "D4": (192, 12),
    "B4": (384, 16),
    "F4": (1152, 24),
    "A5": (720, 15),
    "D5": (1920, 20),
    "B5": (3840, 25),
}


def load(name: str):
    with open(REFERENCE_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def encode_profile(profile) -> str:
    """``d:a,b:m`` entries joined by ``;`` (empty string for the zero profile)."""
    return ";".join(
        f"{d}:{','.join(str(c) for c in hw)}:{m}" for d, hw, m in profile.entries
    )


def encode_coh(result) -> str:
    return encode_profile(result.profile) if result.determined else INDETERMINATE


def encode_homv(result) -> str:
    body = encode_profile(result.profile) if result.determined else INDETERMINATE
    return f"{body}|{result.euler}"


@dataclass
class Verdict:
    """Tally of one batch of checked operations."""

    attempted: int = 0
    failed: int = 0
    newly_determined: int = 0
    problems: list = field(default_factory=list)
    _op_failed: bool = False

    def start(self) -> None:
        """Begin one operation; it counts as failed once, whatever fails in it."""
        self.attempted += 1
        self._op_failed = False

    def fail(self, message: str) -> None:
        if not self._op_failed:
            self.failed += 1
            self._op_failed = True
        if len(self.problems) < 5:
            self.problems.append(message)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.newly_determined += other.newly_determined
        for p in other.problems:
            if len(self.problems) < 5:
                self.problems.append(p)


def compare_answer(verdict: Verdict, key: str, expected: str, got: str) -> None:
    """One determinate/indeterminate answer against its reference encoding."""
    if got == expected:
        return
    exp_body, _, exp_tail = expected.partition("|")
    got_body, _, got_tail = got.partition("|")
    if exp_body == INDETERMINATE and got_body != INDETERMINATE and exp_tail == got_tail:
        verdict.newly_determined += 1
        return
    verdict.fail(f"{key!r}: expected {expected!r}, got {got!r}")


def compare_suites(verdict: Verdict, expected: list, got: list, where: str) -> int:
    """Suite-by-suite comparison of ``check-all`` output; returns passing suites."""
    if [s["name"] for s in got] != [s["name"] for s in expected]:
        verdict.fail(f"{where}: suite list differs")
        return 0
    passing = 0
    for exp, cur in zip(expected, got):
        passing += cur["status"] == "pass"
        if cur == exp:
            continue
        if exp["status"] == "indeterminate-ok" and cur["status"] == "pass":
            verdict.newly_determined += 1
            continue
        verdict.fail(f"{where}: suite {exp['name']} differs from the reference")
    return passing


def check_all_payload(verdict: Verdict, stdout: str, expected: dict) -> int:
    """Check ``check-all --json`` output with its timestamp removed."""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        verdict.fail("check-all: output is not JSON")
        return 0
    payload.pop("timestamp", None)
    suites = payload.pop("suites", [])
    exp = dict(expected)
    exp_suites = exp.pop("suites")
    passing = compare_suites(verdict, exp_suites, suites, "check-all")
    if payload != exp:
        verdict.fail("check-all: envelope differs from the reference")
    return passing


def sod_replay_payload(verdict: Verdict, stdout: str, expected: dict) -> None:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        verdict.fail("sod-replay: output is not JSON")
        return
    if payload != expected:
        verdict.fail("sod-replay: output differs from the reference")
