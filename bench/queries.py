"""Stratified, seeded stream of CLI-style ``coh``/``homv`` queries.

The query universe is a fixed, enumerated pool (independent of any seed), so
that every query the stream can hold has a stored reference answer.  A stream
is a concatenation of blocks; every block holds the same number of slots per
stratum, and within each stratum the same number of first occurrences and
repeats.  A seed therefore changes which pool entries are drawn and in which
order, never the shape of the stream.

A stratum is (template, twist kind).  Templates fix the query kind (coh or
homv), whether the rank-4 extension ``S`` or a ``Sym^m`` appears, and the
rank band; the twist kind is one of ``h`` (b*h), ``H`` (a*H) or ``mixed``
(both nonzero).  One extra stratum holds malformed strings whose correct
outcome is ``ParseError``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TWIST_KINDS = ("h", "H", "mixed")
MALFORMED = "malformed"


@dataclass(frozen=True)
class Template:
    name: str
    kind: str  # "coh" | "homv"
    bases: tuple  # coh: expression prefixes; homv: (source, target prefix)
    span: int  # |coefficient| bound for pure h / H twists
    per_block: int  # slots per block, a multiple of len(TWIST_KINDS)


#: Mixed twists use both coefficients in [-MIXED_SPAN, MIXED_SPAN] \ {0}.
MIXED_SPAN = 3

# Rank caps keep one query interactive: at most 8 for coh, 16 for homv
# (the rank of source' * target).
TEMPLATES = (
    Template("coh-line", "coh", ("O",), 12, 6),
    Template("coh-U", "coh", ("U", "U'"), 8, 6),
    Template("coh-UU", "coh", ("U*U", "U*U'", "U'*U'"), 6, 6),
    Template("coh-UUU", "coh", ("U*U*U", "U*U*U'", "U*U'*U'"), 4, 6),
    Template(
        "coh-EF",
        "coh",
        tuple(f"E({a},{b})" for b in (1, 2, 3) for a in (-1, 0, 1))
        + tuple(f"F({a},{b})" for a in (1, 2, 3) for b in (-1, 0, 1)),
        3,
        6,
    ),
    Template(
        "coh-Sym",
        "coh",
        ("Sym^2 U", "Sym^3 U", "Sym^4 U", "Sym^5 U", "Sym^2 U'", "Sym^3 U'",
         "Sym^2 E(0,1)", "Sym^3 F(1,0)"),
        4,
        6,
    ),
    Template("coh-S", "coh", ("S", "S'"), 8, 6),
    Template("coh-SU", "coh", ("S*U", "S*U'", "U*S'"), 4, 6),
    Template("homv-line", "homv", (("O", "O"),), 12, 6),
    Template(
        "homv-U",
        "homv",
        tuple((s, t) for s in ("U", "U'", "U(-h)'") for t in ("O", "U", "U'")),
        5,
        9,
    ),
    Template(
        "homv-Sym",
        "homv",
        tuple((s, t) for s in ("Sym^2 U", "Sym^3 U") for t in ("O", "U", "Sym^2 U")),
        3,
        6,
    ),
    Template(
        "homv-S",
        "homv",
        (("S", "U"), ("U", "S"), ("S", "S"), ("S", "O"), ("O", "S"), ("S", "U'")),
        4,
        9,
    ),
)

MALFORMED_PER_BLOCK = 3
BLOCKS_PER_PASS = 13
#: Pool entries per stratum reserved for the warm-up of each pass.
WARMUP_PER_STRATUM = 2


def twist_text(a: int, b: int) -> str:
    """Linear twist in the CLI grammar, e.g. ``2H-3h``, ``-h``."""
    parts = []
    for coeff, symbol in ((a, "H"), (b, "h")):
        if not coeff:
            continue
        mag = "" if abs(coeff) == 1 else str(abs(coeff))
        sign = "-" if coeff < 0 else ("+" if parts else "")
        parts.append(f"{sign}{mag}{symbol}")
    return "".join(parts)


def _twists(kind: str, span: int) -> list[tuple[int, int]]:
    if kind == "h":
        return [(0, b) for b in range(-span, span + 1) if b]
    if kind == "H":
        return [(a, 0) for a in range(-span, span + 1) if a]
    r = range(-MIXED_SPAN, MIXED_SPAN + 1)
    return [(a, b) for a in r for b in r if a and b]


def query_key(query: tuple) -> str:
    """Stable text key of a query: ``coh<TAB>expr`` or ``homv<TAB>a<TAB>b``."""
    return "\t".join(query)


def _template_pool(t: Template, twist_kind: str) -> list[tuple]:
    pool = []
    for base in t.bases:
        for a, b in _twists(twist_kind, t.span):
            tw = f"({twist_text(a, b)})"
            if t.kind == "coh":
                pool.append(("coh", base + tw))
            else:
                source, target = base
                pool.append(("homv", source, target + tw))
    return pool


def _malformed_pool() -> list[tuple]:
    # Each family fails in the parser itself, at a different grammar rule.
    texts = []
    for n in range(1, 13):
        texts += [
            f"U({n}x)",
            f"E({n})",
            f"Sym^{n}U",
            f"O({n}H+)",
            f"U*U({n}h",
            f"X({n},1)",
            f"F({n},1",
            f"U({n},1,2)",
            f"U*({n}h)",
            f"S({n}h))",
        ]
    return [("coh", t) for t in texts]


def strata() -> list[tuple[str, int]]:
    """(stratum name, slots per block) in the fixed generation order."""
    out = []
    for t in TEMPLATES:
        for kind in TWIST_KINDS:
            out.append((f"{t.name}/{kind}", t.per_block // len(TWIST_KINDS)))
    out.append((MALFORMED, MALFORMED_PER_BLOCK))
    return out


def block_size() -> int:
    return sum(per_block for _, per_block in strata())


def pools() -> dict[str, list[tuple]]:
    """The whole query universe, by stratum, in a fixed order."""
    out = {}
    for t in TEMPLATES:
        for kind in TWIST_KINDS:
            out[f"{t.name}/{kind}"] = _template_pool(t, kind)
    out[MALFORMED] = _malformed_pool()
    return out


def make_pass(seed: int, pass_index: int) -> tuple[list[tuple], list[tuple]]:
    """(warm-up queries, timed stream of (stratum, is_repeat, query)) of one pass.

    The warm-up draws pool entries that the timed stream of the same pass
    never uses.
    """
    rng = random.Random(f"g2flop-query-mix:{seed}:{pass_index}")
    all_pools = pools()
    sequences: dict[str, list[tuple[bool, tuple]]] = {}
    warmup: list[tuple] = []
    for name, per_block in strata():
        slots = per_block * BLOCKS_PER_PASS
        repeats = set(rng.sample(range(1, slots), slots // 2))
        fresh_count = slots - len(repeats)
        pool = all_pools[name]
        if len(pool) < fresh_count + WARMUP_PER_STRATUM:
            raise ValueError(f"pool of stratum {name} is too small")
        drawn = rng.sample(pool, fresh_count + WARMUP_PER_STRATUM)
        fresh, warm = drawn[:fresh_count], drawn[fresh_count:]
        if name != MALFORMED:
            warmup += warm
        seq: list[tuple[bool, tuple]] = []
        emitted: list[tuple] = []
        fresh_iter = iter(fresh)
        for slot in range(slots):
            if slot in repeats:
                seq.append((True, rng.choice(emitted)))
            else:
                q = next(fresh_iter)
                emitted.append(q)
                seq.append((False, q))
        sequences[name] = seq
    stream: list[tuple] = []
    cursor = {name: 0 for name in sequences}
    for _ in range(BLOCKS_PER_PASS):
        block = [name for name, per_block in strata() for _ in range(per_block)]
        rng.shuffle(block)
        for name in block:
            is_repeat, q = sequences[name][cursor[name]]
            cursor[name] += 1
            stream.append((name, is_repeat, q))
    return warmup, stream
