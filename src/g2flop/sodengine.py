"""Certified mutation engine for semiorthogonal decompositions.

A state is an ordered list of blocks: exceptional objects given by bundle
expressions on the flag variety, or opaque labeled subcategories carrying
their functor history.  Moves verify rather than solve: the mutated-in
objects are supplied by the script and every move emits certificates —
Ext-vanishing for transpositions, Ext-dimension plus K-class balance plus the
short-exact-sequence multiset identity for mutations through a neighbour —
each recomputed from scratch through the total-space Hom machinery, never
read off from literals.  A failed certificate aborts the move with a diff.

``replay_mutation_script`` runs the hard-coded 12-step sequence that turns
the rank-2-side decomposition of the total space into the quadric-side one
and compares the final state with the mirror pattern, emitting the composite
equivalence label.  Negative controls (flipped Cartan convention, skipped
transposition) are exercised by the test suite and must fail at their
documented steps.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence, Union

from .bundles import (
    BundleExpr,
    Dual,
    Line,
    Spinor,
    Twist,
    Universal,
    format_expr,
    normalize,
    weights,
)
from .rootdata import RootSystem, Value, Weight, g2, wneg
from .totalspace import K, K1, TOTAL_SPACE_CANONICAL_TWIST, ZERO, HomVResult, hom_v
from .weylbott import CohomologyProfile, format_profile


class MoveError(ValueError):
    """Structural problem with a move (bad index, wrong block kind)."""


class CertificateError(ValueError):
    """A certificate failed; carries the expected-vs-computed diff."""

    def __init__(self, message: str, certificates: tuple["Certificate", ...]):
        super().__init__(message)
        self.certificates = certificates


class ExcObject(Value):
    _fields = ("expr", "tag")
    _defaults = {"tag": None}

    def render(self) -> str:
        return format_expr(self.expr)


class Subcat(Value):
    _fields = ("label", "history")
    _defaults = {"history": ()}

    def render(self) -> str:
        return f"<{self.label}>"


Block = Union[ExcObject, Subcat]


class Certificate(Value):
    # kind: ExtVanishing | ExtDim | KClassBalance | ExactSeq | Exceptionality
    _fields = ("kind", "description", "required", "computed", "passed")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "description": self.description,
            "required": self.required,
            "computed": self.computed,
            "pass": self.passed,
        }


# --- moves -------------------------------------------------------------------


class Transpose(Value):
    _fields = ("index",)


class LeftMutateThrough(Value):
    _fields = ("index", "result", "result_tag")
    _defaults = {"result_tag": None}


class RightMutateThrough(Value):
    _fields = ("index", "result", "result_tag")
    _defaults = {"result_tag": None}


class SerreRotateToFront(Value):
    _fields = ("count",)


class SerreRotateToBack(Value):
    _fields = ("count",)


class MutateSubcatLeft(Value):
    _fields = ("index", "span", "new_label", "functor_note")


class MutateSubcatRight(Value):
    _fields = ("index", "span", "new_label", "functor_note")


Move = Union[
    Transpose,
    LeftMutateThrough,
    RightMutateThrough,
    SerreRotateToFront,
    SerreRotateToBack,
    MutateSubcatLeft,
    MutateSubcatRight,
]


class SODState(Value):
    _fields = ("blocks", "move_log")
    _defaults = {"move_log": ()}

    def render(self) -> tuple[str, ...]:
        return tuple(b.render() for b in self.blocks)


def k_class(rs: RootSystem, e: BundleExpr) -> Counter:
    """Class in the free abelian group on line-bundle weights: the weight
    multiset as a ``Counter``, so that classes add and subtract."""
    return Counter(weights(rs, e))


def _format_k_class(c: Counter) -> str:
    items = sorted((w, m) for w, m in c.items() if m != 0)
    if not items:
        return "0"
    return " + ".join(f"{m}*{w}" if m != 1 else f"{w}" for w, m in items)


def _hom_summary(rs: RootSystem, res: HomVResult) -> str:
    if res.determined:
        return format_profile(res.profile)
    p0 = format_profile(res.p0.profile) if res.p0.determined else "indeterminate"
    p1 = format_profile(res.p1.profile) if res.p1.determined else "indeterminate"
    return f"indeterminate (native term {p0}, twisted term {p1})"


def _require_object(blocks: Sequence[Block], i: int) -> ExcObject:
    if not 0 <= i < len(blocks):
        raise MoveError(f"block index {i} out of range")
    block = blocks[i]
    if not isinstance(block, ExcObject):
        raise MoveError(f"block {i} is not an exceptional object")
    return block


#: certificate kinds that state a graded Hom rather than an identity
_HOM_KINDS = frozenset({"ExtVanishing", "ExtDim", "Exceptionality"})


def _hom_certificate(
    rs: RootSystem,
    kind: str,
    src: ExcObject,
    dst: ExcObject,
    required: CohomologyProfile,
) -> tuple[Certificate, HomVResult]:
    """Certify that hom(src, dst) over the total space is exactly ``required``."""
    res = hom_v(rs, src.expr, dst.expr)
    cert = Certificate(
        kind=kind,
        description=f"hom({src.render()}, {dst.render()})",
        required=format_profile(required),
        computed=_hom_summary(rs, res),
        passed=res.determined and res.profile == required,
    )
    return cert, res


def _k_balance_certificate(
    rs: RootSystem, result: BundleExpr, moved: ExcObject, through: ExcObject, chi: int
) -> Certificate:
    expected = k_class(rs, moved.expr)
    for w, m in k_class(rs, through.expr).items():
        expected[w] -= chi * m
    computed = k_class(rs, result)
    # formal sums: negative coefficients count, zero ones do not
    return Certificate(
        kind="KClassBalance",
        description=f"[{format_expr(result)}] = [{moved.render()}] - chi*[{through.render()}]",
        required=_format_k_class(expected),
        computed=_format_k_class(computed),
        passed=expected == computed,
    )


def _exact_seq_certificate(
    rs: RootSystem, sub: BundleExpr, mid: BundleExpr, quot: BundleExpr, note: str
) -> Certificate:
    lhs = k_class(rs, sub) + k_class(rs, quot)
    rhs = k_class(rs, mid)
    return Certificate(
        kind="ExactSeq",
        description=f"0 -> {format_expr(sub)} -> {format_expr(mid)} -> {format_expr(quot)} -> 0 ({note})",
        required=_format_k_class(rhs),
        computed=_format_k_class(lhs),
        passed=lhs == rhs,
    )


def _require(certs: list[Certificate], what: str) -> None:
    """Abort the move on the first failed certificate, with its diff."""
    for c in certs:
        if not c.passed:
            shown = (
                f"{c.description} = {c.computed}"
                if c.kind in _HOM_KINDS
                else f"{c.description}: computed {c.computed}"
            )
            raise CertificateError(
                f"{what}: {shown}, required {c.required}", tuple(certs)
            )


def apply_move(rs: RootSystem, state: SODState, move: Move) -> SODState:
    """Apply one certified move; raises CertificateError on a failed check."""
    blocks = list(state.blocks)
    certs: list[Certificate] = []

    if isinstance(move, Transpose):
        left = _require_object(blocks, move.index)
        right = _require_object(blocks, move.index + 1)
        certs.append(_hom_certificate(rs, "ExtVanishing", left, right, ZERO)[0])
        _require(certs, "transposition blocked")
        blocks[move.index], blocks[move.index + 1] = right, left

    elif isinstance(move, (LeftMutateThrough, RightMutateThrough)):
        to_left = isinstance(move, LeftMutateThrough)
        side = "left" if to_left else "right"
        moved = _require_object(blocks, move.index)
        j = move.index - 1 if to_left else move.index + 1
        if not 0 <= j < len(blocks):
            end = "first" if to_left else "last"
            raise MoveError(f"cannot mutate the {end} block to the {side}")
        through = _require_object(blocks, j)
        if to_left:
            # extension shape: hom(through, moved) = k[-1] makes the mutation
            # triangle the short exact sequence moved -> result -> through
            cert, res = _hom_certificate(rs, "ExtDim", through, moved, K1)
            sub, mid = moved.expr, move.result
        else:
            # co-extension shape: hom(moved, through) = k makes the mutation
            # triangle the short exact sequence result -> moved -> through
            cert, res = _hom_certificate(rs, "ExtDim", moved, through, K)
            sub, mid = move.result, moved.expr
        certs.append(cert)
        _require(certs, f"{side} mutation blocked")
        certs += [
            _k_balance_certificate(rs, move.result, moved, through, res.euler),
            _exact_seq_certificate(rs, sub, mid, through.expr, "mutation triangle"),
        ]
        _require(certs, f"{side} mutation blocked")
        blocks[move.index] = through
        blocks[j] = ExcObject(normalize(move.result), move.result_tag)

    elif isinstance(move, (SerreRotateToFront, SerreRotateToBack)):
        n = move.count
        if not 1 <= n <= len(blocks):
            raise MoveError("rotation count out of range")
        if isinstance(move, SerreRotateToFront):
            tail = [_twist_object(b, TOTAL_SPACE_CANONICAL_TWIST) for b in blocks[-n:]]
            blocks = tail + blocks[:-n]
        else:
            inverse = wneg(TOTAL_SPACE_CANONICAL_TWIST)
            blocks = blocks[n:] + [_twist_object(b, inverse) for b in blocks[:n]]

    elif isinstance(move, (MutateSubcatLeft, MutateSubcatRight)):
        i = move.index
        if not 0 <= i < len(blocks):
            raise MoveError(f"block index {i} out of range")
        subcat = blocks[i]
        if not isinstance(subcat, Subcat):
            raise MoveError(f"block {i} is not a subcategory")
        updated = [Subcat(move.new_label, subcat.history + (move.functor_note,))]
        to_left = isinstance(move, MutateSubcatLeft)
        lo, hi = (i - move.span, i) if to_left else (i, i + move.span)
        if not 0 <= lo <= hi < len(blocks):
            raise MoveError("subcategory mutation span out of range")
        if to_left:
            blocks[lo : hi + 1] = updated + blocks[lo:i]
        else:
            blocks[lo : hi + 1] = blocks[i + 1 : hi + 1] + updated

    else:
        raise MoveError(f"unknown move {move!r}")

    log = state.move_log + ((describe_move(move), tuple(certs)),)
    return SODState(tuple(blocks), log)


def _twist_object(block: Block, twist: Weight) -> Block:
    if not isinstance(block, ExcObject):
        raise MoveError("only exceptional objects can be Serre-rotated")
    return ExcObject(normalize(Twist(block.expr, *twist)), None)


def describe_move(move: Move) -> str:
    if isinstance(move, Transpose):
        return f"transpose blocks {move.index},{move.index + 1}"
    if isinstance(move, LeftMutateThrough):
        return f"mutate block {move.index} left -> {format_expr(move.result)}"
    if isinstance(move, RightMutateThrough):
        return f"mutate block {move.index} right -> {format_expr(move.result)}"
    if isinstance(move, SerreRotateToFront):
        return f"rotate last {move.count} to front (twist by omega)"
    if isinstance(move, SerreRotateToBack):
        return f"rotate first {move.count} to back (twist by omega inverse)"
    if isinstance(move, MutateSubcatLeft):
        return f"subcategory at {move.index} left by {move.span} -> {move.new_label}"
    if isinstance(move, MutateSubcatRight):
        return f"subcategory at {move.index} right by {move.span} -> {move.new_label}"
    return repr(move)


# --- the hard-coded replay script --------------------------------------------


U = Universal()
U_DUAL = Dual(Universal())

#: the rank-2-Grassmannian-side collection, pulled back to the flag variety
SEED_OBJECTS: tuple[BundleExpr, ...] = (
    Line(-1, 0),
    U,
    Line(0, 0),
    U_DUAL,
    Line(1, 0),
    Twist(U_DUAL, 1, 0),
)

#: the quadric-side collection, pulled back to the flag variety
TARGET_OBJECTS: tuple[BundleExpr, ...] = (
    Line(0, -3),
    Line(0, -2),
    Line(0, -1),
    Spinor(),
    Line(0, 0),
    Line(0, 1),
)

CONCLUSION = "equivalence = (left adjoint of Phi-) o Phi3"


class StepReport(Value):
    _fields = ("index", "description", "moves", "certificates", "state", "ok")

    def to_json(self) -> dict:
        return {
            "step": self.index,
            "description": self.description,
            "moves": list(self.moves),
            "certificates": [c.to_json() for c in self.certificates],
            "state": list(self.state),
            "pass": self.ok,
        }


class ReplayReport(Value):
    _fields = (
        "steps",
        "final_state",
        "final_matches",
        "mismatch",
        "conclusion",
        "passed",
    )

    def to_json(self) -> dict:
        return {
            "steps": [s.to_json() for s in self.steps],
            "final_state": list(self.final_state),
            "final_matches": self.final_matches,
            "mismatch": self.mismatch,
            "conclusion": self.conclusion,
            "pass": self.passed,
        }


def _script() -> tuple[tuple[int, str, tuple[Move, ...]], ...]:
    return (
        (
            2,
            "move the ambient-image subcategory two steps left",
            (MutateSubcatLeft(6, 2, "Phi1", "L_<O(H),U'(H)> . Phi+"),),
        ),
        (
            3,
            "rotate the last two objects to the front",
            (SerreRotateToFront(2),),
        ),
        (
            4,
            "move O(-H) to the front through two right-orthogonal objects",
            (Transpose(1), Transpose(0)),
        ),
        (
            5,
            "mutate U one step left into the rank-4 extension",
            (LeftMutateThrough(3, Spinor(), "S"),),
        ),
        (6, "rotate O(-H) to the back", (SerreRotateToBack(1),)),
        (
            7,
            "move the subcategory right past O(h)",
            (MutateSubcatRight(5, 1, "Phi2", "R_<O(h)> . Phi1"),),
        ),
        (
            8,
            "mutate U'(-h) one step right through O",
            (RightMutateThrough(2, Line(1, -2)),),
        ),
        (
            9,
            "mutate U' one step right through O(h) (derived certificate)",
            (RightMutateThrough(4, Line(1, -1)),),
        ),
        (10, "exchange O(H-2h) and O(h)", (Transpose(3),)),
        (
            11,
            "move the subcategory two steps left",
            (MutateSubcatLeft(6, 2, "Phi3", "L_<O(H-2h),O(H-h)> . Phi2"),),
        ),
        (
            12,
            "rotate the last two objects to the front",
            (SerreRotateToFront(2),),
        ),
    )


def seed_state(rs: RootSystem) -> tuple[SODState, tuple[Certificate, ...]]:
    """Install the six seed objects plus the ambient subcategory block.

    Every seeded object must certify exceptional (self-Hom exactly k).
    """
    objects = tuple(ExcObject(e) for e in SEED_OBJECTS)
    certs = tuple(_hom_certificate(rs, "Exceptionality", o, o, K)[0] for o in objects)
    for c in certs:
        if not c.passed:
            raise CertificateError(
                f"seed exceptionality failed: {c.description} = {c.computed}", certs
            )
    return SODState(objects + (Subcat("Phi+"),)), certs


def _states_match(rs: RootSystem, state: SODState) -> Optional[str]:
    """Compare the final state against the mirror-side pattern.

    Objects are compared as exact weight multisets; the trailing block must
    be a subcategory in both patterns.
    """
    if len(state.blocks) != len(TARGET_OBJECTS) + 1:
        return f"expected {len(TARGET_OBJECTS) + 1} blocks, found {len(state.blocks)}"
    for k, target in enumerate(TARGET_OBJECTS):
        block = state.blocks[k]
        if not isinstance(block, ExcObject):
            return f"block {k} should be an object, found {block.render()}"
        if k_class(rs, block.expr) != k_class(rs, target):
            return (
                f"block {k} is {block.render()} but the mirror pattern has "
                f"{format_expr(target)}"
            )
    last = state.blocks[-1]
    if not isinstance(last, Subcat):
        return "trailing block is not a subcategory"
    return None


def replay_mutation_script(
    rs: Optional[RootSystem] = None,
    skip_steps: frozenset[int] | set[int] = frozenset(),
) -> ReplayReport:
    """Run the full 12-step mutation sequence with all certificates.

    ``skip_steps`` disables script steps by index (negative controls).  A
    failed certificate or a structurally impossible move halts the replay at
    its step, and the report carries the diff.
    """
    rs = rs or g2()
    steps: list[StepReport] = []
    try:
        state, seed_certs = seed_state(rs)
    except CertificateError as err:
        steps.append(
            StepReport(1, "seed the ambient decomposition", (), err.certificates, (), False)
        )
        return ReplayReport(tuple(steps), (), False, str(err), None, False)
    steps.append(
        StepReport(
            1,
            "seed the ambient decomposition",
            ("install six objects + subcategory",),
            seed_certs,
            state.render(),
            True,
        )
    )
    for index, description, moves in _script():
        if index in skip_steps:
            steps.append(
                StepReport(index, f"SKIPPED: {description}", (), (), state.render(), True)
            )
            continue
        move_names = tuple(describe_move(m) for m in moves)
        collected: list[Certificate] = []
        try:
            for m in moves:
                state = apply_move(rs, state, m)
                collected.extend(state.move_log[-1][1])
        except (CertificateError, MoveError) as err:
            collected.extend(getattr(err, "certificates", ()))
            steps.append(
                StepReport(
                    index, description, move_names, tuple(collected), state.render(), False
                )
            )
            return ReplayReport(
                tuple(steps),
                state.render(),
                False,
                f"halted at step {index}: {err}",
                None,
                False,
            )
        steps.append(
            StepReport(index, description, move_names, tuple(collected), state.render(), True)
        )
    mismatch = _states_match(rs, state)
    matches = mismatch is None
    return ReplayReport(
        steps=tuple(steps),
        final_state=state.render(),
        final_matches=matches,
        mismatch=mismatch,
        conclusion=CONCLUSION if matches else None,
        passed=matches,
    )
