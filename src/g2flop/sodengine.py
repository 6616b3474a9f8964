"""Certified mutation engine for semiorthogonal decompositions.

A state is a tuple of blocks: an exceptional object is its bundle expression
on the flag variety, an opaque subcategory is its label string.  Moves
verify rather than solve: the mutated-in objects are supplied by the script
and every move emits certificates — Ext-vanishing for transpositions,
Ext-dimension plus K-class balance plus the short-exact-sequence multiset
identity for mutations through a neighbour — each recomputed from scratch
through the total-space Hom machinery, never read off from literals.  A
failed certificate aborts the move with a diff.

``replay_mutation_script`` runs the hard-coded 12-step sequence that turns
the rank-2-side decomposition of the total space into the quadric-side one
and compares the final state with the mirror pattern, emitting the composite
equivalence label.  Negative controls (flipped Cartan convention, a step
whose moves are skipped) are exercised by the test suite, which skips a step
by replacing ``_script`` with a copy that gives that step no moves; each must
fail at its documented step.
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
    weights,
)
from .rootdata import RootSystem, Value, Weight, wneg
from .totalspace import HomVResult, hom_v, omega_v
from .weylbott import K, K1, ZERO, CohomologyProfile, format_profile


class MoveError(ValueError):
    """Structural problem with a move (bad index, wrong block kind)."""


class CertificateError(ValueError):
    """A certificate failed; carries the expected-vs-computed diff."""

    def __init__(self, message: str, certificates: tuple["Certificate", ...]):
        super().__init__(message)
        self.certificates = certificates


#: an exceptional object, or a subcategory's label
Block = Union[BundleExpr, str]


def render(blocks: Sequence[Block]) -> tuple[str, ...]:
    """Print each block: an object as its expression, a subcategory as <label>."""
    return tuple(f"<{b}>" if isinstance(b, str) else format_expr(b) for b in blocks)


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
    _fields = ("index", "result")


class RightMutateThrough(Value):
    _fields = ("index", "result")


class SerreRotateToFront(Value):
    _fields = ("count",)


class SerreRotateToBack(Value):
    _fields = ("count",)


class MutateSubcatLeft(Value):
    _fields = ("index", "span", "new_label")


class MutateSubcatRight(Value):
    _fields = ("index", "span", "new_label")


Move = Union[
    Transpose,
    LeftMutateThrough,
    RightMutateThrough,
    SerreRotateToFront,
    SerreRotateToBack,
    MutateSubcatLeft,
    MutateSubcatRight,
]


def k_class(rs: RootSystem, e: BundleExpr) -> Counter:
    """Class in the free abelian group on line-bundle weights: the weight
    multiset as a ``Counter``, so that classes add and subtract."""
    return Counter(weights(rs, e))


def _format_k_class(c: Counter) -> str:
    items = sorted((w, m) for w, m in c.items() if m != 0)
    if not items:
        return "0"
    return " + ".join(f"{m}*{w}" if m != 1 else f"{w}" for w, m in items)


def _hom_summary(res: HomVResult) -> str:
    if res.determined:
        return format_profile(res.profile)
    p0 = format_profile(res.p0.profile) if res.p0.determined else "indeterminate"
    p1 = format_profile(res.p1.profile) if res.p1.determined else "indeterminate"
    return f"indeterminate (native term {p0}, twisted term {p1})"


def _require_object(blocks: Sequence[Block], i: int) -> BundleExpr:
    if not 0 <= i < len(blocks):
        raise MoveError(f"block index {i} out of range")
    block = blocks[i]
    if isinstance(block, str):
        raise MoveError(f"block {i} is not an exceptional object")
    return block


#: certificate kinds that state a graded Hom rather than an identity
_HOM_KINDS = frozenset({"ExtVanishing", "ExtDim", "Exceptionality"})


def _hom_certificate(
    rs: RootSystem,
    kind: str,
    src: BundleExpr,
    dst: BundleExpr,
    required: CohomologyProfile,
) -> tuple[Certificate, HomVResult]:
    """Certify that hom(src, dst) over the total space is exactly ``required``."""
    res = hom_v(rs, src, dst)
    cert = Certificate(
        kind=kind,
        description=f"hom({format_expr(src)}, {format_expr(dst)})",
        required=format_profile(required),
        computed=_hom_summary(res),
        passed=res.profile == required,
    )
    return cert, res


def _k_balance_certificate(
    rs: RootSystem, result: BundleExpr, moved: BundleExpr, through: BundleExpr, chi: int
) -> Certificate:
    expected = k_class(rs, moved)
    for w, m in k_class(rs, through).items():
        expected[w] -= chi * m
    computed = k_class(rs, result)
    # formal sums: negative coefficients count, zero ones do not
    return Certificate(
        kind="KClassBalance",
        description=f"[{format_expr(result)}] = [{format_expr(moved)}] - chi*[{format_expr(through)}]",
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


def apply_move(
    rs: RootSystem, state: tuple[Block, ...], move: Move
) -> tuple[tuple[Block, ...], tuple[Certificate, ...]]:
    """Apply one certified move, returning the new state and the move's
    certificates; raises CertificateError on a failed check."""
    blocks = list(state)
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
            sub, mid = moved, move.result
        else:
            # co-extension shape: hom(moved, through) = k makes the mutation
            # triangle the short exact sequence result -> moved -> through
            cert, res = _hom_certificate(rs, "ExtDim", moved, through, K)
            sub, mid = move.result, moved
        certs.append(cert)
        _require(certs, f"{side} mutation blocked")
        certs += [
            _k_balance_certificate(rs, move.result, moved, through, res.euler),
            _exact_seq_certificate(rs, sub, mid, through, "mutation triangle"),
        ]
        _require(certs, f"{side} mutation blocked")
        blocks[move.index] = through
        blocks[j] = move.result

    elif isinstance(move, (SerreRotateToFront, SerreRotateToBack)):
        n = move.count
        if not 1 <= n <= len(blocks):
            raise MoveError("rotation count out of range")
        omega = omega_v(rs)
        if isinstance(move, SerreRotateToFront):
            tail = [_twist_object(b, omega) for b in blocks[-n:]]
            blocks = tail + blocks[:-n]
        else:
            inverse = wneg(omega)
            blocks = blocks[n:] + [_twist_object(b, inverse) for b in blocks[:n]]

    elif isinstance(move, (MutateSubcatLeft, MutateSubcatRight)):
        i = move.index
        if not 0 <= i < len(blocks):
            raise MoveError(f"block index {i} out of range")
        if not isinstance(blocks[i], str):
            raise MoveError(f"block {i} is not a subcategory")
        to_left = isinstance(move, MutateSubcatLeft)
        lo, hi = (i - move.span, i) if to_left else (i, i + move.span)
        if not 0 <= lo <= hi < len(blocks):
            raise MoveError("subcategory mutation span out of range")
        updated = [move.new_label]
        if to_left:
            blocks[lo : hi + 1] = updated + blocks[lo:i]
        else:
            blocks[lo : hi + 1] = blocks[i + 1 : hi + 1] + updated

    else:
        raise MoveError(f"unknown move {move!r}")

    return tuple(blocks), tuple(certs)


def _twist_object(block: Block, twist: Weight) -> BundleExpr:
    if isinstance(block, str):
        raise MoveError("only exceptional objects can be Serre-rotated")
    return Twist(block, *twist)


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
    """The replay's steps, and why it failed or None when it passed.

    The rest is derived: every ending (a pass, a halt, a failed seed) ends on
    a step that holds the state reached, and only a pass has no mismatch."""

    _fields = ("steps", "mismatch")

    @property
    def passed(self) -> bool:
        return self.mismatch is None

    @property
    def final_state(self) -> tuple[str, ...]:
        return self.steps[-1].state

    @property
    def conclusion(self) -> Optional[str]:
        return CONCLUSION if self.passed else None

    def to_json(self) -> dict:
        return {
            "steps": [s.to_json() for s in self.steps],
            "final_state": list(self.final_state),
            "final_matches": self.passed,
            "mismatch": self.mismatch,
            "conclusion": self.conclusion,
            "pass": self.passed,
        }


def _script() -> tuple[tuple[int, str, tuple[Move, ...]], ...]:
    return (
        (
            2,
            "move the ambient-image subcategory two steps left",
            # Phi1 = L_<O(H),U'(H)> . Phi+
            (MutateSubcatLeft(6, 2, "Phi1"),),
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
            (LeftMutateThrough(3, Spinor()),),
        ),
        (6, "rotate O(-H) to the back", (SerreRotateToBack(1),)),
        (
            7,
            "move the subcategory right past O(h)",
            # Phi2 = R_<O(h)> . Phi1
            (MutateSubcatRight(5, 1, "Phi2"),),
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
            # Phi3 = L_<O(H-2h),O(H-h)> . Phi2
            (MutateSubcatLeft(6, 2, "Phi3"),),
        ),
        (
            12,
            "rotate the last two objects to the front",
            (SerreRotateToFront(2),),
        ),
    )


def seed_state(rs: RootSystem) -> tuple[tuple[Block, ...], tuple[Certificate, ...]]:
    """Install the six seed objects plus the ambient subcategory block.

    Every seeded object must certify exceptional (self-Hom exactly k).
    """
    certs = tuple(
        _hom_certificate(rs, "Exceptionality", o, o, K)[0] for o in SEED_OBJECTS
    )
    for c in certs:
        if not c.passed:
            raise CertificateError(
                f"seed exceptionality failed: {c.description} = {c.computed}", certs
            )
    return SEED_OBJECTS + ("Phi+",), certs


def _states_match(state: tuple[Block, ...]) -> Optional[str]:
    """Compare the final state against the mirror-side pattern.

    Objects are compared as expressions, each its own normal form, so an
    object with the right weights but the wrong shape, such as S'(-h) for S,
    is a mismatch; the trailing block must be a subcategory in both patterns.
    """
    if len(state) != len(TARGET_OBJECTS) + 1:
        return f"expected {len(TARGET_OBJECTS) + 1} blocks, found {len(state)}"
    for k, target in enumerate(TARGET_OBJECTS):
        block = state[k]
        if isinstance(block, str):
            return f"block {k} should be an object, found <{block}>"
        if block != target:
            return (
                f"block {k} is {format_expr(block)} but the mirror pattern has "
                f"{format_expr(target)}"
            )
    if not isinstance(state[-1], str):
        return "trailing block is not a subcategory"
    return None


def replay_mutation_script(rs: RootSystem) -> ReplayReport:
    """Run the full 12-step mutation sequence with all certificates.

    A failed certificate or a structurally impossible move halts the replay
    at its step, and the report carries the diff.
    """
    steps: list[StepReport] = []
    try:
        state, seed_certs = seed_state(rs)
    except CertificateError as err:
        seed = StepReport(1, "seed the ambient decomposition", (), err.certificates, (), False)
        return ReplayReport((seed,), str(err))
    steps.append(
        StepReport(
            1,
            "seed the ambient decomposition",
            ("install six objects + subcategory",),
            seed_certs,
            render(state),
            True,
        )
    )
    for index, description, moves in _script():
        move_names = tuple(describe_move(m) for m in moves)
        collected: list[Certificate] = []
        try:
            for m in moves:
                state, certs = apply_move(rs, state, m)
                collected.extend(certs)
        except (CertificateError, MoveError) as err:
            collected.extend(getattr(err, "certificates", ()))
            steps.append(
                StepReport(
                    index, description, move_names, tuple(collected), render(state), False
                )
            )
            return ReplayReport(tuple(steps), f"halted at step {index}: {err}")
        steps.append(
            StepReport(index, description, move_names, tuple(collected), render(state), True)
        )
    return ReplayReport(tuple(steps), _states_match(state))
