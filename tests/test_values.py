"""Value semantics of the package's frozen value classes.

Every class compares and hashes by exact type plus fields, refuses assignment
and deletion, and prints like the dataclass it replaced; the pinned reprs were
recorded from the dataclass versions.  ``RootSystem`` alone compares by
identity.  Constructors are generated from ``_fields``, every field
required; the pinned arity errors were recorded from the hand-written
constructors they replaced.  The bundle constructors (``Line`` ... ``Twist``)
are functions that each build a ``BundleExpr``; a case is named after the
callable it calls.
"""

from __future__ import annotations

import copy
import gc
import inspect
import itertools
import pickle

import pytest

from g2flop.bundles import (
    BundleExpr,
    CohResult,
    Dual,
    IrrP1,
    IrrP2,
    Line,
    Spinor,
    Sym,
    Tensor,
    Twist,
    Universal,
)
from g2flop.checks import SuiteResult
from g2flop.rootdata import (
    G2_CARTAN,
    Root,
    RootSystem,
    Value,
    _init_template,
    build_root_system,
)
from g2flop.sodengine import (
    Certificate,
    LeftMutateThrough,
    MutateSubcatLeft,
    MutateSubcatRight,
    ReplayReport,
    RightMutateThrough,
    SerreRotateToBack,
    SerreRotateToFront,
    StepReport,
    Transpose,
)
from g2flop.totalspace import HomVResult
from g2flop.weylbott import CohomologyProfile

K = CohomologyProfile(((0, (0, 0), 1),))
COH = CohResult(K, (), "filtration")
K_TEXT = "CohomologyProfile(entries=((0, (0, 0), 1),))"
COH_TEXT = f"CohResult(profile={K_TEXT}, e1=(), route='filtration')"
U = "('U', -1, 1, 1, False)"
U_DUAL = "('U', -1, 1, 1, True)"

#: (factory, repr recorded from the dataclass version)
CASES = [
    (
        lambda: Root((1, 0), (2, -3), 6),
        "Root(simple_coords=(1, 0), weight_coords=(2, -3), length_sq=6)",
    ),
    (
        lambda: CohomologyProfile(((0, (0, 0), 1), (1, (1, 0), 2))),
        "CohomologyProfile(entries=((0, (0, 0), 1), (1, (1, 0), 2)))",
    ),
    (lambda: Line(0, 1), "BundleExpr(factors=(), twist=(0, 1))"),
    (lambda: Universal(), f"BundleExpr(factors=({U},), twist=(0, 0))"),
    (
        lambda: Spinor(),
        "BundleExpr(factors=(('S', 0, 0, 1, False),), twist=(0, 0))",
    ),
    (
        lambda: IrrP1(-1, 1),
        "BundleExpr(factors=(('E', -1, 1, 1, False),), twist=(0, 0))",
    ),
    (
        lambda: IrrP2(1, 1),
        "BundleExpr(factors=(('F', 1, 1, 1, False),), twist=(0, 0))",
    ),
    (lambda: Dual(Universal()), f"BundleExpr(factors=({U_DUAL},), twist=(0, 0))"),
    (
        lambda: Tensor(Universal(), Line(0, 1)),
        f"BundleExpr(factors=({U},), twist=(0, 1))",
    ),
    (
        lambda: Sym(2, Universal()),
        "BundleExpr(factors=(('U', -1, 1, 2, False),), twist=(0, 0))",
    ),
    (lambda: Twist(Universal(), 0, 1), f"BundleExpr(factors=({U},), twist=(0, 1))"),
    (
        lambda: Twist(arg=Dual(Universal()), a=0, b=-1),
        f"BundleExpr(factors=({U_DUAL},), twist=(0, -1))",
    ),
    (lambda: CohResult(K, (), "filtration"), COH_TEXT),
    (
        lambda: Certificate("ExtDim", "hom(U, U)", "k", "k", True),
        "Certificate(kind='ExtDim', description='hom(U, U)', required='k', "
        "computed='k', passed=True)",
    ),
    (lambda: Transpose(1), "Transpose(index=1)"),
    (
        lambda: LeftMutateThrough(1, Universal()),
        f"LeftMutateThrough(index=1, result=BundleExpr(factors=({U},), "
        "twist=(0, 0)))",
    ),
    (
        lambda: RightMutateThrough(2, result=Line(0, 1)),
        "RightMutateThrough(index=2, result=BundleExpr(factors=(), twist=(0, 1)))",
    ),
    (lambda: SerreRotateToFront(1), "SerreRotateToFront(count=1)"),
    (lambda: SerreRotateToBack(1), "SerreRotateToBack(count=1)"),
    (
        lambda: MutateSubcatLeft(0, 2, "B"),
        "MutateSubcatLeft(index=0, span=2, new_label='B')",
    ),
    (
        lambda: MutateSubcatRight(0, 2, "B"),
        "MutateSubcatRight(index=0, span=2, new_label='B')",
    ),
    (
        lambda: StepReport(1, "seed", ("transpose 1",), (), ("O", "<A>"), True),
        "StepReport(index=1, description='seed', moves=('transpose 1',), "
        "certificates=(), state=('O', '<A>'), ok=True)",
    ),
    (
        lambda: ReplayReport((), "halted at step 4"),
        "ReplayReport(steps=(), mismatch='halted at step 4')",
    ),
    (
        lambda: HomVResult(K, COH, COH, 1),
        f"HomVResult(profile={K_TEXT}, p0={COH_TEXT}, p1={COH_TEXT}, euler=1)",
    ),
    (
        lambda: SuiteResult("calabi-yau", "pass", 2, ()),
        "SuiteResult(name='calabi-yau', status='pass', checks=2, details=())",
    ),
    (
        lambda: BundleExpr((("U", -1, 1, 1, False), ("U", -1, 1, 1, True)), (0, 1)),
        f"BundleExpr(factors=({U}, {U_DUAL}), twist=(0, 1))",
    ),
]
#: Positions of cases whose classes were deleted; they stay unused, so that
#: no remaining case's id changes.
RETIRED = frozenset({1, 3, 4, 5, 16, 18, 19, 20, 29})
POSITIONS = [i for i in range(len(CASES) + len(RETIRED)) if i not in RETIRED]
IDS = [make.__code__.co_names[0] + str(i) for i, (make, _) in zip(POSITIONS, CASES)]


def test_every_value_class_is_covered():
    classes = {type(make()) for make, _ in CASES} | {RootSystem}
    assert classes == set(Value.__subclasses__())
    assert len(classes) == 17


def test_determined_is_read_off_the_profile():
    # A result is determined exactly when it has a profile, so no class
    # stores the flag beside it.
    assert all("determined" not in cls._fields for cls in Value.__subclasses__())
    undetermined = CohResult(None, (), "none")
    assert (COH.determined, undetermined.determined) == (True, False)
    assert HomVResult(None, COH, undetermined, 1).determined is False
    assert HomVResult(K, COH, COH, 1).determined is True


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_fields_name_every_attribute_in_constructor_order(make, text):
    # Equality, hashing and repr read _fields, so a field missing there would
    # silently drop out of all three.
    a = make()
    assert tuple(vars(a)) == type(a)._fields


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_equal_fields_give_equal_values(make, text):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == text
    assert copy.copy(a) == a


@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_fields_are_frozen(make, text):
    a = make()
    for name in type(a)._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == text


@pytest.mark.parametrize(
    "values",
    [
        (Line(1, 1), IrrP1(1, 1), IrrP2(1, 1)),
        (Universal(), Spinor()),
        (Transpose(1), SerreRotateToFront(1), SerreRotateToBack(1)),
        (LeftMutateThrough(1, Universal()), RightMutateThrough(1, Universal())),
        (MutateSubcatLeft(0, 2, "B"), MutateSubcatRight(0, 2, "B")),
    ],
    ids=["line-irr", "universal-spinor", "index-moves", "mutations", "subcat-moves"],
)
def test_same_fields_in_different_classes_are_unequal(values):
    for x, y in itertools.combinations(values, 2):
        assert x != y and not x == y


def test_a_changed_field_is_unequal():
    assert Line(0, 1) != Line(0, 2)
    assert Twist(Universal(), 0, 1) != Twist(Universal(), 0, -1)
    assert Dual(Universal()) != Dual(Spinor())
    assert CohomologyProfile(((0, (0, 0), 1),)) != CohomologyProfile(((1, (0, 0), 1),))
    assert Transpose(1) != Transpose(2)


def test_values_survive_pickling():
    value = LeftMutateThrough(1, Twist(Dual(Universal()), 0, -1))
    assert pickle.loads(pickle.dumps(value)) == value


def test_root_system_compares_by_identity():
    a, b = build_root_system(G2_CARTAN), build_root_system(G2_CARTAN)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert tuple(vars(a)) == RootSystem._fields
    with pytest.raises(AttributeError):
        a.rank = 3
    with pytest.raises(AttributeError):
        del a.rho


# --- generated constructors -------------------------------------------------

@pytest.mark.parametrize("make, text", CASES, ids=IDS)
def test_positional_keyword_and_mixed_calls_agree(make, text):
    a = make()
    cls, values = type(a), tuple(vars(a).values())
    assert cls(*values) == a
    assert cls(**vars(a)) == a
    for k in range(len(values) + 1):
        assert cls(*values[:k], **dict(zip(cls._fields[k:], values[k:]))) == a


@pytest.mark.parametrize(
    "call, text",
    [
        (
            lambda: LeftMutateThrough(1),
            "LeftMutateThrough.__init__() missing 1 required positional "
            "argument: 'result'",
        ),
        (
            lambda: Transpose(1, 2),
            "Transpose.__init__() takes 2 positional arguments but 3 were given",
        ),
        (
            lambda: BundleExpr((), (0, 0), x=1),
            "BundleExpr.__init__() got an unexpected keyword argument 'x'",
        ),
        (
            lambda: BundleExpr((), (0, 0), factors=()),
            "BundleExpr.__init__() got multiple values for argument 'factors'",
        ),
        (
            lambda: BundleExpr(),
            "BundleExpr.__init__() missing 2 required positional arguments: "
            "'factors' and 'twist'",
        ),
        (
            lambda: Universal(1),
            "Universal() takes 0 positional arguments but 1 was given",
        ),
    ],
    ids=[
        "missing",
        "too-many",
        "unknown-keyword",
        "twice",
        "none",
        "no-fields",
    ],
)
def test_arity_errors_name_the_class(call, text):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == text


def test_generated_constructors_belong_to_their_class():
    for cls in Value.__subclasses__():
        init = vars(cls)["__init__"]
        assert init.__qualname__ == f"{cls.__qualname__}.__init__"
        # The code object carries its own qualified name from Python 3.11.
        qualname = getattr(init.__code__, "co_qualname", init.__qualname__)
        assert qualname == init.__qualname__
        assert init.__module__ == cls.__module__
        assert tuple(inspect.signature(cls).parameters) == cls._fields
        assert init.__defaults__ is None


def test_one_constructor_template_is_compiled_per_arity():
    # Each class renames a copy of its arity's template: the same bytecode,
    # its own parameter names and the attribute names the body sets.
    arities = {len(cls._fields) for cls in Value.__subclasses__()}
    assert arities == {1, 2, 3, 4, 5, 6, 10}
    for cls in Value.__subclasses__():
        code = vars(cls)["__init__"].__code__
        template = _init_template(len(cls._fields)).__code__
        assert code.co_code == template.co_code
        assert code.co_varnames == ("self", *cls._fields)
        assert [c for c in code.co_consts if c is not None] == list(cls._fields)


@pytest.mark.parametrize(
    "namespace, message",
    [
        (
            {"_fields": ("x",), "__init__": lambda self, x: None},
            "Point defines __init__; Value generates it from _fields",
        ),
    ],
    ids=["hand-written-init"],
)
def test_bad_value_classes_are_refused(namespace, message):
    with pytest.raises(TypeError) as info:
        type("Point", (Value,), namespace)
    assert str(info.value) == message
    del info
    # The refused class must not linger among the subclasses that
    # test_every_value_class_is_covered counts.
    gc.collect()
    assert "Point" not in {c.__name__ for c in Value.__subclasses__()}
