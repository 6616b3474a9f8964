"""Value semantics of the package's frozen value classes.

Every class compares and hashes by exact type plus fields, refuses assignment
and deletion, and prints like the dataclass it replaced; the pinned reprs were
recorded from the dataclass versions.  ``RootSystem`` alone compares by
identity.  Constructors are generated from ``_fields`` and ``_defaults``; the
pinned arity errors were recorded from the hand-written constructors they
replaced.
"""

from __future__ import annotations

import copy
import gc
import inspect
import itertools
import pickle

import pytest

from g2flop.bundles import (
    CohResult,
    Dual,
    IrrP1,
    IrrP2,
    Line,
    OneSided,
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
    WeylElement,
    build_root_system,
    g2,
)
from g2flop.sodengine import (
    Certificate,
    ExcObject,
    LeftMutateThrough,
    MutateSubcatLeft,
    MutateSubcatRight,
    ReplayReport,
    RightMutateThrough,
    SerreRotateToBack,
    SerreRotateToFront,
    SODState,
    StepReport,
    Subcat,
    Transpose,
)
from g2flop.totalspace import HomVResult
from g2flop.weylbott import BottOutcome, CohomologyProfile, FilteredResult

K = CohomologyProfile(((0, (0, 0), 1),))
COH = CohResult(True, K, (), "filtration")
K_TEXT = "CohomologyProfile(entries=((0, (0, 0), 1),))"
COH_TEXT = f"CohResult(determined=True, profile={K_TEXT}, e1=(), route='filtration')"

#: (factory, repr recorded from the dataclass version)
CASES = [
    (
        lambda: Root((1, 0), (2, -3), 6),
        "Root(simple_coords=(1, 0), weight_coords=(2, -3), length_sq=6)",
    ),
    (lambda: WeylElement((0, 1), g2()), "WeylElement(word=(0, 1))"),
    (
        lambda: CohomologyProfile(((0, (0, 0), 1), (1, (1, 0), 2))),
        "CohomologyProfile(entries=((0, (0, 0), 1), (1, (1, 0), 2)))",
    ),
    (lambda: BottOutcome(singular=True), "BottOutcome(singular=True, w=None, nu=None)"),
    (
        lambda: BottOutcome(False, WeylElement((1,), g2()), (0, 1)),
        "BottOutcome(singular=False, w=WeylElement(word=(1,)), nu=(0, 1))",
    ),
    (
        lambda: FilteredResult(True, K, (((0, 0), K, 1),)),
        f"FilteredResult(determined=True, profile={K_TEXT}, "
        f"pieces=(((0, 0), {K_TEXT}, 1),))",
    ),
    (lambda: Line(0, 1), "Line(a=0, b=1)"),
    (lambda: Universal(), "Universal()"),
    (lambda: Spinor(), "Spinor()"),
    (lambda: IrrP1(-1, 1), "IrrP1(a=-1, b=1)"),
    (lambda: IrrP2(1, 1), "IrrP2(a=1, b=1)"),
    (lambda: Dual(Universal()), "Dual(arg=Universal())"),
    (
        lambda: Tensor(Universal(), Line(0, 1)),
        "Tensor(left=Universal(), right=Line(a=0, b=1))",
    ),
    (lambda: Sym(2, Universal()), "Sym(power=2, arg=Universal())"),
    (lambda: Twist(Universal(), 0, 1), "Twist(arg=Universal(), a=0, b=1)"),
    (
        lambda: Twist(arg=Dual(Universal()), a=0, b=-1),
        "Twist(arg=Dual(arg=Universal()), a=0, b=-1)",
    ),
    (
        lambda: OneSided(1, (((1, 0), 1),), (0, 1), False),
        "OneSided(levi_index=1, summands=(((1, 0), 1),), twist=(0, 1), opaque=False)",
    ),
    (lambda: CohResult(True, K, (), "filtration"), COH_TEXT),
    (lambda: ExcObject(Universal()), "ExcObject(expr=Universal(), tag=None)"),
    (
        lambda: ExcObject(Line(0, 1), tag="O(h)"),
        "ExcObject(expr=Line(a=0, b=1), tag='O(h)')",
    ),
    (lambda: Subcat("A"), "Subcat(label='A', history=())"),
    (
        lambda: Certificate("ExtDim", "hom(U, U)", "k", "k", True),
        "Certificate(kind='ExtDim', description='hom(U, U)', required='k', "
        "computed='k', passed=True)",
    ),
    (lambda: Transpose(1), "Transpose(index=1)"),
    (
        lambda: LeftMutateThrough(1, Universal()),
        "LeftMutateThrough(index=1, result=Universal(), result_tag=None)",
    ),
    (
        lambda: RightMutateThrough(2, Line(0, 1), result_tag="x"),
        "RightMutateThrough(index=2, result=Line(a=0, b=1), result_tag='x')",
    ),
    (lambda: SerreRotateToFront(1), "SerreRotateToFront(count=1)"),
    (lambda: SerreRotateToBack(1), "SerreRotateToBack(count=1)"),
    (
        lambda: MutateSubcatLeft(0, 2, "B", "L_O"),
        "MutateSubcatLeft(index=0, span=2, new_label='B', functor_note='L_O')",
    ),
    (
        lambda: MutateSubcatRight(0, 2, "B", "R_O"),
        "MutateSubcatRight(index=0, span=2, new_label='B', functor_note='R_O')",
    ),
    (
        lambda: SODState((ExcObject(Line(0, 0)), Subcat("A"))),
        "SODState(blocks=(ExcObject(expr=Line(a=0, b=0), tag=None), "
        "Subcat(label='A', history=())), move_log=())",
    ),
    (
        lambda: StepReport(1, "seed", ("transpose 1",), (), ("O", "<A>"), True),
        "StepReport(index=1, description='seed', moves=('transpose 1',), "
        "certificates=(), state=('O', '<A>'), ok=True)",
    ),
    (
        lambda: ReplayReport((), ("O",), True, None, "done", True),
        "ReplayReport(steps=(), final_state=('O',), final_matches=True, "
        "mismatch=None, conclusion='done', passed=True)",
    ),
    (
        lambda: HomVResult(True, K, COH, COH, 1),
        f"HomVResult(determined=True, profile={K_TEXT}, p0={COH_TEXT}, "
        f"p1={COH_TEXT}, euler=1)",
    ),
    (
        lambda: SuiteResult("calabi-yau", "pass", 2, ()),
        "SuiteResult(name='calabi-yau', status='pass', checks=2, details=())",
    ),
]
IDS = [text.split("(", 1)[0] + str(i) for i, (_, text) in enumerate(CASES)]


def test_every_value_class_is_covered():
    classes = {type(make()) for make, _ in CASES} | {RootSystem}
    assert classes == set(Value.__subclasses__())
    assert len(classes) == 32


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
        (Line(0, 0), IrrP1(0, 0), IrrP2(0, 0)),
        (Universal(), Spinor()),
        (Transpose(1), SerreRotateToFront(1), SerreRotateToBack(1)),
        (LeftMutateThrough(1, Universal()), RightMutateThrough(1, Universal())),
        (MutateSubcatLeft(0, 2, "B", "x"), MutateSubcatRight(0, 2, "B", "x")),
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
    assert ExcObject(Universal()) != ExcObject(Universal(), tag="U")


def test_values_survive_pickling():
    value = SODState((ExcObject(Twist(Dual(Universal()), 0, -1), tag="Q"),))
    assert pickle.loads(pickle.dumps(value)) == value


def test_root_system_compares_by_identity():
    a, b = build_root_system(G2_CARTAN), build_root_system(G2_CARTAN)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert WeylElement((0,), a) != WeylElement((0,), b)
    assert tuple(vars(a)) == RootSystem._fields
    with pytest.raises(AttributeError):
        a.rank = 3
    with pytest.raises(AttributeError):
        del a.rho


# --- generated constructors -------------------------------------------------

#: (class, required arguments, its _defaults, other values for the defaulted)
DEFAULTED = [
    (ExcObject, (Universal(),), {"tag": None}, ("U",)),
    (Subcat, ("A",), {"history": ()}, (("L_O",),)),
    (LeftMutateThrough, (1, Universal()), {"result_tag": None}, ("x",)),
    (RightMutateThrough, (2, Line(0, 1)), {"result_tag": None}, ("y",)),
    (SODState, ((Subcat("A"),),), {"move_log": ()}, ((("transpose 1", ()),),)),
    (BottOutcome, (True,), {"w": None, "nu": None}, (WeylElement((1,), g2()), (0, 1))),
]


def test_defaulted_classes_are_pinned():
    defaulted = {cls for cls in Value.__subclasses__() if cls._defaults}
    assert defaulted == {cls for cls, *_ in DEFAULTED}
    for cls, _, defaults, _ in DEFAULTED:
        assert cls._defaults == defaults


@pytest.mark.parametrize(
    "cls, required, defaults, given", DEFAULTED, ids=[c.__name__ for c, *_ in DEFAULTED]
)
def test_defaulted_constructors(cls, required, defaults, given):
    names = cls._fields
    kw_required = dict(zip(names, required))
    kw_given = dict(zip(defaults, given))
    omitted = dict(kw_required, **defaults)
    supplied = dict(kw_required, **kw_given)
    for value, fields in [
        (cls(*required), omitted),
        (cls(**kw_required), omitted),
        (cls(*required, *given), supplied),
        (cls(*required, **kw_given), supplied),
        (cls(**supplied), supplied),
    ]:
        assert vars(value) == fields
        assert tuple(vars(value)) == names
    # Only the first defaulted field given, by position: the rest default.
    partial = cls(*required, given[0])
    assert vars(partial) == dict(omitted, **{names[len(required)]: given[0]})


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
            lambda: Twist(Universal(), 0),
            "Twist.__init__() missing 1 required positional argument: 'b'",
        ),
        (
            lambda: Twist(Universal(), 0, 1, 2),
            "Twist.__init__() takes 4 positional arguments but 5 were given",
        ),
        (
            lambda: ExcObject(Universal(), x=1),
            "ExcObject.__init__() got an unexpected keyword argument 'x'",
        ),
        (
            lambda: ExcObject(Universal(), None, tag="U"),
            "ExcObject.__init__() got multiple values for argument 'tag'",
        ),
        (
            lambda: Subcat("A", (), 1),
            "Subcat.__init__() takes from 2 to 3 positional arguments but 4 were given",
        ),
        (
            lambda: BottOutcome(),
            "BottOutcome.__init__() missing 1 required positional argument: 'singular'",
        ),
        (lambda: Universal(1), "Universal() takes no arguments"),
    ],
    ids=[
        "missing",
        "too-many",
        "unknown-keyword",
        "twice",
        "too-many-defaulted",
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
        init = vars(cls).get("__init__")
        if not cls._fields:
            assert init is None and cls.__init__ is object.__init__, cls
            continue
        assert init.__qualname__ == f"{cls.__qualname__}.__init__"
        assert init.__module__ == cls.__module__
        assert tuple(inspect.signature(cls).parameters) == cls._fields
        assert init.__defaults__ == (tuple(cls._defaults.values()) or None)


@pytest.mark.parametrize(
    "namespace, message",
    [
        (
            {"_fields": ("x",), "__init__": lambda self, x: None},
            "Point defines __init__; Value generates it from _fields",
        ),
        (
            {"_fields": ("x", "y"), "_defaults": {"x": 0}},
            "Point._defaults must name its trailing fields",
        ),
        (
            {"_fields": ("x",), "_defaults": {"y": 0}},
            "Point._defaults must name its trailing fields",
        ),
    ],
    ids=["hand-written-init", "leading-default", "unknown-default"],
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
