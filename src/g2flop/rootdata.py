"""Exact root-system, weight-lattice and Weyl-group arithmetic.

Everything is integer arithmetic on plain tuples; weights live in
fundamental-weight coordinates throughout, so a weight ``(a, b)`` means
``a*omega_1 + b*omega_2``.  Roots carry both simple-root and fundamental-weight
coordinates, and every root has an integer coroot, so that all coroot pairings
are exact integer dot products.  The pairing of a weight with the i-th simple
coroot is its i-th coordinate, and is read as such.  A Weyl group element
is a reduced word: a tuple of simple indices, the leftmost factor first.
The Bott kernel and its tables are built from these root data in
``weylbott``.

The engine accepts any finite-type generalized Cartan matrix (A1/A2/B2
instances serve as independent sanity oracles in the test suite), but the rest
of the package is wired to the pinned G2 instance: simple root 0 is the LONG
root, simple root 1 the short one, giving alpha_1 = (2, -3) and
alpha_2 = (-1, 2) in fundamental-weight coordinates.  The fundamental weight
(1, 0) is the class H pulled back from the 5-dimensional Grassmannian side and
(0, 1) is the class h from the quadric side.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm, prod
from operator import add, attrgetter, mul
from types import FunctionType
from typing import Iterable, Sequence

Weight = tuple[int, ...]


class RootSystemError(ValueError):
    """Raised for Cartan matrices that are not symmetrizable finite type."""


class IntegrityError(RuntimeError):
    """An exact internal consistency check failed: an engine bug, not bad input."""


class Value:
    """Base of the package's frozen value classes.

    A subclass names its fields, in constructor order, in ``_fields``, and
    every field is required.  Its ``__init__`` is generated from them, as
    ``dataclasses`` and ``namedtuple`` do: one function with a named
    parameter per field and one ``object.__setattr__`` line per field, so
    arity errors read like a hand-written constructor's.
    It is generated rather than one shared ``__init__(self, *args, **kwargs)``
    looping over the fields, which measured two to three times slower per
    construction.  A subclass names at least one field and may not define
    ``__init__`` itself.  Records are not ``dataclasses``: importing that
    module imports ``inspect``, 8-13 ms cumulative under ``python -X
    importtime`` on a 2-core Xeon VM with Python 3.11, also after ``import
    g2flop``, against 5-7 ms for all of ``import g2flop`` with its bytecode
    written.  It would more than double the package's import, and every
    cold ``g2flop check-all`` process would pay it.

    Instances compare equal when they have the same exact type and equal
    fields, hash by their fields, refuse assignment and deletion, and print
    as ``Name(field=value, ...)``.  Fields live in the instance dict: with
    ``__slots__`` the interactive query stream measured about 5 % slower.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):
            raise TypeError(
                f"{cls.__qualname__} defines __init__; Value generates it from _fields"
            )
        # One C-level getter per class: the field value or a tuple of them.
        cls._key = attrgetter(*cls._fields)
        cls.__init__ = _generated_init(cls)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


@lru_cache(maxsize=None)
def _init_template(arity: int) -> FunctionType:
    """``def __init__(self, f0, ..., fn)`` setting each field in order,
    compiled once per arity; ``_generated_init`` renames a copy per class."""
    names = [f"f{i}" for i in range(arity)]
    body = "".join(f"\n    object.__setattr__(self, {f!r}, {f})" for f in names)
    namespace: dict[str, object] = {}
    exec(f"def __init__(self, {', '.join(names)}):{body}", {}, namespace)
    return namespace["__init__"]


def _generated_init(cls: type[Value]):
    """The arity's template with the class's field names: as parameter
    names, so keyword calls and arity errors name them, and as the attribute
    names that the body sets."""
    fields = cls._fields
    template = _init_template(len(fields))
    rename = {f"f{i}": f for i, f in enumerate(fields)}
    code = template.__code__
    code = code.replace(
        co_varnames=("self", *fields),
        co_consts=tuple(rename.get(c, c) for c in code.co_consts),
    )
    qualname = f"{cls.__qualname__}.__init__"
    if hasattr(code, "co_qualname"):  # Python 3.11 and later
        code = code.replace(co_qualname=qualname)
    init = FunctionType(code, template.__globals__)
    init.__qualname__ = qualname
    init.__module__ = cls.__module__
    return init


def wadd(a: Weight, b: Weight) -> Weight:
    return tuple(map(add, a, b))


def wneg(w: Weight) -> Weight:
    return tuple([-c for c in w])


def wscale(n: int, w: Weight) -> Weight:
    return tuple(n * c for c in w)


class Root(Value):
    """A root in dual coordinates: simple-root basis and weight basis."""

    _fields = ("simple_coords", "weight_coords", "length_sq")

    @property
    def height(self) -> int:
        return sum(self.simple_coords)


class RootSystem(Value):
    """Immutable finite root system; safe to share between threads.

    Unlike the other value classes it compares and hashes by identity: it is
    the first key of every memo, so its hash must be cheap, and its
    ``coroots`` field is a dict, which has no hash.

    ``coroots`` maps the simple coordinates of every root, positive and
    negative, to the integer coordinates of its coroot in the basis of simple
    coroots, so a coroot pairing is a dot product with fundamental-weight
    coordinates.  ``weyl_denominator`` is the product of the coroot heights,
    i.e. of the pairings of rho with every positive coroot.  ``weyl_order``
    is counted from root heights, never by walking the group.
    """

    _fields = (
        "rank",
        "cartan",
        "symmetrizer",
        "simple_roots",
        "positive_roots",
        "rho",
        "weyl_order",
        "weyl_denominator",
        "coroots",
        "_simple_weights",
    )

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def longest_element(self) -> tuple[int, ...]:
        # The reduced word of w0, the unique element sending -rho to rho.
        return self.to_dominant(wneg(self.rho))[1]

    def reflect(self, i: int, mu: Weight) -> Weight:
        """Simple reflection s_i(mu) = mu - <mu, alpha_i^v> alpha_i."""
        if not 0 <= i < self.rank:
            raise IndexError(f"simple index {i} out of range for rank {self.rank}")
        c = mu[i]
        return tuple([m - c * a for m, a in zip(mu, self._simple_weights[i])])

    def to_dominant(self, mu: Weight) -> tuple[Weight, tuple[int, ...]]:
        """Walk mu into the dominant chamber; returns (w(mu), w), w as its
        reduced word with the leftmost factor first.

        Each step reflects in a simple root on which mu pairs negatively,
        which removes exactly one positive root from those pairing negatively
        with mu.  The word therefore grows by one letter per step, stays
        reduced for regular mu, and can never outgrow the positive roots.
        """
        steps: list[int] = []
        bound = len(self.positive_roots)
        while True:
            for i, c in enumerate(mu):
                if c < 0:
                    break
            else:
                return mu, tuple(reversed(steps))
            mu = self.reflect(i, mu)
            steps.append(i)
            if len(steps) > bound:
                raise IntegrityError("dominance walk failed to terminate")

    def pairing(self, mu: Weight, alpha: Root) -> int:
        """Coroot pairing <mu, alpha^v> = 2(mu, alpha)/(alpha, alpha)."""
        coroot = self.coroots.get(alpha.simple_coords)
        if coroot is None:
            raise ValueError(f"{alpha.simple_coords} is not a root of this system")
        return sum(map(mul, coroot, mu))

    def coroot_pairings(self, mu: Weight) -> tuple[int, ...]:
        """<mu, beta^v> for every positive root beta, aligned with positive_roots.

        The plain dot product with each coroot of ``coroots``: the reference
        that the compiled Bott kernel of ``weylbott`` is tested against.  A
        weight of the wrong length raises ``ValueError``.
        """
        return tuple(
            sum(c * m for c, m in zip(self.coroots[r.simple_coords], mu, strict=True))
            for r in self.positive_roots
        )


def _validate_gcm(cartan: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    n = len(cartan)
    rows = tuple(tuple(int(x) for x in row) for row in cartan)
    if any(len(row) != n for row in rows):
        raise RootSystemError("Cartan matrix must be square")
    for i in range(n):
        if rows[i][i] != 2:
            raise RootSystemError(f"diagonal entry c_{i}{i} = {rows[i][i]} must be 2")
        for j in range(n):
            if i != j:
                if rows[i][j] > 0:
                    raise RootSystemError(f"off-diagonal c_{i}{j} must be <= 0")
                if (rows[i][j] == 0) != (rows[j][i] == 0):
                    raise RootSystemError(f"c_{i}{j} and c_{j}{i} must vanish together")
    return rows


def _symmetrizer(cartan) -> tuple[int, ...]:
    # d_i c_ij = d_j c_ji, solved along the Dynkin graph in integers: the first
    # node of each component starts at 1, and the component found so far is
    # scaled up whenever the next quotient is not integral.  Then the first
    # nodes are made equal and the overall gcd is divided out.
    n = len(cartan)
    d = [0] * n
    components: list[list[int]] = []
    for start in range(n):
        if d[start]:
            continue
        d[start] = 1
        component = [start]
        for i in component:
            for j in range(n):
                if i == j or cartan[i][j] == 0:
                    continue
                num, den = d[i] * cartan[i][j], cartan[j][i]
                if d[j]:
                    if d[j] * den != num:
                        raise RootSystemError("Cartan matrix is not symmetrizable")
                    continue
                scale = abs(den) // gcd(num, den)
                for k in component:
                    d[k] *= scale
                d[j] = num * scale // den
                component.append(j)
        components.append(component)
    top = lcm(*(d[c[0]] for c in components))
    for component in components:
        lift = top // d[component[0]]
        for k in component:
            d[k] *= lift
    g = gcd(*d)
    ints = [x // g for x in d]
    for i in range(n):
        for j in range(n):
            if ints[i] * cartan[i][j] != ints[j] * cartan[j][i]:
                raise RootSystemError("Cartan matrix is not symmetrizable")
    return tuple(ints)


def _is_positive_definite(b: Sequence[Sequence[int]]) -> bool:
    # Sylvester's criterion: every leading principal minor is positive.
    # Fraction-free (Bareiss) elimination leaves the k-th leading minor as the
    # k-th pivot, and each division by the previous pivot is exact.
    n = len(b)
    m = [list(row) for row in b]
    previous = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // previous
        previous = pivot
    return True


def _weyl_order(
    positive: Sequence[Root], positive_coroots: Iterable[Weight], coroot_heights: int
) -> int:
    """|W| from Macdonald's identity, over the coroots and over the roots.

    The dual root system has the same Weyl group, so both products give the
    order.  Each division must be exact and the two results must agree;
    anything else is an engine bug in the root or coroot tables.
    """
    orders = []
    for num, den in (
        (prod(sum(c) + 1 for c in positive_coroots), coroot_heights),
        (prod(r.height + 1 for r in positive), prod(r.height for r in positive)),
    ):
        if den < 1 or num % den:
            raise IntegrityError(f"Weyl order {num}/{den} is not a positive integer")
        orders.append(num // den)
    if orders[0] != orders[1]:
        raise IntegrityError(
            f"Weyl order from coroot heights {orders[0]} differs from "
            f"{orders[1]} from root heights"
        )
    return orders[0]


def build_root_system(cartan: Sequence[Sequence[int]]) -> RootSystem:
    """Build the root system of a finite-type Cartan matrix.

    Rejects non-symmetrizable and non-finite-type input with a diagnostic.
    Positive roots are enumerated by root-string closure and sorted by
    height, then coordinates; ``simple_roots`` stay in simple-index order.
    Each root carries its weight coordinates through the closure: those of
    alpha_i are column i of the Cartan matrix, beta + alpha_i adds that
    column to those of beta, and the closure reads beta's pairing with
    alpha_i^v as its i-th coordinate.  Every root gets its coroot as integer
    coordinates c_j = 2 k_j d_j / (alpha, alpha) in the simple coroots (k
    the simple coordinates, d the symmetrizer); a non-integral one is
    rejected.  The product of the positive coroots' heights, which for
    non-simply-laced types differ from root heights, is stored as the Weyl
    denominator.  The Weyl group is never stored or
    walked: its order comes from Macdonald's identity
    |W| = prod over positive roots of (ht + 1) / ht (Macdonald, *The Poincare
    series of a Coxeter group*, Math. Ann. 199, 1972), computed once over the
    coroot heights and once over the root heights; see ``_weyl_order``.
    """
    rows = _validate_gcm(cartan)
    n = len(rows)
    d = _symmetrizer(rows)
    sym = [[d[i] * rows[i][j] for j in range(n)] for i in range(n)]
    if not _is_positive_definite(sym):
        raise RootSystemError(
            "symmetrized Cartan matrix is not positive definite (not finite type)"
        )

    def make_root(simple: tuple[int, ...], wc: Weight) -> Root:
        return Root(simple, wc, sum(map(mul, map(mul, simple, d), wc)))

    # Root-string closure over positive roots, by increasing height:
    # simple coordinates -> weight coordinates.
    columns = tuple(zip(*rows))
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    known: dict[tuple[int, ...], Weight] = dict(zip(simples, columns))
    frontier = list(known.items())
    while frontier:
        nxt = []
        for beta, wc in frontier:
            for i in range(n):
                # The alpha_i-string through beta reaches p steps down and
                # p - <beta, alpha_i^v> steps up.
                p, down = 0, beta
                while down[i]:
                    down = down[:i] + (down[i] - 1,) + down[i + 1 :]
                    if down not in known:
                        break
                    p += 1
                if p > wc[i]:
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                    if up not in known:
                        known[up] = wadd(wc, columns[i])
                        nxt.append((up, known[up]))
        frontier = nxt
        if len(known) > 10_000:
            raise RootSystemError("root closure does not terminate")
    positive = tuple(
        make_root(c, known[c]) for c in sorted(known, key=lambda c: (sum(c), c))
    )
    simple_roots = tuple(make_root(c, wc) for c, wc in zip(simples, columns))

    coroots: dict[tuple[int, ...], tuple[int, ...]] = {}
    for root in positive:
        coroot = []
        for j, k in enumerate(root.simple_coords):
            c, r = divmod(2 * k * d[j], root.length_sq)
            if r:
                raise RootSystemError(f"coroot of {root.simple_coords} is not integral")
            coroot.append(c)
        coroots[root.simple_coords] = tuple(coroot)
        coroots[wneg(root.simple_coords)] = wneg(coroot)

    positive_coroots = [coroots[r.simple_coords] for r in positive]
    weyl_denominator = prod(map(sum, positive_coroots))

    return RootSystem(
        rank=n,
        cartan=rows,
        symmetrizer=d,
        simple_roots=simple_roots,
        positive_roots=positive,
        rho=(1,) * n,
        weyl_order=_weyl_order(positive, positive_coroots, weyl_denominator),
        weyl_denominator=weyl_denominator,
        coroots=coroots,
        _simple_weights=tuple(r.weight_coords for r in simple_roots),
    )


G2_CARTAN = ((2, -1), (-3, 2))


@lru_cache(maxsize=None)
def g2() -> RootSystem:
    """The pinned G2 instance: alpha_1 long, alpha_2 short."""
    rs = build_root_system(G2_CARTAN)
    if len(rs.positive_roots) != 6 or rs.weyl_order != 12:
        raise IntegrityError(
            f"G2 pin broken: {len(rs.positive_roots)} positive roots, "
            f"Weyl order {rs.weyl_order} (expected 6 and 12)"
        )
    return rs


@lru_cache(maxsize=None)
def g2_flipped() -> RootSystem:
    """G2 with the simple roots swapped (alpha_1 short).

    Exists purely as a negative control: the pinned cohomology test vectors
    must fail under this convention.
    """
    return build_root_system(((2, -3), (-1, 2)))
