"""Weighted undirected networks with exact rational couplings.

A network is a set of 1-based sites, each with a rational on-site term, plus
symmetric rational couplings between distinct sites.  Absent couplings are
zero; zero-weight edges are never stored.  Instances are immutable: assigning
to an attribute raises `dataclasses.FrozenInstanceError`, so data derived from
a network and cached on it can never go stale.  Equality, hashing and repr see
only n, onsite and edges.
"""

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence


class NetworkError(ValueError):
    """Malformed network data or invalid operation on a network."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" (whitespace anywhere is ignored)."""
    if not isinstance(text, str):
        raise NetworkError(f"rational must be a string, got {type(text).__name__}")
    compact = re.sub(r"\s+", "", text)
    if not _RATIONAL_RE.match(compact):
        raise NetworkError(f"malformed rational {text!r}")
    try:
        return Fraction(compact)
    except ZeroDivisionError:
        raise NetworkError(f"zero denominator in rational {text!r}") from None


@dataclass(frozen=True)
class _IntegerForm:
    """A = d*H in integers, d the common denominator of H, and walk data and
    swap verdicts on it."""

    d: int
    rows: tuple[tuple[tuple[int, int], ...], ...]  # row i of A as (0-based site j, A_ij)
    # 0-based site -> closed-walk state, filled by `spectral`; each entry is an
    # immutable value replaced whole, so a reader never sees half of one
    walks: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = field(default_factory=dict)
    # (u, v) and (v, u), 1-based, of a cospectral pair -> `has_swap_automorphism`'s
    # verdict, stored under both orders once its search has run
    swaps: dict[tuple[int, int], bool] = field(default_factory=dict)


@dataclass(frozen=True)
class Network:
    n: int
    onsite: tuple[Fraction, ...]
    edges: tuple[tuple[int, int, Fraction], ...]  # canonical: i < j, sorted

    def __init__(self, n: int, onsite: Sequence, edges: Iterable[tuple]):
        if n < 0:
            raise NetworkError("vertex count must be non-negative")
        # Fraction(x) of a Fraction only copies it, at ~40 times the cost of the type check
        onsite_t = tuple(e if type(e) is Fraction else Fraction(e) for e in onsite)
        if len(onsite_t) != n:
            raise NetworkError(f"expected {n} on-site values, got {len(onsite_t)}")
        canon = {}
        for i, j, w in edges:
            if not (1 <= i <= n and 1 <= j <= n):
                raise NetworkError(f"vertex id out of range in edge ({i}, {j})")
            if i == j:
                raise NetworkError(f"self-coupling at vertex {i} (diagonal terms belong in onsite)")
            key = (i, j) if i < j else (j, i)
            if key in canon:
                raise NetworkError(f"duplicate edge {key}")
            canon[key] = w if type(w) is Fraction else Fraction(w)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "onsite", onsite_t)
        object.__setattr__(
            self, "edges", tuple((i, j, w) for (i, j), w in sorted(canon.items()) if w != 0)
        )

    @cached_property
    def _integer_form(self) -> _IntegerForm:
        """Computed on first use and kept: the network cannot change under it."""
        d = lcm(*(e.denominator for e in self.onsite), *(w.denominator for *_, w in self.edges))
        rows = [
            [(i, e.numerator * d // e.denominator)] if e else [] for i, e in enumerate(self.onsite)
        ]
        for i, j, w in self.edges:
            a = w.numerator * d // w.denominator
            rows[i - 1].append((j - 1, a))
            rows[j - 1].append((i - 1, a))
        return _IntegerForm(d, tuple(map(tuple, rows)))

    def hamiltonian(self) -> list[list[Fraction]]:
        h = [[Fraction(0)] * self.n for _ in range(self.n)]
        for i, e in enumerate(self.onsite):
            h[i][i] = e
        for i, j, w in self.edges:
            h[i - 1][j - 1] = w
            h[j - 1][i - 1] = w
        return h

    def check_vertex(self, w: int) -> None:
        if not (1 <= w <= self.n):
            raise NetworkError(f"vertex id {w} out of range 1..{self.n}")

    def check_pair(self, u: int, v: int) -> None:
        self.check_vertex(u)
        self.check_vertex(v)
        if u == v:
            raise NetworkError("pair must consist of two distinct vertices")


def parse_network(text: str) -> Network:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise NetworkError("top-level value must be an object")
    extra = set(doc) - {"n", "onsite", "edges"}
    if extra:
        raise NetworkError(f"unknown keys {sorted(extra)}")
    missing = {"n", "onsite", "edges"} - set(doc)
    if missing:
        raise NetworkError(f"missing keys {sorted(missing)}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise NetworkError("n must be a positive integer")
    if not isinstance(doc["onsite"], list):
        raise NetworkError("onsite must be a list of rational strings")
    onsite = [parse_rational(s) for s in doc["onsite"]]
    if not isinstance(doc["edges"], list):
        raise NetworkError("edges must be a list")
    edges = []
    for entry in doc["edges"]:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise NetworkError(f"edge entry must be [i, j, weight], got {entry!r}")
        i, j, w = entry
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j)):
            raise NetworkError(f"edge endpoints must be integers, got {entry!r}")
        weight = parse_rational(w)
        if weight == 0:
            raise NetworkError(f"zero coupling on edge ({i}, {j})")
        edges.append((i, j, weight))
    return Network(n, onsite, edges)


def serialize_network(net: Network) -> str:
    doc = {
        "n": net.n,
        "onsite": [str(e) for e in net.onsite],
        "edges": [[i, j, str(w)] for i, j, w in net.edges],
    }
    return json.dumps(doc, indent=1)


def delete_vertex(net: Network, w: int) -> Network:
    """Remove site w; ids above w shift down by one (x -> x-1 for x > w)."""
    if net.n <= 1:
        raise NetworkError("cannot delete from a network with a single vertex")
    net.check_vertex(w)

    def relabel(x: int) -> int:
        return x - 1 if x > w else x

    onsite = tuple(e for i, e in enumerate(net.onsite, start=1) if i != w)
    edges = [
        (relabel(i), relabel(j), wt)
        for i, j, wt in net.edges
        if i != w and j != w
    ]
    return Network(net.n - 1, onsite, edges)


def attach(
    base: Network,
    anchors: Sequence[int],
    ext: Network,
    bridges: Sequence[tuple[int, int, Fraction]],
) -> Network:
    """Disjoint union of base and ext plus bridge edges.

    Ext ids are offset by base.n in the result; base ids are unchanged.
    Each bridge is (anchor id in base, vertex id in ext, weight).
    """
    anchor_set = set(anchors)
    for a in anchor_set:
        base.check_vertex(a)
    offset = base.n
    edges = list(base.edges)
    edges.extend((i + offset, j + offset, w) for i, j, w in ext.edges)
    for a, e, w in bridges:
        if a not in anchor_set:
            raise NetworkError(f"bridge endpoint {a} is not a declared anchor")
        if not (1 <= e <= ext.n):
            raise NetworkError(f"bridge endpoint {e} out of range in extension")
        weight = Fraction(w)
        if weight == 0:
            raise NetworkError("zero bridge weight")
        edges.append((a, e + offset, weight))
    return Network(base.n + ext.n, base.onsite + ext.onsite, edges)


def has_swap_automorphism(net: Network, u: int, v: int) -> bool:
    """Is there a weight-preserving vertex permutation exchanging u and v?

    A swap makes u and v cospectral, so a pair that `is_cospectral` (which
    checks the pair) refuses is answered from closed-walk counts.  Otherwise
    site x may only go to a site y with (H_yy, (A^t e_v)[y], (A^t e_u)[y]) =
    (H_xx, (A^t e_u)[x], (A^t e_v)[x]) for every t < n, A = dH: a swap sigma
    keeps A, so (A^t)_ux = (A^t)_(v, sigma x).  The two walks are the walk
    engine's.  Backtracking over these candidates, fewest first, keeps its
    choices on an explicit stack and checks each new pair against the rows of
    A of the sites already placed.  The network keeps the verdict of a
    cospectral pair under both orders, so each pair is searched once.
    """
    from .spectral import is_cospectral  # spectral imports this module

    if not is_cospectral(net, u, v):
        return False
    swaps = net._integer_form.swaps
    if (u, v) not in swaps:
        swaps[u, v] = swaps[v, u] = _swap_search(net, u - 1, v - 1)
    return swaps[u, v]


def _swap_search(net: Network, u: int, v: int) -> bool:
    """The backtracking of `has_swap_automorphism` for 0-based sites u, v."""
    from .spectral import _row_walk

    n, rows = net.n, net._integer_form.rows
    from_u, from_v = (list(zip(*_row_walk(rows, w, n))) for w in (u, v))
    groups: dict[tuple, list[int]] = {}
    for x in range(n):
        groups.setdefault((net.onsite[x], from_u[x], from_v[x]), []).append(x)
    candidates = [groups.get((net.onsite[x], from_v[x], from_u[x]), []) for x in range(n)]
    sigma = {u: v, v: u}
    image = {u, v}
    order = sorted((x for x in range(n) if x not in sigma), key=lambda x: len(candidates[x]))

    def consistent(x: int, y: int) -> bool:
        return {(sigma[a], w) for a, w in rows[x] if a in sigma} == {
            (b, w) for b, w in rows[y] if b in image
        }

    tries = []  # tries[k]: the candidates of order[k] not yet tried
    while len(sigma) < n:
        k = len(sigma) - 2
        if k == len(tries):
            tries.append(iter(candidates[order[k]]))
        x = order[k]
        y = next((y for y in tries[k] if y not in image and consistent(x, y)), None)
        if y is not None:
            sigma[x] = y
            image.add(y)
            continue
        tries.pop()
        if not tries:
            return False
        image.discard(sigma.pop(order[k - 1]))
    return True
