"""Compact undirected graphs on up to 64 vertices, stored as edge bitsets.

A graph is a vertex count ``n`` plus a Python integer whose bits index the
n(n-1)/2 unordered vertex pairs.  Pairs are numbered column by column along
the upper triangle of the adjacency matrix -- (0,1), (0,2), (1,2), (0,3),
... -- which makes graph6 emission a straight bit copy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from operator import attrgetter

MAX_VERTICES = 64
CANONICAL_MAX_VERTICES = 8

GRAPH6_HEADER = ">>graph6<<"


class UserError(ValueError):
    """A request refused on its own terms: input that cannot be read, or a
    size past one of the documented caps.

    The CLI reports it as exit status 2; any other exception is a bug and
    propagates.
    """


class Graph6Error(UserError):
    """Raised when a graph6 string cannot be decoded."""


def pair_count(n: int) -> int:
    """Number of unordered vertex pairs on n vertices."""
    return n * (n - 1) // 2


def edge_index(i: int, j: int, n: int) -> int:
    """Bit position of the unordered pair {i, j} in an n-vertex edge bitset.

    With i < j the position is j*(j-1)//2 + i; arguments may be given in
    either order.  The map is a bijection from unordered pairs onto
    [0, n(n-1)/2).
    """
    if i == j:
        raise ValueError(f"self-pair ({i}, {i}) is not an edge")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"vertex pair ({i}, {j}) out of range for n={n}")
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def edge_pair(index: int, n: int) -> tuple[int, int]:
    """Inverse of edge_index: the pair (i, j), i < j, at a bit position."""
    if not 0 <= index < pair_count(n):
        raise ValueError(f"edge index {index} out of range for n={n}")
    j = (1 + math.isqrt(1 + 8 * index)) // 2
    i = index - j * (j - 1) // 2
    return i, j


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """Yield every subset of mask's bits, from 0 up to mask, in ascending order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


class Record:
    """Base of the package's value classes: immutable, with the fields in ``__slots__``.

    A subclass's constructor validates its arguments and passes the field
    values, in slot order, to Record.__init__, which is also how copies and
    pickles rebuild it; any later assignment or deletion raises
    AttributeError.  Two records are equal when they are of the same class
    and their fields are equal, and a record hashes as its field tuple
    does, so a list-valued field makes hash raise TypeError.  repr lists
    the fields as ``Name(field=value, ...)``.
    """

    __slots__ = ()
    # the field tuple, read by attrgetter; with one slot that would be the
    # bare value, so every record has at least two fields
    _values: tuple

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._values = property(attrgetter(*cls.__slots__))

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a record")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values


class Graph(Record):
    """Immutable simple graph: vertex count plus edge bitset."""

    __slots__ = ("n", "edges")
    n: int
    edges: int

    def __init__(self, n: int, edges: int = 0) -> None:
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside [1, {MAX_VERTICES}]")
        if edges < 0 or edges >> pair_count(n):
            raise ValueError(f"edge bitset has bits outside [0, {pair_count(n)})")
        super().__init__(n, edges)

    @property
    def edge_count(self) -> int:
        return self.edges.bit_count()

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [edge_pair(b, self.n) for b in iter_bits(self.edges)]

    def adjacency(self) -> list[int]:
        """Per-vertex neighbor bitmasks (bit v of adjacency()[u] marks edge uv).

        Column j of the edge bitset, its j bits from j(j-1)/2 up, is the
        set of j's lower neighbours; each of them gets bit j in return.
        """
        adj = [0] * self.n
        rest = self.edges
        for j in range(1, self.n):
            lower = rest & ((1 << j) - 1)
            rest >>= j
            adj[j] = lower
            bit = 1 << j
            while lower:
                low = lower & -lower
                adj[low.bit_length() - 1] |= bit
                lower ^= low
        return adj

    def degree_sequence(self) -> list[int]:
        return sorted(a.bit_count() for a in self.adjacency())

    def incident_edge_mask(self, v: int) -> int:
        """Bitset (over edge slots) of this graph's edges incident to v.

        Column v holds v's edges to lower vertices; each higher vertex j
        holds its edge to v at slot j(j-1)/2 + v.
        """
        mask = ((1 << v) - 1) << pair_count(v)
        for j in range(v + 1, self.n):
            mask |= 1 << (pair_count(j) + v)
        return self.edges & mask


def from_edges(n: int, pairs: Sequence[tuple[int, int]]) -> Graph:
    mask = 0
    for i, j in pairs:
        mask |= 1 << edge_index(i, j, n)
    return Graph(n, mask)


def complete(n: int) -> Graph:
    return Graph(n, (1 << pair_count(n)) - 1)


def path(n: int) -> Graph:
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph with consecutive vertex blocks per part.

    Vertices are laid out part by part in argument order; an edge is present
    exactly when its endpoints lie in different parts.
    """
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"part sizes must all be >= 1, got {list(parts)}")
    n = sum(parts)
    if n > MAX_VERTICES:
        raise UserError(f"{n} vertices exceeds the {MAX_VERTICES}-vertex cap")
    starts = [sum(parts[:k]) for k in range(len(parts))]
    mask = 0
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            for i in range(starts[a], starts[a] + parts[a]):
                for j in range(starts[b], starts[b] + parts[b]):
                    mask |= 1 << edge_index(i, j, n)
    return Graph(n, mask)


def christofides_host() -> Graph:
    """The fixed 6-vertex, 7-edge host of the Christofides construction.

    A K_{2,3} (small side {1, 2}, large side {3, 4, 5}) with a pendant
    vertex 0 attached to 1.  Degree sequence [1, 2, 2, 2, 3, 4].
    """
    return from_edges(6, [(0, 1), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])


# ---------------------------------------------------------------------------
# permutation action and canonicalization
# ---------------------------------------------------------------------------


def apply_permutation(g: Graph, perm: Sequence[int]) -> Graph:
    """Relabel vertices: edge {i, j} maps to {perm[i], perm[j]}."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError(f"{list(perm)} is not a bijection on [0, {g.n})")
    mask = 0
    for i, j in g.edge_pairs():
        mask |= 1 << edge_index(perm[i], perm[j], g.n)
    return Graph(g.n, mask)


def _canonical_edges(n: int, edges: int) -> int:
    """Minimum edge bitset over all relabelings, built one column at a time.

    Column k (bits of the pairs (i, k), i < k) outranks every lower column,
    so positions are filled from n - 1 down.  A state is an ordered
    partition of the unplaced vertices into cells that fill positions 0, 1,
    ... in order.  The vertex w placed at position k comes from the last
    cell; its column is smallest when its neighbours come first in every
    cell, which splits each cell in two.  Each tried vertex's column comes
    first, from the neighbour counts of the cells; only a vertex whose
    column ties or beats the best so far has its refined cells built, and
    only the states whose column ties the minimum survive to the next
    position.  Lower columns see only the unplaced vertices, so equal states
    have equal futures and are kept once; that bounds the work on graphs
    with many automorphisms (for the empty graph, one state per set of
    placed vertices, not one per ordering).
    """
    adj = Graph(n, edges).adjacency()
    key = 0
    states = {((1 << n) - 1,)}
    for k in range(n - 1, 0, -1):
        best, survivors = -1, set()
        for cells in states:
            head, last = cells[:-1], cells[-1]
            offsets, start = [], 0  # each cell before last with its first position
            for cell in head:
                offsets.append((cell, start))
                start += cell.bit_count()
            tries = last
            while tries:
                low = tries & -tries
                tries ^= low
                row = adj[low.bit_length() - 1]
                rest = last ^ low
                column = ((1 << (rest & row).bit_count()) - 1) << start
                for cell, at in offsets:
                    column |= ((1 << (cell & row).bit_count()) - 1) << at
                if 0 <= best < column:
                    continue
                if column != best:
                    best, survivors = column, set()
                refined = []
                for cell in head + (rest,):
                    inside = cell & row
                    if inside:
                        refined.append(inside)
                    if inside != cell:
                        refined.append(cell ^ inside)
                survivors.add(tuple(refined))
        key |= best << pair_count(k)
        states = survivors
    return key


def canonical_key(g: Graph) -> Graph:
    """Canonical form of g: the relabeling with the minimum edge bitset; n <= 8.

    Two graphs are isomorphic iff their canonical forms are equal.  The
    top column, pairs (i, n-1), is at least 2^delta - 1 (delta the minimum
    degree), reached exactly by a minimum-degree vertex at n - 1 with its
    neighbours first; the same argument repeats at each lower position, so
    only relabelings that survive it are tried.
    """
    if g.n > CANONICAL_MAX_VERTICES:
        raise UserError(
            f"canonical_key supports n <= {CANONICAL_MAX_VERTICES}, got n={g.n}"
        )
    return Graph(g.n, _canonical_edges(g.n, g.edges))


# ---------------------------------------------------------------------------
# interchange formats
# ---------------------------------------------------------------------------


def emit_graph6(g: Graph) -> str:
    """Encode in graph6 (single-byte size form up to n = 62, else '~' + 3 bytes)."""
    k = pair_count(g.n)
    if g.n <= 62:
        out = [chr(63 + g.n)]
    else:
        out = ["~"] + [chr(63 + (g.n >> shift & 63)) for shift in (12, 6, 0)]
    for start in range(0, k, 6):
        value = 0
        for offset in range(6):
            b = start + offset
            bit = (g.edges >> b) & 1 if b < k else 0
            value = value << 1 | bit
        out.append(chr(63 + value))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (optionally prefixed with '>>graph6<<')."""
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(v < 0 or v > 63 for v in data):
        raise Graph6Error(f"byte outside graph6 range in {s!r}")
    if data[0] == 63:
        if len(data) < 4 or data[1] == 63:
            raise Graph6Error("unsupported graph6 size form")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} outside [1, {MAX_VERTICES}]")
    k = pair_count(n)
    if len(body) != (k + 5) // 6:
        raise Graph6Error(f"expected {(k + 5) // 6} data bytes for n={n}, got {len(body)}")
    edges = 0
    for group, value in enumerate(body):
        for offset in range(6):
            if value >> (5 - offset) & 1:
                b = 6 * group + offset
                if b >= k:
                    raise Graph6Error("nonzero padding bits")
                edges |= 1 << b
    return Graph(n, edges)


def parse_edge_list(text: str) -> Graph:
    """Read the plain text form: 'n m' header then one 'i j' line per edge (0-based)."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list text")
    try:
        n, m = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise ValueError(f"bad edge-list header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(lines) - 1} lines")
    mask = 0
    for ln in lines[1:]:
        try:
            i, j = (int(tok) for tok in ln.split())
        except ValueError as exc:
            raise ValueError(f"bad edge line {ln!r}") from exc
        mask |= 1 << edge_index(i, j, n)
    g = Graph(n, mask)
    if g.edge_count != m:
        raise ValueError("duplicate edges in edge list")
    return g
