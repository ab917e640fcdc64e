"""Compact undirected graphs on up to 64 vertices, stored as edge bitsets.

A graph is a vertex count ``n`` plus a Python integer whose bits index the
n(n-1)/2 unordered vertex pairs.  Pairs are numbered column by column along
the upper triangle of the adjacency matrix -- (0,1), (0,2), (1,2), (0,3),
... -- which makes graph6 emission a straight bit copy.  edge_index, through
from_edges, is the one encoder of that layout and Graph.adjacency the one
decoder.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
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
        raise UserError(f"self-pair ({i}, {i}) is not an edge")
    if not (0 <= i < n and 0 <= j < n):
        raise UserError(f"vertex pair ({i}, {j}) out of range for n={n}")
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def twin_representatives(adj: list[int]) -> list[int]:
    """Each vertex's lowest twin, from the adjacency rows: u and v are twins
    when N(u) - {v} = N(v) - {u}, an equivalence whose swaps are automorphisms."""
    return [next(u for u in range(v + 1) if adj[u] & ~(1 << v) == row & ~(1 << u))
            for v, row in enumerate(adj)]


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
            raise UserError(f"vertex count {n} outside [1, {MAX_VERTICES}]")
        if edges < 0 or edges >> pair_count(n):
            raise ValueError(f"edge bitset has bits outside [0, {pair_count(n)})")
        super().__init__(n, edges)

    @property
    def edge_count(self) -> int:
        return self.edges.bit_count()

    def edge_pairs(self) -> list[tuple[int, int]]:
        """The edges as pairs (i, j), i < j, in bit order: column j's lower
        neighbours i, column by column."""
        return [(i, j) for j, row in enumerate(self.adjacency())
                for i in iter_bits(row & ((1 << j) - 1))]

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


def from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """The n-vertex graph with these edges; every named graph is built here."""
    Graph(n)  # refuses n before a pair is read, so a size past the cap builds nothing
    mask = 0
    for i, j in pairs:
        mask |= 1 << edge_index(i, j, n)
    return Graph(n, mask)


def complete(n: int) -> Graph:
    return from_edges(n, ((i, j) for j in range(n) for i in range(j)))


def path(n: int) -> Graph:
    return from_edges(n, ((v, v + 1) for v in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise UserError("cycle needs at least 3 vertices")
    return from_edges(n, ((v, (v + 1) % n) for v in range(n)))


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph with consecutive vertex blocks per part.

    Vertices are laid out part by part in argument order; an edge is present
    exactly when its endpoints lie in different parts.
    """
    if not parts or any(p < 1 for p in parts):
        raise UserError(f"part sizes must all be >= 1, got {list(parts)}")
    n = sum(parts)
    if n > MAX_VERTICES:
        raise UserError(f"{n} vertices exceeds the {MAX_VERTICES}-vertex cap")
    label = [k for k, size in enumerate(parts) for _ in range(size)]
    return from_edges(n, ((i, j) for j in range(n) for i in range(j) if label[i] != label[j]))


def christofides_host() -> Graph:
    """The fixed 6-vertex, 7-edge host of the Christofides construction.

    A K_{2,3} (small side {1, 2}, large side {3, 4, 5}) with a pendant
    vertex 0 attached to 1.  Degree sequence [1, 2, 2, 2, 3, 4].
    """
    return from_edges(6, [(0, 1), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def canonical_key(g: Graph) -> Graph:
    """Canonical form of g: the relabeling with the minimum edge bitset; n <= 8.

    Two graphs are isomorphic iff their canonical forms are equal.  The key
    is built one column at a time.  Column k (bits of the pairs (i, k),
    i < k) outranks every lower column, so positions are filled from n - 1
    down.  A state is an ordered partition of the unplaced vertices into
    cells that fill positions 0, 1, ... in order.  The vertex w placed at
    position k comes from the last cell; its column is smallest when its
    neighbours come first in every cell, which splits each cell in two (at
    the top, a minimum-degree vertex with its neighbours first gives the
    least column, 2^delta - 1).  Each tried vertex's column comes first,
    from the neighbour counts of the cells; only a vertex whose column ties
    or beats the best so far has its refined cells built, and only the
    states whose column ties the minimum survive to the next position.
    Lower columns see only the unplaced vertices, so equal states have
    equal futures and are kept once; that bounds the work on graphs with
    many automorphisms (for the empty graph, one state per set of placed
    vertices, not one per ordering).
    """
    n = g.n
    if n > CANONICAL_MAX_VERTICES:
        raise UserError(
            f"canonical_key supports n <= {CANONICAL_MAX_VERTICES}, got n={n}"
        )
    adj = g.adjacency()
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
    return Graph(n, key)


# ---------------------------------------------------------------------------
# interchange formats
# ---------------------------------------------------------------------------


def emit_graph6(g: Graph) -> str:
    """Encode in graph6 (single-byte size form up to n = 62, else '~' + 3 bytes).

    The body is the edge bitset as a bit string from pair 0 up, padded with
    zeros to a multiple of six, six bits a byte.
    """
    k = pair_count(g.n)
    size = [g.n] if g.n <= 62 else [63] + [g.n >> shift & 63 for shift in (12, 6, 0)]
    bits = f"{g.edges:0{k}b}"[::-1] + "0" * (-k % 6)  # for k = 0 one digit, which no byte reads
    return "".join(chr(63 + v) for v in size + [int(bits[b:b + 6], 2) for b in range(0, k, 6)])


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (optionally prefixed with '>>graph6<<').

    A string that does not decode raises UserError.
    """
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].strip()
    if not s:
        raise UserError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(v < 0 or v > 63 for v in data):
        raise UserError(f"byte outside graph6 range in {s!r}")
    if data[0] < 63:
        n, body = data[0], data[1:]
    elif len(data) < 4 or data[1] == 63:
        raise UserError("unsupported graph6 size form")
    else:
        n, body = data[1] << 12 | data[2] << 6 | data[3], data[4:]
    Graph(n)  # refuses n before the body is sized
    k = pair_count(n)
    if len(body) != (k + 5) // 6:
        raise UserError(f"expected {(k + 5) // 6} data bytes for n={n}, got {len(body)}")
    bits = "".join([f"{v:06b}" for v in body])
    if "1" in bits[k:]:
        raise UserError("nonzero padding bits")
    return Graph(n, int("0" + bits[:k][::-1], 2))  # the "0" reads k = 0 as no edges


def parse_edge_list(text: str) -> Graph:
    """Read the plain text form: 'n m' header then one 'i j' line per edge (0-based).

    UserError names the first fault, reading the lines in order.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise UserError("empty edge-list text")
    try:
        n, m = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise UserError(f"bad edge-list header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise UserError(f"header declares {m} edges, found {len(lines) - 1} lines")
    g = from_edges(n, map(_edge_line, lines[1:]))
    if g.edge_count != m:
        raise UserError("duplicate edges in edge list")
    return g


def _edge_line(line: str) -> tuple[int, int]:
    try:
        i, j = (int(tok) for tok in line.split())
    except ValueError as exc:
        raise UserError(f"bad edge line {line!r}") from exc
    return i, j
