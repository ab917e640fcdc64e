"""Value records: construction, equality, hashing, immutability, repr; import cost."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from hifam import (
    CliqueResult,
    CompatibilityGraph,
    ConstructionSpec,
    Graph,
    MultipartiteFamily,
    SearchRecord,
    SearchSummary,
    SeedCheck,
    SubgraphFamily,
    complete_multipartite,
    multipartite_family,
)
from hifam.graphs import Record

from oracles import plain_instance

SRC = Path(__file__).resolve().parent.parent / "src"


def _family():
    return multipartite_family(ConstructionSpec((1,), 2))


# (build, build something that differs in one field); two calls of build
# give equal, distinct objects
RECORDS = {
    "Graph": (lambda: Graph(6, 5), lambda: Graph(6, 6)),
    "SubgraphFamily": (lambda: SubgraphFamily(Graph(3, 7), [1, 3]),
                       lambda: SubgraphFamily(Graph(3, 7), [3, 1])),
    "ConstructionSpec": (lambda: ConstructionSpec([2, 2], 4), lambda: ConstructionSpec([2, 2], 5)),
    "MultipartiteFamily": (_family, lambda: multipartite_family(ConstructionSpec((1,), 3))),
    "SeedCheck": (lambda: SeedCheck(True, False, 19), lambda: SeedCheck(True, True, 19)),
    "CompatibilityGraph": (lambda: CompatibilityGraph([1, 3], [2, 1], [3, 2], [1, 3]),
                           lambda: plain_instance([2, 1], [1, 3])),
    "CliqueResult": (lambda: CliqueResult([0, 1], 4, 1), lambda: CliqueResult([0, 1], 4, 2)),
    "SearchRecord": (lambda: SearchRecord("Ch", 4, 3, 1, "1/2^3", ["0x7"]),
                     lambda: SearchRecord("Ch", 4, 3, 1, "1/2^3", ["0x3"])),
    "SearchSummary": (lambda: SearchSummary(17, "17/2^7", ["E?zW"]),
                      lambda: SearchSummary(17, "17/2^7", [])),
}
# the records with a list-valued field
UNHASHABLE = {"CliqueResult", "CompatibilityGraph", "SearchRecord", "SearchSummary"}


def test_every_value_class_is_covered():
    import hifam

    classes = {name for name, value in vars(hifam).items()
               if isinstance(value, type) and issubclass(value, Record)}
    assert classes == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_by_fields(name):
    build, other = RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != other()
    assert a != tuple(getattr(a, f) for f in a.__slots__)
    assert pickle.loads(pickle.dumps(a)) == a


def test_equality_needs_the_same_class():
    class Pair(Record):
        __slots__ = ("n", "edges")

    assert Graph(3, 5) != Pair(3, 5)  # both hold the fields (3, 5)
    assert Pair(3, 5) == Pair(3, 5)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_frozen_records_hash_by_fields_and_refuse_assignment(name):
    """Every record is frozen and hashes as its field tuple: equal records
    hash alike, and a list-valued field makes hash raise TypeError, as it
    does for a tuple."""
    build, _ = RECORDS[name]
    a = build()
    has_list = any(isinstance(getattr(a, f), list) for f in a.__slots__)
    assert has_list == (name in UNHASHABLE)
    if has_list:
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            hash(a)
    else:
        assert hash(a) == hash(build()) == hash(tuple(getattr(a, f) for f in a.__slots__))
        assert len({a, build()}) == 1
    for field in a.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == build()


def test_record_init_sets_the_slots_in_order():
    class Pair(Record):
        __slots__ = ("first", "second")

    pair = Pair(1, [2])
    assert (pair.first, pair.second) == (1, [2])
    assert repr(pair).endswith("Pair(first=1, second=[2])")
    for values in [(1,), (1, 2, 3)]:
        with pytest.raises(ValueError, match="zip"):  # the arity check
            Pair(*values)


def test_positional_and_keyword_construction_with_defaults():
    assert Graph(6) == Graph(n=6, edges=0) == Graph(6, 0)
    assert Graph(6).edges == 0
    result = CliqueResult([0, 2, 5])
    assert (result.size, result.witness) == (3, [0, 2, 5])  # the size is the witness's
    assert (result.phase1_nodes, result.phase2_nodes) == (0, 0)
    assert CliqueResult(witness=[], phase2_nodes=4).phase2_nodes == 4
    with pytest.raises(TypeError):
        CliqueResult()  # the witness is required
    cg = CompatibilityGraph(labels=[1], adjacency=[0], sup=[1], sub=[1])
    assert cg == CompatibilityGraph([1], [0], [1], [1]) == plain_instance([0], [1])
    with pytest.raises(TypeError):
        CompatibilityGraph([1], [0], [1])  # every field is required
    record = SearchRecord(host_graph6="Ch", n=4, m=3, clique_size=1, density="1/2^3",
                          witness_hex=["0x7"])
    assert record == SearchRecord("Ch", 4, 3, 1, "1/2^3", ["0x7"])
    assert SearchSummary(max_clique_size=0, max_density="0/2^0",
                         argmax_hosts=[]).max_clique_size == 0
    assert SeedCheck(intersection_property=True, disjoint_complement=True,
                     family_size=1).family_size == 1
    assert ConstructionSpec(parts=[2], t=4).parts == (2,)
    family = _family()
    assert MultipartiteFamily(seeds=family.seeds, family=family.family) == family
    # the host comes from the family
    assert family.host == family.family.host == complete_multipartite([1, 4])
    assert SubgraphFamily(host=Graph(3, 7), members=[1]).members == (1,)


def test_constructors_still_validate_and_normalize():
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        ConstructionSpec([1], 0)
    with pytest.raises(ValueError):
        SubgraphFamily(Graph(3, 1), [2])
    assert ConstructionSpec([2, 2], 4).parts == (2, 2)  # normalized to a tuple


def test_dataclass_style_repr():
    assert repr(Graph(6, 5)) == "Graph(n=6, edges=5)"
    assert repr(CliqueResult([0, 2])) == (
        "CliqueResult(witness=[0, 2], phase1_nodes=0, phase2_nodes=0)"
    )


def test_cli_import_leaves_heavy_stdlib_modules_unloaded():
    # -S: no site hooks, so nothing is loaded before the import but the
    # interpreter's own start-up modules
    heavy = ["dataclasses", "inspect", "multiprocessing", "fractions", "decimal", "typing"]
    code = f"import sys, hifam.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
