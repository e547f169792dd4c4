from collections import defaultdict, deque

import pytest

from catfrac.fileio import AdditionTables
from catfrac.instances import make_monoid, make_named
from catfrac.three_arrows import enumerate_three_arrows, fraction_generators

POSITIVE = ("WALK", "CH3", "DIA", "DIA-B", "PAR", "Z4")


def z2_shell():
    """The multiplicative monoid of Z/2 with the ring's addition."""
    dd = make_monoid(["z", "u"], [["z", "z"], ["z", "u"]], ["u"], name="Z2SHELL")
    add = AdditionTables(
        zero={("pt", "pt"): "z"},
        plus={
            ("z", "z"): "z", ("z", "u"): "u",
            ("u", "z"): "u", ("u", "u"): "z",
        },
    )
    return dd, add


def poset_addition(dd):
    """The only addition a poset carries: each hom-set is its own zero."""
    cat = dd.base
    return AdditionTables(
        zero={(cat.src_of(f), cat.tgt_of(f)): f for f in cat.morphisms},
        plus={(f, f): f for f in cat.morphisms},
    )


@pytest.fixture(scope="session")
def named():
    return {name: make_named(name) for name in POSITIVE + ("IDEM",)}


def bfs_partition(dd):
    """Independent closure oracle: connected components of the generator
    graph, computed by plain breadth-first search (no union-find)."""
    arrows = enumerate_three_arrows(dd)
    index = {t: i for i, t in enumerate(arrows)}
    adjacency = defaultdict(set)
    for t1, t2 in fraction_generators(dd, "two-sided"):
        adjacency[index[t1]].add(index[t2])
        adjacency[index[t2]].add(index[t1])
    seen, components = set(), []
    for start in range(len(arrows)):
        if start in seen:
            continue
        component, queue = [], deque([start])
        seen.add(start)
        while queue:
            i = queue.popleft()
            component.append(i)
            for j in adjacency[i]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        components.append(sorted(component))
    return sorted(components)
