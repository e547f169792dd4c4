import functools
from collections import defaultdict, deque
from math import gcd

import pytest

from catfrac.core import Violation
from catfrac.denominators import completions, factorisations
from catfrac.fileio import AdditionTables
from catfrac.fraction import build_fraction_category
from catfrac.instances import (
    NAMED,
    chain,
    make_monoid,
    make_named,
    transformation_monoid,
)
from catfrac.three_arrows import (
    ThreeArrow,
    enumerate_three_arrows,
    fraction_generators,
    rank_tables,
)

POSITIVE = ("WALK", "CH3", "DIA", "DIA-B", "PAR", "Z4")
# the structures the theorem cross-checks run over, every class, member
# and pair of each: the positive named instances and chain(2..6)
CROSS_CHECK = POSITIVE + tuple(f"chain{n}" for n in range(2, 7))


@functools.cache
def cross_check_fc(name):
    """The fraction category of a CROSS_CHECK structure, built once."""
    dd = chain(int(name[5:])) if name.startswith("chain") else make_named(name)
    return build_fraction_category(dd)


def zmod(n):
    """The multiplicative monoid of Z/n with its units as D = S = T."""
    labels = [str(k) for k in range(n)]
    table = [[str(a * b % n) for b in range(n)] for a in range(n)]
    units = [str(u) for u in range(n) if gcd(u, n) == 1]
    return make_monoid(labels, table, units, name=f"Z{n}")


def certificate_ladder():
    """The structures whose reduced certificate paths are pinned against the
    full sweeps: the named instances, chain(n <= 8), Z/n for n <= 12 and
    the transformation monoid T3."""
    return (
        [make_named(name) for name in NAMED]
        + [chain(n) for n in range(2, 9)]
        + [zmod(n) for n in range(2, 13)]
        + [transformation_monoid(3)]
    )


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


def block_partitions(dd):
    """The (source, target) blocks whose fraction partition ``dd`` keeps, in
    the order they were built; the whole partition is not among them."""
    return [
        key[1] for key in dd.derived
        if isinstance(key, tuple) and key[0] == "partition" and key[1] is not None
    ]


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


def one_step_generators(dd, arrows):
    """Reference generator family: t is related to t2 when morphisms c, c2
    exist with b == comp(c2, b2), comp(f, c) == comp(c2, f2) and
    comp(a, c) == a2.  It generates the same closure as the library's
    two-sided leg moves."""
    cat = dd.base
    left_sol = cat.solution_maps()[0]
    pairs = []
    for t2 in arrows:
        for c2 in cat.by_tgt[cat.isrc[t2.b]]:
            b = cat.icomp[(c2, t2.b)]
            if b not in dd.iden:
                continue
            w = cat.icomp[(c2, t2.f)]
            for c in cat.by_tgt[cat.itgt[t2.f]]:
                left_c = left_sol[c]
                for f in left_c.get(w, []):
                    if cat.isrc[f] != cat.isrc[c2]:
                        continue
                    for a in left_c.get(t2.a, []):
                        if a in dd.iden:
                            pairs.append((ThreeArrow(b, f, a), t2))
    return pairs


def all_leg_moves(dd, arrows):
    """Oracle generator family, straight from the definition: the right-leg
    move (b, f, a) ~ (b, fc, ac) for every c with ac in D and the left-leg
    move (b, f, a) ~ (cb, cf, a) for every c with cb in D.  The library
    sweeps only the moves by a generating set of D."""
    cat = dd.base
    pairs = []
    for t in arrows:
        for c in cat.by_src[cat.itgt[t.f]]:
            ac = cat.icomp[(t.a, c)]
            if ac in dd.iden:
                pairs.append((t, ThreeArrow(t.b, cat.icomp[(t.f, c)], ac)))
        for c in cat.by_tgt[cat.isrc[t.f]]:
            cb = cat.icomp[(c, t.b)]
            if cb in dd.iden:
                pairs.append((t, ThreeArrow(cb, cat.icomp[(c, t.f)], t.a)))
    return pairs


def library_moves(dd, arrows):
    """The library's generator moves over all three-arrows ``arrows`` of
    ``dd``, each position pair mapped back to its pair of three-arrows."""
    ranks = rank_tables(dd)
    return [(arrows[i], arrows[j]) for i, j in fraction_generators(dd, arrows, ranks)]


def bfs_partition(dd, generators=library_moves):
    """Independent closure oracle: connected components of the graph of
    ``generators(dd, arrows)``, computed by plain breadth-first search (no
    union-find)."""
    arrows = enumerate_three_arrows(dd)
    index = {t: i for i, t in enumerate(arrows)}
    adjacency = defaultdict(set)
    for t1, t2 in generators(dd, arrows):
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


def strict_composites_all(dd, t1, t2):
    """Every strict-mode composite of t1, t2 over all valid witness choices:
    all (j, q) S,T-factorisations of b2 a1 and all weakly universal
    completions on both sides (the library caches only the first)."""
    cat = dd.base
    b2a1 = cat.icomp[(t2.b, t1.a)]
    op = dd.opposite()
    for j, q in factorisations(cat, b2a1, dd.s_sorted, dd.t_sorted):
        for f1p, q1 in completions(op.base, op.is_, q, t1.f):
            for f2p, j1 in completions(cat, dd.is_, j, t2.f):
                yield ThreeArrow(
                    cat.icomp[(q1, t1.b)],
                    cat.icomp[(f1p, f2p)],
                    cat.icomp[(t2.a, j1)],
                )


def reference_validate_category(cat):
    """The category laws by the plain exhaustive sweeps, in the library's
    report order; the library decides associativity at a generating set."""
    report = []
    n, m = cat.n_morphisms, cat.morphisms
    for x in range(cat.n_objects):
        e = cat.iidentity[x]
        if cat.isrc[e] != x or cat.itgt[e] != x:
            report.append(Violation("identity-endpoints", (cat.objects[x], m[e])))
    for i in range(n):
        for j in range(n):
            defined = (i, j) in cat.icomp
            if cat.itgt[i] == cat.isrc[j]:
                if not defined:
                    report.append(Violation("missing-composite", (m[i], m[j])))
                else:
                    k = cat.icomp[(i, j)]
                    if cat.isrc[k] != cat.isrc[i] or cat.itgt[k] != cat.itgt[j]:
                        report.append(
                            Violation("composite-endpoints", (m[i], m[j], m[k]))
                        )
            elif defined:
                report.append(Violation("spurious-composite", (m[i], m[j])))
    if report:
        return report
    for i in range(n):
        e_s, e_t = cat.iidentity[cat.isrc[i]], cat.iidentity[cat.itgt[i]]
        if cat.icomp[(e_s, i)] != i:
            report.append(Violation("left-identity", (m[e_s], m[i])))
        if cat.icomp[(i, e_t)] != i:
            report.append(Violation("right-identity", (m[i], m[e_t])))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if cat.itgt[i] != cat.isrc[j] or cat.itgt[j] != cat.isrc[k]:
                    continue
                lhs = cat.icomp[(cat.icomp[(i, j)], k)]
                if lhs != cat.icomp[(i, cat.icomp[(j, k)])]:
                    report.append(Violation("associativity", (m[i], m[j], m[k])))
    return report
