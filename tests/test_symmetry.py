"""The orbit helpers and the canonical form of ``bergeturan.orbits``
against brute force over permutations."""

import hashlib
import random
import sys
from itertools import combinations, permutations, product

from bergeturan import orbits
from bergeturan.orbits import (_orbit_groups, _orbit_key, _orbit_representatives, _refine,
                               canonical_form, twin_classes)
from oracles import kernel_twin_classes


def _class_preserving_orbits(n, classes, r):
    """The orbits of the r-subsets of 0..n-1 under every permutation that
    maps each class (a vertex bitmask) onto itself, each orbit a frozenset
    of r-set bitmasks."""
    members = [[v for v in range(n) if c >> v & 1] for c in classes]
    maps = []
    for images in product(*(permutations(m) for m in members)):
        sigma = [0] * n
        for m, image in zip(members, images):
            for v, w in zip(m, image):
                sigma[v] = w
        maps.append(sigma)
    rsets = [sum(1 << v for v in s) for s in combinations(range(n), r)]
    return {frozenset(sum(1 << sigma[v] for v in range(n) if rset >> v & 1) for sigma in maps)
            for rset in rsets}


def test_orbit_helpers_match_every_class_preserving_permutation():
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 7)
        labels = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
        classes = [sum(1 << v for v in range(n) if labels[v] == c) for c in set(labels)]
        rng.shuffle(classes)
        r = rng.randint(1, 4)
        orbits = _class_preserving_orbits(n, classes, r)
        pairs = _orbit_representatives(classes, r)
        reps = [rset for rset, _ in pairs]
        # each with its key, in descending order of the keys
        assert [key for _, key in pairs] == [_orbit_key(classes, rset) for rset in reps]
        assert [key for _, key in pairs] == sorted({key for _, key in pairs}, reverse=True)
        # exactly one representative per orbit
        assert sorted(sum(rset in orbit for rset in reps) for orbit in orbits) == [1] * len(orbits)
        assert len(reps) == len(orbits)
        # one key per orbit, and a different key for every other orbit
        keys = [{_orbit_key(classes, rset) for rset in orbit} for orbit in orbits]
        assert all(len(k) == 1 for k in keys)
        assert len(set().union(*keys)) == len(orbits)
        seen.add((len(classes) > 1, len(orbits) > 1, len(orbits) < len(set().union(*orbits))))
    assert seen >= {(True, True, True), (False, False, True)}


def _relabel(masks, sigma):
    """The vertex bitmasks ``masks`` with vertex v renamed sigma[v]."""
    return [sum(1 << sigma[v] for v in range(len(sigma)) if mask >> v & 1) for mask in masks]


def _form(n, masks):
    """The canonical form and labelling."""
    return canonical_form(n, masks)[:2]


def _leaves(n, masks):
    """The number of leaves that the canonical form's walk visits: the
    relabelled hosts that it builds, one per leaf, whether a refinement
    or a split of a cell of twins made the leaf discrete."""
    real, leaves = orbits._relabelled, []

    def counting(*args):
        leaves.append(args)
        return real(*args)

    orbits._relabelled = counting
    try:
        canonical_form(n, masks)
    finally:
        orbits._relabelled = real
    return len(leaves)


def _random_host(rng, n, r, most):
    rsets = [sum(1 << v for v in s) for s in combinations(range(n), r)]
    return rng.sample(rsets, rng.randint(0, min(most, len(rsets))))


def _masks(*edges):
    return [sum(1 << v for v in e) for e in edges]


def test_refinement_and_twins_keep_the_tree_small():
    # leaves of the individualisation-refinement tree: refinement splits
    # the tight path into its two ends' orbits, and twins leave one choice
    # per triangle; without refinement the tight path alone would give
    # thousands of leaves.  The 6-cycle has no twins, so twins alone would
    # leave one leaf per automorphism, 12, and the three triangles one per
    # order of the triangles, 6; the automorphisms that the leaves reveal
    # prune both to 4.
    hosts = [
        (8, _masks((0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (5, 6, 7)), 2),
        (6, _masks((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)), 2),
        (6, _masks((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)), 4),
        (9, _masks((0, 1, 2), (3, 4, 5), (6, 7, 8)), 4),
        (10, [], 1),
    ]
    for n, masks, leaves in hosts:
        assert _leaves(n, masks) == leaves, masks


def test_a_deep_tree_needs_no_recursion():
    # one edge and 297 isolated vertices, which are twins: the tree
    # individualises them one level at a time, 297 levels deep, and the
    # walk splits their cells without refining, with room for 100 frames
    # above this one
    limit, depth, frame = sys.getrecursionlimit(), 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    sys.setrecursionlimit(depth + 100)
    try:
        form, labelling, generators, _ = canonical_form(300, [0b111])
    finally:
        sys.setrecursionlimit(limit)
    assert form == (0b111 << 297,) and generators == ()
    assert sorted(labelling) == list(range(300))


def test_one_edge_and_isolated_vertices_take_one_refinement(monkeypatch):
    # the isolated vertices and the edge's vertices are two cells of
    # twins, which the walk splits without refining: only the root is
    # refined, however many isolated vertices there are
    real, calls = orbits._refine, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(orbits, "_refine", counting)
    for k in (0, 1, 2, 10, 100, 297):
        calls.clear()
        form, labelling, generators, classes = canonical_form(k + 3, [0b111])
        assert len(calls) == 1, k
        assert form == (0b111 << k,) and generators == ()
        assert classes == [(1 << k) - 1, 0b111 << k][k == 0:]


def _cycles(*lengths):
    """Disjoint cycles of the given lengths, as a graph's edge masks:
    2-regular, so refinement leaves every vertex in one cell."""
    masks, first = [], 0
    for length in lengths:
        masks += _masks(*((first + i, first + (i + 1) % length) for i in range(length)))
        first += length
    return first, masks


# hosts whose vertices refinement cannot tell apart, although they lie in
# different orbits: the tree must branch on one vertex per twin class
REGULAR_HOSTS = [_cycles(4, 3, 3), _cycles(4, 6), _cycles(3, 7), _cycles(5, 5), _cycles(3, 3, 4),
                 _cycles(4, 5), _cycles(3, 6)]


def test_canonical_form_is_invariant_and_produced_by_its_labelling():
    rng = random.Random(11)
    seen = set()
    for i in range(300 + 4 * len(REGULAR_HOSTS)):
        r = rng.choice((2, 3, 4))
        n = rng.randint(r, 10)
        masks = _random_host(rng, n, r, 24)
        if i >= 300:
            n, masks = REGULAR_HOSTS[i % len(REGULAR_HOSTS)]
        # refinement and twins keep the tree small: no random host comes
        # near 1,000 leaves, where 10 vertices could give 10! without them
        assert _leaves(n, masks) < 1000, masks
        form, labelling = _form(n, masks)
        assert sorted(labelling) == list(range(n))
        assert tuple(sorted(_relabel(masks, labelling))) == form
        sigma = list(range(n))
        rng.shuffle(sigma)
        moved, moved_labelling = _form(n, _relabel(masks, sigma))
        assert moved == form, (n, masks, sigma)
        seen.add(labelling != moved_labelling)
    assert seen == {True, False}


def _switch(rng, masks):
    """Move a vertex x from one hyperedge to another and a vertex y back,
    which keeps every degree; None when the pair of edges allows no move."""
    i, j = rng.sample(range(len(masks)), 2)
    xs, ys = masks[i] & ~masks[j], masks[j] & ~masks[i]
    if not xs or not ys:
        return None
    x = rng.choice([1 << v for v in range(xs.bit_length()) if xs >> v & 1])
    y = rng.choice([1 << v for v in range(ys.bit_length()) if ys >> v & 1])
    out = list(masks)
    out[i], out[j] = masks[i] ^ x ^ y, masks[j] ^ x ^ y
    return out if len(set(out)) == len(out) else None


def _isomorphic(n, a, b):
    target = sorted(b)
    return any(sorted(_relabel(a, sigma)) == target for sigma in permutations(range(n)))


def test_canonical_form_separates_exactly_the_isomorphism_classes():
    # pairs with equal degree sequences, drawn as a host and a relabelled
    # copy of it with up to two degree-keeping switches, against a search
    # over every permutation
    rng = random.Random(12)
    seen = set()
    for _ in range(160):
        r = rng.choice((2, 3, 4))
        n = rng.randint(r + 1, 7 if r < 4 else 6)
        a = _random_host(rng, n, r, 8)
        if len(a) < 2:
            continue
        b = a
        for _ in range(rng.randint(0, 2)):
            b = _switch(rng, b) or b
        sigma = list(range(n))
        rng.shuffle(sigma)
        b = _relabel(b, sigma)
        same = _isomorphic(n, a, b)
        assert (_form(n, a)[0] == _form(n, b)[0]) is same, (n, a, b)
        seen.add(same)
    assert seen == {True, False}


def test_canonical_form_lists_the_isomorphism_classes():
    # every host on 5 vertices: 34 classes of graphs and, by complement on
    # the 3-sets, of 3-graphs; 11 graphs on 4 vertices
    for n, r, classes in ((4, 2, 11), (5, 2, 34), (5, 3, 34)):
        rsets = [sum(1 << v for v in s) for s in combinations(range(n), r)]
        forms = {_form(n, [e for j, e in enumerate(rsets) if pick >> j & 1])[0]
                 for pick in range(1 << len(rsets))}
        assert len(forms) == classes


def _unpruned_form(n, masks):
    """The least relabelled host over every leaf of the tree that splits
    the first non-singleton cell by each of its members: no twin or
    automorphism pruning."""
    edges = [tuple(v for v in range(n) if mask >> v & 1) for mask in masks]
    through = [[j for j, e in enumerate(edges) if v in e] for v in range(n)]
    best, pending = None, [_refine([0] * n, edges, through)]
    while pending:
        colour = pending.pop()
        cell = min((c for c in colour if colour.count(c) > 1), default=None)
        if cell is None:
            form = tuple(sorted(_relabel(masks, colour)))
            best = form if best is None else min(best, form)
            continue
        for v in range(n):
            if colour[v] == cell:
                split = [2 * c + (u != v) for u, c in enumerate(colour)]
                pending.append(_refine(split, edges, through))
    return best


def _group_order(n, generators):
    """The order of the permutation group that ``generators`` generate."""
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(g[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return len(group)


FANO = (7, _masks((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)))
PETERSEN = (10, _masks((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7), (3, 8),
                       (4, 9), (5, 7), (7, 9), (6, 9), (6, 8), (5, 8)))


def test_pruning_keeps_the_least_form_of_the_unpruned_tree():
    # twin, automorphism and first-path pruning skip only subtrees whose
    # relabelled hosts the walk meets elsewhere
    rng = random.Random(27)
    seen = set()
    hosts = [FANO, _cycles(6), _cycles(3, 3), _cycles(3, 4)]
    hosts += [(n, _random_host(rng, n, r, 10))
              for r in (2, 3) for n in (4, 5, 6, 7) for _ in range(8)]
    for n, masks in hosts:
        form, labelling, generators, _ = canonical_form(n, masks)
        assert form == _unpruned_form(n, masks), (n, masks)
        assert tuple(sorted(_relabel(masks, labelling))) == form
        for g in generators:
            assert sorted(_relabel(form, g)) == list(form), (n, masks, g)
        seen.add(bool(generators))
    assert seen == {True, False}


def test_fano_and_petersen_walk_few_leaves():
    # neither has twins, so twin pruning alone walked one leaf per
    # automorphism: 168 and 120; the generators give the whole group
    rng = random.Random(27)
    for (n, masks), order in ((FANO, 168), (PETERSEN, 120)):
        assert twin_classes(n, masks) == [1 << v for v in range(n)]
        form, _, generators, _ = canonical_form(n, masks)
        assert _leaves(n, masks) < 20
        assert _group_order(n, generators) == order
        for _ in range(10):
            sigma = list(range(n))
            rng.shuffle(sigma)
            moved = _relabel(masks, sigma)
            assert canonical_form(n, moved)[0] == form, sigma
            assert _leaves(n, moved) < 20


def _digest_corpus():
    """Random hosts (n <= 10, r in {2, 3, 4}, many with isolated vertices,
    randomly relabelled), complete r-graphs, cycles, three disjoint
    triangles, the Fano plane, the Petersen graph and one edge with 297
    isolated vertices."""
    rng = random.Random(29)
    for _ in range(3000):
        r = rng.choice((2, 3, 4))
        n = rng.randint(r, 10)
        masks = _random_host(rng, rng.randint(r, n), r, 16)
        sigma = list(range(n))
        rng.shuffle(sigma)
        yield n, _relabel(masks, sigma)
    for r in (2, 3, 4):
        for n in range(r, 9):
            yield n, [sum(1 << v for v in s) for s in combinations(range(n), r)]
    for length in range(4, 9):
        yield _cycles(length)
    yield _cycles(3, 3, 3)
    yield FANO
    yield PETERSEN
    yield 300, [0b111]


def test_canonical_form_output_is_pinned():
    # a sha256 over every item canonical_form returns on a seeded corpus:
    # a faster walk must give the same forms, labellings, generators and
    # classes, not only forms of the same isomorphism classes
    digest = hashlib.sha256()
    for n, masks in _digest_corpus():
        digest.update(repr(canonical_form(n, masks)).encode())
    assert digest.hexdigest() == "6d24b131a008119701b21744cc9e77b28f9070740002671d285e3d00ed468e48"


def test_canonical_form_returns_the_twin_classes_of_its_form():
    # the classes that the walk's swap tests find, relabelled into the
    # form's labels, against the kernel's lazy classifier on the form, a
    # classifier apart from the walk's; random hosts leave some vertices
    # uncovered, which are one class
    rng = random.Random(28)
    seen = set()
    hosts = [FANO, PETERSEN, _cycles(3, 3), (6, _masks((0, 1, 2), (0, 1, 3), (0, 1, 4)))]
    hosts += [(n, _random_host(rng, n, r, 12))
              for r in (2, 3) for n in range(r, 9) for _ in range(40)]
    for n, masks in hosts:
        form, _, _, classes = canonical_form(n, masks)
        assert classes == kernel_twin_classes(n, list(form)), (n, masks)
        seen.add((len(classes) < n, any(c & -c != c for c in classes[1:])))
    assert seen == {(False, False), (True, False), (True, True)}


def test_orbit_groups_are_the_orbits_of_the_automorphism_group():
    # the twin orbits joined by the canonical form's generators against
    # the orbits of the absent r-sets under all n! permutations that keep
    # the host
    rng = random.Random(27)
    seen = set()
    for i in range(60):
        r = 2 + i % 2
        n = rng.randint(r + 1, 7)
        form, _, generators, _ = canonical_form(n, _random_host(rng, n, r, 10))
        present = set(form)
        autos = [sigma for sigma in permutations(range(n))
                 if set(_relabel(form, sigma)) == present]
        absent = [e for e in (sum(1 << v for v in s) for s in combinations(range(n), r))
                  if e not in present]
        orbits = {frozenset(_relabel([e], sigma)[0] for sigma in autos) for e in absent}
        classes = twin_classes(n, list(form))
        groups = _orbit_groups(classes, r, present, generators)
        assert sorted(next(k for k, orbit in enumerate(orbits) if group[0][0] in orbit)
                      for group in groups) == list(range(len(orbits)))
        for group in groups:
            assert len({next(k for k, orbit in enumerate(orbits) if e in orbit)
                        for e, _ in group}) == 1
            assert all(key == _orbit_key(classes, e) for e, key in group)
        seen.add(len(groups) < sum(map(len, groups)))
    assert seen == {True, False}
