"""The orbit helpers and the canonical form of ``bergeturan.orbits``
against brute force over permutations."""

import random
from itertools import combinations, islice, permutations, product

from bergeturan.orbits import _leaves, _orbit_key, _orbit_representatives, canonical_form
from bergeturan.symmetry import twin_classes


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
        reps = list(_orbit_representatives(classes, r))
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
    """The canonical form and labelling, by the host's own twin classes."""
    return canonical_form(n, masks, twin_classes(n, masks))


def _random_host(rng, n, r, most):
    rsets = [sum(1 << v for v in s) for s in combinations(range(n), r)]
    return rng.sample(rsets, rng.randint(0, min(most, len(rsets))))


def _masks(*edges):
    return [sum(1 << v for v in e) for e in edges]


def test_refinement_and_twins_keep_the_tree_small():
    # leaves of the individualisation-refinement tree: refinement splits
    # the tight path into its two ends' orbits, and twins leave one choice
    # per triangle; without refinement the tight path alone would give
    # thousands of leaves.  The 6-cycle has no twins, so its 12
    # automorphisms give 12 leaves.
    hosts = [
        (8, _masks((0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (5, 6, 7)), 2),
        (6, _masks((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)), 2),
        (6, _masks((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)), 12),
        (9, _masks((0, 1, 2), (3, 4, 5), (6, 7, 8)), 6),
        (10, [], 1),
    ]
    for n, masks, leaves in hosts:
        assert len(list(islice(_leaves(n, masks, twin_classes(n, masks)), 1000))) == leaves, masks


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
        assert len(list(islice(_leaves(n, masks, twin_classes(n, masks)), 1000))) < 1000, masks
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


def test_canonical_form_is_the_same_under_any_refinement_of_the_twins():
    # a host R plus an absent r-set e, by three partitions: the twin
    # classes of R + e, singletons, and the twin classes of R split by e,
    # which refine those of R + e
    rng = random.Random(26)
    seen = set()
    for i in range(300):
        r = rng.choice((2, 3, 4))
        n = rng.randint(r + 1, 8)
        rsets = [sum(1 << v for v in s) for s in combinations(range(n), r)]
        parent = rng.sample(rsets, rng.randint(0, min(12, len(rsets) - 1)))
        e = rng.choice([rset for rset in rsets if rset not in parent])
        masks = parent + [e]
        twins = twin_classes(n, masks)
        split = [part for c in twin_classes(n, parent) for part in (c & e, c & ~e) if part]
        assert all(any(part & c == part for c in twins) for part in split), (n, masks)
        forms = []
        for classes in (twins, [1 << v for v in range(n)], split):
            form, labelling = canonical_form(n, masks, classes)
            assert tuple(sorted(_relabel(masks, labelling))) == form
            forms.append(form)
        assert forms[0] == forms[1] == forms[2], (n, masks)
        seen.add((len(split) > len(twins), len(twins) < n))
    assert seen >= {(True, True), (False, True)}
