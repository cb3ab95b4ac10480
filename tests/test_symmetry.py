"""The orbit helpers of ``bergeturan.symmetry`` against a brute force over
every permutation that maps each class onto itself."""

import random
from itertools import combinations, permutations, product

from bergeturan.symmetry import _orbit_key, _orbit_representatives


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
