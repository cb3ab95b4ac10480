"""The level search, which checks one extension per automorphism orbit
and inherits dead extensions, against a plain listing that runs a kernel
check on every twin orbit representative of every class."""

import random

import pytest

from bergeturan import orbits, parse_pattern, search
from bergeturan.orbits import _orbit_representatives, canonical_form
from bergeturan.search import SearchOptions
from oracles import kernel_twin_classes


def _connected_cover(n, masks):
    """Do the edges cover 0..n-1 in one component?  A graph search over the
    vertices, apart from the search's own check."""
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for mask in masks:
            if mask >> v & 1:
                for w in range(n):
                    if mask >> w & 1 and w not in seen:
                        seen.add(w)
                        stack.append(w)
    return len(seen) == n


class _Calls:
    pinned_calls = 0


def reference_levels(n, r, pattern, connected_only, stats=None):
    """The plain listing: every class, every absent orbit representative
    of its twin classes, read off the kernel's lazy classifier, one pinned
    kernel check each (counted on ``stats``), and one form per class of
    the kept hosts.  Returns the levels, each a list of forms in the order
    first listed, with the last one cut short where it passes
    ``search._LEVEL_CAP`` classes, as the level search does; whether no
    level passed the cap; and ``lower``, the first counting form of the
    deepest level that has one, or None."""
    levels, finished = [[()]], True
    while levels[-1] and finished:
        grown = {}
        for host in levels[-1]:
            masks = list(host)
            for e, _ in _orbit_representatives(kernel_twin_classes(n, masks), r):
                if e in host or search._pinned_copy(masks + [e], pattern, stats):
                    continue
                child = masks + [e]
                grown.setdefault(canonical_form(n, child)[0], None)
                if len(grown) > search._LEVEL_CAP:
                    finished = False
                    break
            if not finished:
                break
        levels.append(list(grown))
    levels = [level for level in levels if level]
    lower = None
    for level in levels:
        lower = next((form for form in level
                      if not connected_only or _connected_cover(n, form)), lower)
    return levels, finished, lower


def _listed_levels(monkeypatch, n, r, pattern, connected_only):
    """What ``_Searcher.list_levels`` lists, as ``reference_levels`` gives
    it, read off its canonical forms, and its count of pinned checks."""
    forms = []
    real = search.canonical_form

    def recording(*args):
        out = real(*args)
        forms.append(out[0])
        return out

    monkeypatch.setattr(search, "canonical_form", recording)
    searcher = search._Searcher(n, r, pattern, SearchOptions(connected_only=connected_only))
    finished = searcher.list_levels()
    levels = [[()]]
    for form in dict.fromkeys(forms):
        if len(form) == len(levels):
            levels.append([])
        levels[-1].append(form)
    lower = searcher.lower
    if lower is not None:
        lower = tuple(sorted(searcher.cand_masks[j] for j in lower))
    return (levels, finished, lower), searcher.pinned_calls


PATTERNS = ("P2", "P3", "P4", "2P2", "C3", "C4")


def test_inherited_dead_extensions_keep_every_level(monkeypatch):
    # random small instances, with and without connected_only: the same
    # classes in the same order at every level, the same lower bound, and
    # never more kernel checks than the plain listing
    rng = random.Random(26)
    seen = set()
    for _ in range(30):
        r = rng.choice((2, 3))
        n = rng.randint(r + 2, 7)
        expr = rng.choice(PATTERNS)
        connected = rng.random() < 0.5
        pattern = parse_pattern(expr)
        plain = _Calls()
        expected = reference_levels(n, r, pattern, connected, plain)
        with monkeypatch.context() as mp:
            listed, calls = _listed_levels(mp, n, r, pattern, connected)
        assert listed == expected, (n, r, expr, connected)
        assert calls <= plain.pinned_calls
        seen.add((connected, calls < plain.pinned_calls, len(expected[0]) > 2))
    assert {(False, True, True), (True, True, True)} <= seen


@pytest.mark.parametrize("n,r,expr,plain,calls", [
    (7, 3, "P4", 249, 160),
    (8, 3, "2P2", 942, 300),
    (9, 3, "2P2", 1440, 331),
], ids=["7-3-P4", "8-3-2P2", "9-3-2P2"])
def test_inherited_dead_extensions_cut_the_listing_calls(n, r, expr, plain, calls):
    # ``plain`` is the count of the listing with one check per orbit
    # representative of every class, and one check per twin orbit that no
    # parent answers gives 225, 403 and 446
    pattern = parse_pattern(expr)
    searcher = search._Searcher(n, r, pattern, SearchOptions(max_candidates=84))
    assert searcher.list_levels()
    stats = _Calls()
    assert reference_levels(n, r, pattern, False, stats)[1]
    assert (stats.pinned_calls, searcher.pinned_calls) == (plain, calls)


@pytest.mark.parametrize("n,r,expr,forms,nodes,calls,refinements", [
    (7, 3, "P4", 30, 21, 160, 54),
    (6, 3, "2P2", 89, 41, 120, 145),
    (9, 3, "2P2", 221, 84, 331, 402),
], ids=["7-3-P4", "6-3-2P2", "9-3-2P2"])
def test_cells_of_twins_cut_the_refinements(monkeypatch, n, r, expr, forms, nodes, calls,
                                            refinements):
    # canonical forms, listed classes (with the root) and pinned calls are
    # those of a walk that refines at every node; splitting cells of twins
    # without refining cut the refinements from 152, 294 and 1,302
    # the pattern's edge orbits take a canonical form of their own, once
    # per process, which a run of this test alone would otherwise count
    pattern = parse_pattern(expr)
    search._pattern_edge_orbits(pattern)
    counts = {"forms": 0, "refinements": 0}
    real_form, real_refine = search.canonical_form, orbits._refine

    def form(*args):
        counts["forms"] += 1
        return real_form(*args)

    def refine(*args):
        counts["refinements"] += 1
        return real_refine(*args)

    monkeypatch.setattr(search, "canonical_form", form)
    monkeypatch.setattr(orbits, "_refine", refine)
    searcher = search._Searcher(n, r, pattern, SearchOptions(max_candidates=84))
    assert searcher.list_levels()
    assert (counts["forms"], searcher.nodes, searcher.pinned_calls, counts["refinements"]) == (
        forms, nodes, calls, refinements)


def test_a_generator_that_is_no_automorphism_stops_the_listing(monkeypatch):
    # a canonical form that adds the cyclic shift of the labels to its
    # generators: the shift moves the one edge of a class of level 1, so
    # the listing raises before it joins any orbits by it
    real = search.canonical_form
    shifted = []

    def patched(n, masks):
        form, labelling, generators, classes = real(n, masks)
        shift = tuple(range(1, n)) + (0,)
        shifted.append(form)
        return form, labelling, generators + (shift,), classes

    searcher = search._Searcher(6, 3, parse_pattern("P4"), SearchOptions())
    assert searcher.list_levels()
    monkeypatch.setattr(search, "canonical_form", patched)
    searcher = search._Searcher(6, 3, parse_pattern("P4"), SearchOptions())
    with pytest.raises(RuntimeError, match="no automorphism"):
        searcher.list_levels()
    assert shifted[0] == (0b111000,)
