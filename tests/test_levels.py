"""The level search's inherited dead extensions against a plain listing
that runs a kernel check on every orbit representative of every class."""

import random

import pytest

from bergeturan import parse_pattern, search
from bergeturan.orbits import _orbit_representatives, canonical_form
from bergeturan.search import SearchOptions
from bergeturan.symmetry import twin_classes


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
    of its twin classes, one pinned kernel check each (counted on
    ``stats``), and one form per class of the kept hosts, by the host's
    own twin classes.  Returns the levels, each a list of forms in the
    order first listed, with the last one cut short where it passes
    ``search._LEVEL_CAP`` classes, as the level search does; whether no
    level passed the cap; and ``lower``, the first counting form of the
    deepest level that has one, or None."""
    levels, finished = [[()]], True
    while levels[-1] and finished:
        grown = {}
        for host in levels[-1]:
            masks = list(host)
            for e in _orbit_representatives(twin_classes(n, masks), r):
                if e in host or search._pinned_copy(masks + [e], pattern, stats):
                    continue
                child = masks + [e]
                grown.setdefault(canonical_form(n, child, twin_classes(n, child))[0], None)
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
    (7, 3, "P4", 249, 225),
    (8, 3, "2P2", 942, 403),
    (9, 3, "2P2", 1440, 446),
])
def test_inherited_dead_extensions_cut_the_listing_calls(n, r, expr, plain, calls):
    # ``plain`` is the count of the listing with one check per orbit
    # representative of every class
    pattern = parse_pattern(expr)
    searcher = search._Searcher(n, r, pattern, SearchOptions(max_candidates=84))
    assert searcher.list_levels()
    stats = _Calls()
    assert reference_levels(n, r, pattern, False, stats)[1]
    assert (stats.pinned_calls, searcher.pinned_calls) == (plain, calls)
