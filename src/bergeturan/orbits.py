"""Orbits for the Turán search: orbits of r-sets under the twin group of a
host, and a canonical form of a host.

Twin classes.  ``symmetry.twin_classes``, imported here for ``search``,
reads the twin classes of a host off the kernel's lazy classifier,
unpinned, so twin classification is written once;
:mod:`bergeturan.symmetry` gives the test and the argument that twins
form classes.  A host that repeats an edge gets a singleton class per
covered vertex, a refinement of its twin classes; everything below holds
for any refinement, where it costs only more checks.  The functions here
take the partition from their caller, so a caller that knows a
refinement already need not classify the host again.  The twin classes
of a host R, or a refinement of them, each split by an r-set e into its
members inside and outside e, refine the twin classes of R + e: a swap
of two twins of R that are both in e or both out of it maps R onto
itself and fixes e.

Orbits of r-sets.  The transpositions inside a class generate the
symmetric group on it, and transpositions of different classes commute, so
the swaps of twins generate the product G of the symmetric groups on the
classes C_1..C_k.  Two r-sets S and T share an orbit of G exactly when
|S & C_i| = |T & C_i| for every i.  Every element of G maps each class
onto itself, so it keeps the sizes.  Where the sizes agree, a bijection of
S & C_i onto T & C_i extends to a permutation of C_i for each i, and the
product of these maps S onto T.  So the sizes are the orbit's key
(:func:`_orbit_key`), and taking the c_i smallest members of each class,
for every (c_1..c_k) with c_i <= |C_i| summing to r, gives one r-set per
orbit (:func:`_orbit_representatives`).  An automorphism sigma of a host H
maps H + e onto H + sigma(e), so both have a Berge copy or neither has:
one r-set answers for its orbit.

Canonical form.  Colour refinement on the vertex-hyperedge incidence
(:func:`_refine`), individualisation of one vertex per twin class of the
first non-singleton cell, and the least relabelled edge tuple over the
leaves give one form per isomorphism class (:func:`canonical_form`).  The
level search of ``search`` keeps one free host per form.  Every
automorphism keeps the refined colours, so ``search`` also uses them to
tell pattern edges apart that no automorphism of the pattern can swap.

Of the package, only ``search`` imports this module, so a command that
runs no Turán search never compiles it.  It imports no module of the
package but ``symmetry``.  Vertices and indices are 0-based here.
"""

from itertools import combinations_with_replacement, groupby, islice

from .symmetry import twin_classes


def _orbit_key(classes, rset):
    """The sizes of the r-set's intersections with the twin classes, all
    vertex bitmasks: equal exactly for r-sets in one orbit."""
    return tuple((rset & c).bit_count() for c in classes)


def _orbit_representatives(classes, r):
    """One r-set per orbit of the product of the symmetric groups on
    ``classes`` (vertex bitmasks), as a bitmask: for every way of taking
    c_i vertices from class i with the c_i summing to r, the r-set of the
    smallest c_i members of each class."""
    # prefixes[i][c] is the smallest c members of class i, for c <= r
    prefixes = []
    for cls in classes:
        row = [0]
        for v in islice(_bits(cls), r):
            row.append(row[-1] | 1 << v)
        prefixes.append(row)
    # a multiset of r class indices says how many vertices each class gives
    for pick in combinations_with_replacement(range(len(classes)), r):
        rset = 0
        for i, run in groupby(pick):
            c = len(tuple(run))
            if c >= len(prefixes[i]):
                break
            rset |= prefixes[i][c]
        else:
            yield rset


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _relabel(mask, labels):
    """The vertex bitmask ``mask`` with vertex v renamed ``labels[v]``."""
    return sum([1 << labels[v] for v in _bits(mask)])


def _refine(colour, edges, through):
    """The coarsest refinement of ``colour`` (one int per vertex) in which
    vertices of one colour meet equally many hyperedges of each colour, a
    hyperedge's colour being the sorted colours of its vertices.  Each
    round gives a vertex the rank of its sorted signature (its colour, then
    the sorted colours of the hyperedges through it), so the order of the
    old colours is kept and the result depends only on the colouring, not
    on the labels."""
    classes = len(set(colour))
    while True:
        edge_colours = [tuple(sorted([colour[v] for v in e])) for e in edges]
        sigs = [(colour[v], sorted([edge_colours[j] for j in through[v]]))
                for v in range(len(colour))]
        ranked = sorted(range(len(sigs)), key=sigs.__getitem__)
        colour = [0] * len(sigs)
        rank = 0
        for prev, v in zip(ranked, ranked[1:]):
            if sigs[v] != sigs[prev]:
                rank += 1
            colour[v] = rank
        if rank + 1 == classes:
            return colour
        classes = rank + 1


def _leaves(n, edge_masks, classes):
    """The discrete colourings of the individualisation-refinement tree of
    the host on vertices 0..n-1, each a list that gives every vertex its
    own colour in 0..n-1.

    The root is the refined colouring with every vertex alike.  A node that
    is not discrete individualises, one child each, the vertices of its
    first non-singleton cell (the one of least colour), but only one
    member of each class of ``classes`` there, the smallest: the caller's
    partition of 0..n-1 into vertex bitmasks, which must be the host's
    twin classes or a refinement of them (see the module docstring).  The
    swap of two twins u and w maps the host onto itself and fixes every
    vertex individualised above, none of which is in the cell, so it maps
    the subtree of u onto that of w, and both yield the same relabelled
    hosts.  A finer partition only keeps more of these subtrees.
    Individualising v gives it a colour of its own just below its cell,
    then refines (:func:`_refine`)."""
    edges = [tuple(_bits(mask)) for mask in edge_masks]
    through = [[] for _ in range(n)]
    for j, e in enumerate(edges):
        for v in e:
            through[v].append(j)
    twin = [0] * n
    for i, cls in enumerate(classes):
        for v in _bits(cls):
            twin[v] = i
    pending = [_refine([0] * n, edges, through)]
    while pending:
        colour = pending.pop()
        size = [0] * n
        for c in colour:
            size[c] += 1
        cell = next((c for c in range(n) if size[c] > 1), None)
        if cell is None:
            yield colour
            continue
        seen = set()
        for v in range(n):
            if colour[v] == cell and twin[v] not in seen:
                seen.add(twin[v])
                split = [2 * c + (u != v) for u, c in enumerate(colour)]
                pending.append(_refine(split, edges, through))


def canonical_form(n, edge_masks, classes):
    """The canonical form of the host on vertices 0..n-1 with the given
    hyperedges (vertex bitmasks, no edge repeated), and a labelling that
    produces it: ``(form, labelling)``, where ``labelling[v]`` is the new
    label of vertex v and ``form`` is the ascending tuple of the relabelled
    hyperedge masks.  Two hosts get one form exactly when they are
    isomorphic.  ``classes`` is the caller's partition of 0..n-1: the
    host's twin classes or any refinement of them (see the module
    docstring), such as singletons.  It decides only which subtrees of the
    tree are searched, not the form; the labelling may differ.

    The form is the least relabelled tuple over the leaves of the
    individualisation-refinement tree (:func:`_leaves`; McKay and Piperno,
    *Practical graph isomorphism, II*, 2014).  Refinement and the choice of
    the cell to split depend on no label, so relabelling the host by sigma
    relabels every node of the tree by sigma, and the set of relabelled
    hosts at the leaves, hence its least member, is the same; where only
    one vertex per class of ``classes`` is individualised, the skipped
    subtrees yield the same hosts as the kept one, whatever refinement of
    the twin classes the caller passes.  Every leaf labelling relabels the
    host isomorphically, so isomorphic hosts are also the only ones that
    share a form."""
    best = labelling = None
    for colour in _leaves(n, edge_masks, classes):
        form = tuple(sorted([_relabel(mask, colour) for mask in edge_masks]))
        if best is None or form < best:
            best, labelling = form, tuple(colour)
    return best, labelling
