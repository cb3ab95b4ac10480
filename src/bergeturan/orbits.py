"""Orbits for the Turán search: orbits of r-sets under the twin group of a
host and under its whole automorphism group, and a canonical form of a
host with generators of that group.

Twin classes.  ``symmetry.twin_classes``, imported here for ``search``,
reads the twin classes of a host off the kernel's lazy classifier,
unpinned, and :func:`canonical_form` returns those its swap tests find;
:mod:`bergeturan.symmetry` gives the test and the argument that twins
form classes.  A host that repeats an edge gets a singleton class per
covered vertex, a refinement of its twin classes; the orbits of r-sets
below hold for any refinement, where it costs only more checks.  The
orbit functions take the partition from their caller.

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
one r-set answers for its orbit.  Generators of the rest of Aut(H) join
the twin orbits into the orbits of Aut(H) (:func:`_orbit_groups`).

Canonical form.  Colour refinement on the vertex-hyperedge incidence
(:func:`_refine`), individualisation of a vertex of the first
non-singleton cell, and the least relabelled edge tuple over the leaves
give one form per isomorphism class (:func:`canonical_form`).  Refinement
and the choice of the cell to split depend on no label, so relabelling the
host by pi relabels every node of the tree by pi, and the set of
relabelled hosts at the leaves, hence its least member, is the same.
Every leaf relabels the host isomorphically, so only isomorphic hosts
share a form.  A leaf is a discrete ordered partition, and a vertex's label there is the
number of vertices in the cells before it; individualising puts the
vertex first in its cell, and refinement splits cells in place.  So a
vertex individualised at a node gets one label at every leaf below it.
An automorphism gamma that fixes a node's individualised prefix pointwise
maps the node onto itself, and its child that individualises u onto the
one that individualises gamma(u); each leaf lambda below u goes to the
leaf lambda gamma^-1 below gamma(u), which gives the same relabelled host.
The walk of :func:`canonical_form` skips subtrees by two rules:

* Twins.  Of the members of a cell, one per twin class is tried, found by
  the swap test of ``symmetry._swap_is_automorphism``.  Twins share their
  refined colour at the root, so the classes come from tests inside each
  root cell.  The swap of twins u and w fixes every vertex individualised
  above, none of which is in the cell, so it maps the subtree of u onto
  that of w.
* Automorphisms.  Let zeta be the first leaf walked.  A later leaf mu of
  zeta's form gives the automorphism sigma with zeta = mu sigma, since
  both relabel the host to one form.  A member of a cell is skipped when
  the automorphisms found so far that fix the node's prefix pointwise map
  it onto a member already tried; the group they generate fixes the
  prefix too.

The form is the least over the unpruned tree.  Take any leaf, and among
its images under Aut(H), which give its relabelled host, one whose path
stays longest among visited nodes; let nu be its last visited node.  The
walk tries or skips every child of a node it visits, so the child on the
path was skipped, by a twin swap or a found automorphism that fixes nu's
prefix and maps it onto a visited child.  That gives an image whose path
goes deeper, against the choice, so the image is a visited leaf.

The maps sigma, with the twin swaps, generate Aut(H).  Let nu_0..nu_k be
zeta's path and A the group they generate.  By induction from the leaf
nu_k, where only the identity fixes the discrete prefix, A holds every
automorphism gamma that fixes nu_i's prefix pointwise.  Let x be zeta's
child at nu_i.  A twin swap, then a member of the group generated by the
found automorphisms that fix the prefix, take gamma(x) onto a tried child
u (either may be the identity); let beta be their product, so that
beta gamma maps x onto u.  Below u lie images of zeta, and the argument
above, applied to u's subtree and the automorphisms that fix u's prefix,
shows that the walk reaches one, mu.  Where the paths of zeta and mu
part, at nu_i, the two leaves give each vertex of the prefix one label,
and x and u one label, so mu's sigma fixes the prefix and maps x onto u.
So sigma^-1 beta gamma fixes nu_(i+1)'s prefix and lies in A, and so
does gamma.

Written in the form's labels, lambda sigma lambda^-1 for the labelling
lambda maps the form onto itself; these are the generators that
:func:`canonical_form` returns (McKay and Piperno, *Practical graph
isomorphism, II*, 2014).  The level search of ``search`` keeps one free
host per form, and grows it once per orbit of Aut(H).  Every automorphism
keeps the refined colours, so ``search`` also uses them to tell pattern
edges apart that no automorphism of the pattern can swap.

Of the package, only ``search`` imports this module, so a command that
runs no Turán search never compiles it.  It imports no module of the
package but ``symmetry``.  Vertices and indices are 0-based here.
"""

from itertools import combinations_with_replacement, groupby, islice

from .symmetry import _swap_is_automorphism, twin_classes


def _orbit_key(classes, rset):
    """The sizes of the r-set's intersections with the twin classes, all
    vertex bitmasks: equal exactly for r-sets in one orbit."""
    return tuple([(rset & c).bit_count() for c in classes])


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


def _orbit_groups(classes, r, present, generators):
    """The absent orbit representatives of a host, joined into one list
    per orbit of the group generated by its twin swaps and
    ``generators``, automorphisms of the host: ``classes`` are its twin
    classes (vertex bitmasks), ``present`` holds its edges, and the lists
    are in the order of their first members, each in the order of
    :func:`_orbit_representatives`.

    Every automorphism maps twins onto twins, so it maps each orbit of the
    twin group onto one, the orbit of its image of any member.  The orbits
    of the whole group are therefore the unions of twin orbits that the
    generators join, one twin orbit to that of its image at a time."""
    reps = [e for e in _orbit_representatives(classes, r) if e not in present]
    if not generators:
        return [[e] for e in reps]
    at = {_orbit_key(classes, e): i for i, e in enumerate(reps)}
    root = list(range(len(reps)))
    for g in generators:
        for i, e in enumerate(reps):
            a, b = _find(root, i), _find(root, at[_orbit_key(classes, _relabel(e, g))])
            root[max(a, b)] = min(a, b)
    groups = {}
    for i, e in enumerate(reps):
        groups.setdefault(_find(root, i), []).append(e)
    return list(groups.values())


def _find(root, i):
    """The root of i in the union-find forest ``root``, whose roots are
    their trees' least members, halving the path on the way."""
    while root[i] != i:
        root[i] = root[root[i]]
        i = root[i]
    return i


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _relabel(mask, labels):
    """The vertex bitmask ``mask`` with vertex v renamed ``labels[v]``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << labels[low.bit_length() - 1]
        mask ^= low
    return out


def _refine(colour, edges, through):
    """The coarsest refinement of ``colour`` (one int per vertex) in which
    vertices of one colour meet equally many hyperedges of each colour, a
    hyperedge's colour being the sorted colours of its vertices.  Each
    round gives a vertex the rank of its sorted signature (its colour, then
    the sorted colours of the hyperedges through it), so the order of the
    old colours is kept and the result depends only on the colouring, not
    on the labels.  A discrete colouring is returned as soon as it is
    reached: no round can split it further."""
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
        if rank + 1 in (classes, len(sigs)):
            return colour
        classes = rank + 1


def _meets(v, tried, automorphisms, prefix):
    """Does the group generated by the ``automorphisms`` that fix every
    vertex of ``prefix`` map v onto a member of ``tried``?  The orbit of v
    is closed under those maps; in a finite group that is closure under
    inverses too."""
    maps = [a for a in automorphisms if all([a[p] == p for p in prefix])]
    orbit, stack = {v}, [v]
    while stack:
        u = stack.pop()
        for a in maps:
            if a[u] not in orbit:
                orbit.add(a[u])
                stack.append(a[u])
    return not orbit.isdisjoint(tried)


def canonical_form(n, edge_masks):
    """The canonical form of the host on vertices 0..n-1 with the given
    hyperedges (vertex bitmasks, no edge repeated), a labelling that
    produces it, generators of its automorphisms beyond the twin swaps,
    and its twin classes: ``(form, labelling, generators, classes)``.
    ``labelling[v]`` is the new label of vertex v, and ``form`` is the
    ascending tuple of the relabelled hyperedge masks.  Two hosts get one
    form exactly when they are isomorphic.  Each generator g is a tuple,
    written in the form's labels: g[v] is the image of vertex v, and g
    maps ``form`` onto itself.  With the swaps of twins, the generators
    generate the whole automorphism group.  ``classes`` are those of
    ``symmetry.twin_classes`` on ``form``, found by the swap tests inside
    each root cell.

    The form is the least relabelled tuple over the leaves of the
    individualisation-refinement tree (McKay and Piperno, *Practical graph
    isomorphism, II*, 2014), walked with twin and automorphism pruning
    (see the module docstring).  The root is the refined colouring with
    every vertex alike.  A node that is not discrete splits its first
    non-singleton cell (the one of least colour): individualising v gives
    it a colour of its own just below its cell, then refines
    (:func:`_refine`).  Its children are tried in ascending order of v,
    one per twin class of the cell, skipping a member that the
    automorphisms found so far that fix the node's individualised prefix
    map onto a member already tried.  ``labelling`` is the first leaf
    walked that gives the least form.  The automorphisms found are the
    maps from the first leaf walked to each later leaf of its form, and a
    generator is lambda sigma lambda^-1 for the labelling lambda and such
    a map sigma."""
    edges = [tuple(_bits(mask)) for mask in edge_masks]
    through = [[] for _ in range(n)]
    inc = [0] * n
    for j, e in enumerate(edges):
        for v in e:
            through[v].append(j)
            inc[v] |= 1 << j
    edge_set = set(edge_masks)
    # the first round of refinement from one colour ranks the degrees
    degrees = sorted(set(map(len, through)))
    root = _refine([degrees.index(len(t)) for t in through], edges, through)
    # twin[v] is the smallest twin of v, which shares v's refined colour
    twin = list(range(n))
    for v in range(n):
        for u in range(v):
            if twin[u] == u and root[u] == root[v] and _swap_is_automorphism(
                    edge_masks, edge_set, inc, u, v):
                twin[v] = u
                break
    automorphisms = []

    def children(colour, prefix):
        """The children of the node ``colour``, reached by individualising
        ``prefix``, each with its prefix, as the walk takes them: each is
        tried or skipped only once the subtrees before it are walked."""
        size = [0] * n
        for c in colour:
            size[c] += 1
        cell = next(c for c in range(n) if size[c] > 1)
        seen, tried = set(), []
        for v in range(n):
            if colour[v] != cell or twin[v] in seen:
                continue
            seen.add(twin[v])
            if tried and _meets(v, tried, automorphisms, prefix):
                continue
            tried.append(v)
            split = [2 * c + (u != v) for u, c in enumerate(colour)]
            yield _refine(split, edges, through), prefix + (v,)

    first = best = None  # (form, leaf colouring)
    # the walk's path, one generator of children per node, so that a deep
    # tree needs no recursion
    path = [iter([(root, ())])]
    while path:
        colour, prefix = next(path[-1], (None, None))
        if colour is None:
            path.pop()
        elif len(set(colour)) < n:
            path.append(children(colour, prefix))
        else:
            form = tuple(sorted([sum([1 << colour[v] for v in e]) for e in edges]))
            if first is None:
                first = best = form, colour
            elif form == first[0]:
                # sigma with first = colour o sigma: the vertex that colour
                # gives first's label of v
                order = sorted(range(n), key=colour.__getitem__)
                automorphisms.append([order[c] for c in first[1]])
            elif form < best[0]:
                best = form, colour
    form, labelling = best
    order = sorted(range(n), key=labelling.__getitem__)
    generators = tuple(tuple([labelling[sigma[v]] for v in order]) for sigma in automorphisms)
    classes = [sum([1 << labelling[v] for v in range(n) if twin[v] == u]) for u in set(twin)]
    return form, tuple(labelling), generators, sorted(classes, key=lambda c: c & -c)


