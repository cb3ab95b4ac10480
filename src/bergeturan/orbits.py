"""Twin classes and orbits for the Turán search: the twin classes of a
host, orbits of r-sets under its twin group and under its whole
automorphism group, and a canonical form of a host with generators of
that group.

Twin classes.  The Turán search finds a host's twin classes in
:func:`_tables`, which runs the package's one join step,
``symmetry._join_class``, on the incidence rows of ``symmetry.incidence``:
each covered vertex joins the classes of its degree, and the uncovered
vertices are one class.  :func:`canonical_form` walks by these classes,
and :func:`twin_classes` gives them to the tree and the saturation check
of ``search``; :mod:`bergeturan.symmetry` gives the test, the argument
that twins form classes, and the join step's guard: a host that repeats
an edge gets a class per covered vertex, a refinement of the twin
classes.  The orbits of r-sets below hold for any refinement, where it
costs only more checks.  The orbit functions take the partition from
their caller.

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
share a form.  A node is an ordered partition, and a vertex's colour is
the number of vertices in the cells before its own, which at a discrete
leaf is its label; individualising puts the vertex first in its cell,
and refinement splits cells in place.  So a vertex individualised at a
node gets one label at every leaf below it.
An automorphism gamma that fixes a node's individualised prefix pointwise
maps the node onto itself, and its child that individualises u onto the
one that individualises gamma(u); each leaf lambda below u goes to the
leaf lambda gamma^-1 below gamma(u), which gives the same relabelled host.
The walk of :func:`canonical_form` skips subtrees by two rules, and
skips refinements whose result it knows by two more:

* Twins.  Of the members of a cell, one per twin class of
  :func:`_tables` is tried.  The swap of twins u and w fixes every
  vertex individualised above, none of which is in the cell, so it maps
  the subtree of u onto that of w.
* Automorphisms.  Let zeta be the first leaf walked.  A later leaf mu of
  zeta's form gives the automorphism sigma with zeta = mu sigma, since
  both relabel the host to one form.  A member of a cell is skipped when
  the automorphisms found so far that fix the node's prefix pointwise map
  it onto a member already tried; the group they generate fixes the
  prefix too.
* Cells of twins.  Let the first non-singleton cell C of a node hold
  only mutual twins.  Their swaps generate Sym(C) and fix every vertex
  outside C, the prefix too, so they keep the node's colouring, and the
  twin rule leaves one child, which individualises C's least member v.
  Splitting v off C is already equitable.  Sym(C - v) keeps it, and
  moves any member of C - v onto any other.  A vertex x outside C meets
  equally many edges of each old colour as the other members of its
  cell; every such edge meets C in as many vertices, k, and the swaps
  in C, which fix x, spread those edges evenly over C, so a share k/|C|
  of them holds v.  So the child's colouring is the split itself, v at
  C's colour and C - v just after it, with no refinement, and while the
  first non-singleton cell is one of twins, so is the next: all of C
  gets its labels, in ascending order, at once.
* Orbits.  The twin swaps that fix a node's prefix keep the colouring
  that it refines, so no round splits one of their orbits: each prefix
  vertex alone, and the rest of each twin class.  A colouring with as
  many colours as orbits is the orbit partition, which no round splits
  either, so :func:`_refine` stops there.

The form is the least over the unpruned tree.  Take any leaf, and among
its images under Aut(H), which give its relabelled host, one whose path
stays longest among visited nodes; let nu be its last visited node.  The
walk tries or skips every child of a node it visits, so the child on the
path was skipped, by a twin swap or a found automorphism that fixes nu's
prefix and maps it onto a visited child.  That gives an image whose path
goes deeper, against the choice, so the image is a visited leaf.  The
last two rules change no node, only how it is computed.

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
isomorphism, II*, 2014).  They are the only automorphisms that ``search``
uses, through :func:`_orbit_groups`, in two places.  Its level search
keeps one free host per form, and grows it once per orbit of Aut(H) on
the absent r-sets.  Its pinned checks run one kernel query per orbit of
a pattern F's edges under Aut(F), where the edges, 2-vertex masks
relabelled by the labelling of F's own form, are joined the same way.

Of the package, only ``search`` imports this module, so a command that
runs no Turán search never compiles it.  It imports no module of the
package but ``symmetry``.  Vertices and indices are 0-based here.
"""

from .symmetry import _join_class, incidence


def _orbit_key(classes, rset):
    """The sizes of the r-set's intersections with the twin classes, all
    vertex bitmasks: equal exactly for r-sets in one orbit."""
    return tuple([(rset & c).bit_count() for c in classes])


def _orbit_representatives(classes, r):
    """One r-set per orbit of the product of the symmetric groups on
    ``classes`` (vertex bitmasks), as a bitmask, with its orbit key
    (:func:`_orbit_key`): for every way (c_1..c_k) of taking c_i <= |C_i|
    vertices from class i with the c_i summing to r, in descending
    lexicographic order, the r-set of the smallest c_i members of each
    class and the key (c_1..c_k).  The counts are chosen class by class,
    each from the most to the fewest that leave the later classes room
    for the rest."""
    # prefixes[i][c] is the smallest c members of class i, for c <= r
    prefixes = []
    for cls in classes:
        row = [0]
        while cls and len(row) <= r:
            row.append(row[-1] | cls & -cls)
            cls &= cls - 1
        prefixes.append(row)
    # (r-set, counts so far, vertices left to take); room is the most
    # vertices that the classes after the current one can give
    reps, room = [(0, (), r)], sum(map(len, prefixes)) - len(prefixes)
    for row in prefixes:
        room -= len(row) - 1
        reps = [(rset | row[c], key + (c,), left - c) for rset, key, left in reps
                for c in range(min(left, len(row) - 1), max(left - room, 0) - 1, -1)]
    return [rep[:2] for rep in reps]


def _orbit_groups(reps, classes, generators):
    """The r-sets of ``reps``, pairs of an r-set (a vertex bitmask) and its
    orbit key (:func:`_orbit_key`) on ``classes``, a host's twin classes,
    joined into one list per orbit of the group generated by its twin
    swaps and ``generators``, automorphisms of the host: the lists are in
    the order of their first members, each in the order of ``reps``.
    ``reps`` must hold a member of the twin orbit of every image that a
    generator gives of a member, as the absent orbit representatives of
    ``search``'s level search and the edges of a pattern do.

    Every automorphism maps twins onto twins, so it maps each orbit of the
    twin group onto one, the orbit of its image of any member.  The orbits
    of the whole group are therefore the unions of twin orbits that the
    generators join, one twin orbit to that of its image at a time.
    Members with one key share a twin orbit, hence a list, with or without
    generators."""
    # a union-find forest on the orbit keys
    root = {key: key for _, key in reps}
    for g in generators:
        for e, key in reps:
            a, b = _find(root, key), _find(root, _orbit_key(classes, _relabel(e, g)))
            root[max(a, b)] = min(a, b)
    groups = {}
    for rep in reps:
        groups.setdefault(_find(root, rep[1]), []).append(rep)
    return list(groups.values())


def _find(root, i):
    """The root of i in the union-find forest ``root``, whose roots are
    their trees' least members, halving the path on the way."""
    while root[i] != i:
        root[i] = root[root[i]]
        i = root[i]
    return i


def _relabel(mask, labels):
    """The vertex bitmask ``mask`` with vertex v renamed ``labels[v]``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << labels[low.bit_length() - 1]
        mask ^= low
    return out


def _relabelled(edges, labels):
    """The host of the hyperedges ``edges``, lists of vertices, with vertex
    v renamed ``labels[v]``: the ascending tuple of the renamed masks."""
    return tuple(sorted([sum([1 << labels[v] for v in e]) for e in edges]))


def _refine(colour, edges, through, orbits=None):
    """The coarsest refinement of ``colour`` (one int per vertex) in which
    vertices of one colour meet equally many hyperedges of each colour, a
    hyperedge's colour being the sorted colours of its vertices.  Each
    round gives a vertex the number of vertices whose sorted signature
    (its colour, then the sorted colours of the hyperedges through it) is
    smaller than its own, so the order of the old colours is kept and the
    result depends only on the order of the colours, not on the labels or
    the values.  A discrete colouring is returned as soon as it is
    reached: no round can split it further.

    ``orbits``, where given, is the number of orbits of a group of
    automorphisms that keeps ``colour``, which then gives each vertex the
    number of vertices of smaller colour, as the result does.  No round
    splits an orbit, so a colouring with that many colours is the orbit
    partition, which no round splits either: it is returned as it is,
    before any round if ``colour`` has that many."""
    n = len(colour)
    classes = len(set(colour))
    while classes != orbits:
        edge_colours = [sorted(map(colour.__getitem__, e)) for e in edges]
        sigs = [(c, sorted(map(edge_colours.__getitem__, t))) for c, t in zip(colour, through)]
        ranked = sorted(range(n), key=sigs.__getitem__)
        colour = [0] * n
        cells, start = 1, 0
        for i, (prev, v) in enumerate(zip(ranked, ranked[1:]), 1):
            if sigs[v] != sigs[prev]:
                cells, start = cells + 1, i
            colour[v] = start
        if cells in (classes, n):
            break
        classes = cells
    return colour


def _meets(v, tried, automorphisms, prefix):
    """Does the group generated by the ``automorphisms`` that fix every
    vertex of ``prefix`` map v onto a member of ``tried``?  The orbit of v
    is closed under those maps; in a finite group that is closure under
    inverses too."""
    maps = [a for a in automorphisms if all([a[p] == p for p in prefix])]
    orbit, size = {v}, 0
    while size < len(orbit):
        size = len(orbit)
        orbit |= {a[u] for a in maps for u in orbit}
    return not orbit.isdisjoint(tried)


def _tables(n, edge_masks):
    """The tables of the host on vertices 0..n-1 with the given hyperedges
    (vertex bitmasks) that the Turán search reads, and its twins:
    ``(edges, through, twin)``.  ``edges[j]`` lists the vertices of
    hyperedge j in ascending order, ``through[v]`` the indices of the
    hyperedges through v, and ``twin[v]`` is the smallest twin of v.

    One bit loop builds the lists, which refinement reads.  The twins come
    from the join step that the kernel runs too, ``symmetry._join_class``,
    on the incidence rows of ``symmetry.incidence``: each covered vertex,
    in ascending order, joins the first class of its degree, which twins
    share, whose root is its twin; twins form classes, so that is its own
    class.  The first vertex of a degree opens its class list with no
    test, since there is no class to test it against.  A host that
    repeats an edge gets a class per covered vertex there.  The uncovered
    vertices, whose swaps fix every edge, are one class."""
    edges, through = [], [[] for _ in range(n)]
    for j, mask in enumerate(edge_masks):
        e = []
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            e.append(v)
            through[v].append(j)
            mask ^= low
        edges.append(e)
    vertices, inc, degree = incidence(edge_masks)
    edge_set = set(edge_masks)
    uncovered = [v for v in range(n) if not through[v]]
    twin = [v if through[v] else uncovered[0] for v in range(n)]
    classes = {}
    for v in vertices:
        group = classes.get(degree[v])
        if group is None:
            classes[degree[v]] = [[v, 1 << v]]
            continue
        earlier = _join_class(edge_masks, edge_set, inc, group, v)
        # the least of v's earlier twins, or v
        twin[v] = (earlier & -earlier or 1 << v).bit_length() - 1
    return edges, through, twin


def twin_classes(n, edge_masks):
    """The twin classes of the host on vertices 0..n-1 with the given
    hyperedges (vertex bitmasks), those of :func:`_tables`, as vertex
    bitmasks ordered by smallest member."""
    classes = {}
    for v, u in enumerate(_tables(n, edge_masks)[2]):
        classes[u] = classes.get(u, 0) | 1 << v
    return list(classes.values())


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
    :func:`twin_classes` on ``form``: the classes that :func:`_tables`
    joins on the host through ``symmetry._join_class``, which the walk
    prunes by, relabelled.

    The form is the least relabelled tuple over the leaves of the
    individualisation-refinement tree (McKay and Piperno, *Practical graph
    isomorphism, II*, 2014), walked with twin and automorphism pruning
    (see the module docstring).  The root is the refined colouring with
    every vertex alike, and a vertex's colour is the number of vertices
    of smaller colour.  A node that is not discrete splits its first
    non-singleton cell (the one of least colour): individualising v
    leaves it the cell's colour and gives the rest of the cell the next
    one, then refines (:func:`_refine`), stopping at the orbits of the
    twin swaps that fix the individualised prefix.  Its children are
    tried in ascending order of v, one per twin class of the cell,
    skipping a member that the automorphisms found so far that fix the
    node's prefix map onto a member already tried.  A cell of twins has
    one child, whose colouring is its split, so the walk labels the
    cell's members in ascending order without refining.  ``labelling``
    is the first leaf walked that gives the least form.  The automorphisms
    found are the maps from the first leaf walked to each later leaf of
    its form, and a generator is lambda sigma lambda^-1 for the labelling
    lambda and such a map sigma."""
    edges, through, twin = _tables(n, edge_masks)
    degree = list(map(len, through))
    # the first round of refinement from one colour ranks the degrees; the
    # twin classes are the orbits of the twin swaps
    ranks = sorted(degree)
    root = _refine([ranks.index(d) for d in degree], edges, through, len(set(twin)))
    automorphisms = []

    def children(colour, prefix, members):
        """The children of the node ``colour``, reached by individualising
        ``prefix``, that split its cell ``members``, each with its prefix,
        as the walk takes them: each is tried or skipped only once the
        subtrees before it are walked."""
        seen, tried = set(), []
        for v in members:
            if twin[v] in seen:
                continue
            seen.add(twin[v])
            if tried and _meets(v, tried, automorphisms, prefix):
                continue
            tried.append(v)
            split, fixed = colour[:], prefix + (v,)
            for u in members:
                split[u] += u != v
            # the orbits of the twin swaps that fix ``fixed``
            orbits = len(fixed) + len({twin[u] for u in range(n) if u not in fixed})
            yield _refine(split, edges, through, orbits), fixed

    first = best = None  # (form, leaf colouring, its inverse)
    # the walk's path, one generator of children per node, so that a deep
    # tree needs no recursion
    path = [iter([(root, ())])]
    while path:
        colour, prefix = next(path[-1], (None, None))
        if colour is None:
            path.pop()
            continue
        # the cells in order, each the run of ``order`` from its colour to
        # the next; a cell of twins is split member by member, without
        # refining
        order = sorted(range(n), key=colour.__getitem__)
        starts = sorted(set(colour)) + [n]
        for i, j in zip(starts, starts[1:]):
            if j - i == 1:
                continue
            members = order[i:j]
            if len({twin[v] for v in members}) > 1:
                path.append(children(colour, prefix, members))
                break
            for k, v in enumerate(members, i):
                colour[v] = k
            prefix += tuple(members[:-1])
        else:
            form = _relabelled(edges, colour)
            if first is None:
                first = best = form, colour, order
            elif form == first[0]:
                # sigma with first = colour o sigma: the vertex that colour
                # gives first's label of v
                automorphisms.append([order[c] for c in first[1]])
            elif form < best[0]:
                best = form, colour, order
    form, labelling, order = best
    generators = tuple(tuple([labelling[sigma[v]] for v in order]) for sigma in automorphisms)
    classes = {}
    for v, u in enumerate(twin):
        classes[u] = classes.get(u, 0) | 1 << labelling[v]
    return form, tuple(labelling), generators, sorted(classes.values(), key=lambda c: c & -c)
