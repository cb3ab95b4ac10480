"""Exact evaluators for the Turan-type formulas and inequality verification.

Every bound is computed in exact integer or rational arithmetic; no
floating point enters any verification path.  Evaluators outside their
stated parameter range raise OutsideTheoremRange, except the headline
disjoint-path formula which always evaluates (it also counts the
construction's edges) and carries a hypothesis flag instead.

The inequalities I1-I5 are checked in scaled integers.  Each lemma's side
function returns (lhs_num, rhs_num, den) with lhs = lhs_num/den,
rhs = rhs_num/den and a den > 0 fixed by the point: 2L for I1, 2 for I2 and
I3, 1 for I4 and 2l for I5, which clears every division in the statement.
Multiplying both sides by the same positive den keeps every sign and every
comparison: lhs > rhs (or >=) exactly when lhs_num > rhs_num (or >=), the
slack lhs - rhs is exactly (lhs_num - rhs_num)/den, and for I5 the max of
two values scaled by one positive den is the scaled max.  Two slacks
d1/den1 and d2/den2 compare as d1*den2 and d2*den1 do, so the minimum slack
is found without building a Fraction per point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import comb

from .core import FormulaParams, Record
from .errors import GridOutsideHypotheses, OutsideTheoremRange, ParamsOutOfRange


def erdos_gallai_bound(n: int, ell: int) -> Fraction:
    """Classical bound on graph edges avoiding a path with ell edges:
    (ell-1)/2 * n."""
    if n < 1 or ell < 1:
        raise ParamsOutOfRange(f"need n, ell >= 1, got n={n}, ell={ell}")
    return Fraction(ell - 1, 2) * n


def _construction_count(n, r, core, even):
    """Edges of the core construction (:mod:`bergeturan.constructions`) with
    ``core`` core vertices, ``even`` being [ell even]:
    C(core, r-1)*(n-core) + C(core, r) + even*C(core, r-2)."""
    return comb(core, r - 1) * (n - core) + comb(core, r) + even * comb(core, r - 2)


class KplGraphResult(Record):
    value: int
    threshold_n0: int
    valid: bool


def kpl_graph_turan(n: int, k: int, ell: int) -> KplGraphResult:
    """Graph (r = 2) Turan number of k disjoint paths with ell edges, with
    the explicit order threshold above which the formula is exact."""
    if n < 1 or k < 2 or ell < 3:
        raise ParamsOutOfRange(f"need n >= 1, k >= 2 and ell >= 3, got n={n}, k={k}, ell={ell}")
    half_floor = (ell + 1) // 2
    half_ceil = (ell + 2) // 2
    value = _construction_count(n, 2, k * half_floor - 1, 1 if ell % 2 == 0 else 0)
    threshold = 2 * (ell + 1) + 2 * k * (ell + 1) * (half_ceil + 1) * comb(ell + 1, half_floor)
    return KplGraphResult(value=value, threshold_n0=threshold, valid=n >= threshold)


class PathBoundResult(Record):
    value: Fraction
    case: str  # "short-path" (r >= ell > 2) or "long-path" (ell >= r+1 > 3)


def berge_path_bound(n: int, r: int, ell: int) -> PathBoundResult:
    """Turan bound for a single Berge path with ell edges.

    Short paths (r >= ell > 2) give n*(ell-1)/(r+1), sharp when r+1 | n;
    long paths (ell >= r+1 > 3) give (n/ell)*C(ell, r), sharp when ell | n.
    The short-path case is routed first, so r = ell lands there.
    """
    if n < 1:
        raise ParamsOutOfRange(f"need n >= 1, got {n}")
    if r >= ell > 2:
        return PathBoundResult(Fraction(n * (ell - 1), r + 1), "short-path")
    if ell >= r + 1 > 3:
        return PathBoundResult(Fraction(n, ell) * comb(ell, r), "long-path")
    raise OutsideTheoremRange(f"(n={n}, r={r}, ell={ell}) fits neither path-bound case")


class ConnectedPathResult(Record):
    value: int
    large_n_required: bool  # exactness is only stated above an unspecified order


def connected_berge_path_turan(n: int, r: int, ell: int) -> ConnectedPathResult:
    """Turan number of a Berge path with ell edges over connected hosts,
    for ell >= 2r+13 >= 18 and sufficiently large n (threshold unknown)."""
    if not (ell >= 2 * r + 13 >= 18):
        raise OutsideTheoremRange(f"need ell >= 2r+13 >= 18, got r={r}, ell={ell}")
    if n < 1:
        raise ParamsOutOfRange(f"need n >= 1, got {n}")
    value = _construction_count(n, r, (ell + 1) // 2 - 1, 1 if ell % 2 == 0 else 0)
    return ConnectedPathResult(value=value, large_n_required=True)


class TwoPathResult(Record):
    value: Fraction
    case: str  # "path-plus-edge" (second length 1) or "two-paths"
    binomial_part: int
    path_bound_part: Fraction


def two_path_turan(n: int, r: int, ell1: int, ell2: int) -> TwoPathResult:
    """Turan number of two disjoint Berge paths (second possibly a single
    edge), as the maximum of the single-path bound and a binomial expression.

    Cases: ell2 = 1 with ell1 odd >= 2r+11, or ell1 >= ell2 >= r+6 both odd
    with r >= 3.  Exact for sufficiently large n.
    """
    if r < 3:
        raise OutsideTheoremRange(f"need r >= 3, got {r}")
    if ell2 == 1:
        if ell1 % 2 == 0 or ell1 < 2 * r + 11:
            raise OutsideTheoremRange(f"single-edge case needs odd ell1 >= 2r+11, got {ell1}")
        s = (ell1 + 1) // 2
        binom = comb(s, r - 1) * (n - (ell1 - 1) // 2) + comb(s, r)
        case = "path-plus-edge"
    else:
        if ell1 % 2 == 0 or ell2 % 2 == 0 or not ell1 >= ell2 >= r + 6:
            raise OutsideTheoremRange(
                f"two-path case needs odd ell1 >= ell2 >= r+6, got ({ell1}, {ell2})"
            )
        s = (ell1 + ell2) // 2
        binom = comb(s, r - 1) * (n - s) + comb(s, r)
        case = "two-paths"
    path_part = berge_path_bound(n, r, ell1).value
    return TwoPathResult(max(Fraction(binom), path_part), case, binom, path_part)


class KplBergeResult(Record):
    value: int
    hypothesis_ok: bool
    hypothesis_failures: tuple[str, ...]
    large_n_required: bool


def berge_kpl_turan(p: FormulaParams) -> KplBergeResult:
    """Headline formula for k disjoint Berge paths with ell edges:

        C(k*ell'-1, r-1)*(n-k*ell'+1) + C(k*ell'-1, r) + [ell even]*C(k*ell'-1, r-2)

    Always evaluates (it is also the core construction's edge count); the
    flag records whether the theorem-range hypotheses of
    :attr:`FormulaParams.hypothesis_failures` hold, the range in which the
    formula is the exact Turan number for large n.
    """
    value = _construction_count(p.n, p.r, p.core_size, p.parity_indicator)
    failures = p.hypothesis_failures
    return KplBergeResult(value, not failures, failures, True)


class ConjectureReport(Record):
    """Right-hand sides of the concluding conjectures, evaluated exactly as
    printed, with the printed-text quirks surfaced instead of silently
    repaired."""

    forest_value: int
    forest_indicator: int
    uniform_value: int | None
    notes: tuple[str, ...]


_UNIFORM_NOTES = (
    "uniform-case formula as printed multiplies by (n - k*ell') rather than the "
    "construction count's (n - k*ell' + 1)",
    "uniform-case parity indicator as printed tracks r, not the path length",
)
_FOREST_NOTE = (
    "forest formula's last binomial as printed uses the sum of full lengths, "
    "not the sum of half lengths used elsewhere"
)


def conjecture_values(n: int, r: int, ell_list) -> ConjectureReport:
    """Evaluate the conjectured linear-forest Turan value
    f(n, ell_i, r) = C(S-1, r-1)*(n-S+1) + C(S-1, r) + I*C(T-1, r-2), where
    S sums the half lengths, T sums the full lengths and I = 1 exactly when
    some ell_i is even.  For a uniform list the uniform-case conjecture is
    evaluated as printed alongside."""
    ells = list(ell_list)
    if n < 1 or len(ells) < 2 or any(e < 3 for e in ells):
        raise ParamsOutOfRange(f"need n >= 1 and k >= 2 paths of length >= 3, got n={n}, {ells}")
    s = sum((e + 1) // 2 for e in ells)
    t = sum(ells)
    indicator = 1 if any(e % 2 == 0 for e in ells) else 0
    forest = _construction_count(n, r, s - 1, 0) + indicator * comb(t - 1, r - 2)
    uniform = None
    notes = [_FOREST_NOTE]
    if len(set(ells)) == 1:
        k = len(ells)
        lp = (ells[0] + 1) // 2
        core = k * lp - 1
        ind_r = 1 if r % 2 == 0 else 0
        uniform = comb(core, r - 1) * (n - k * lp) + comb(core, r) + ind_r * comb(core, r - 2)
        notes.extend(_UNIFORM_NOTES)
    return ConjectureReport(forest, indicator, uniform, tuple(notes))


# --- inequality verification ------------------------------------------------


def _i1_sides(r, L):
    lhs = 2 * L * comb(2 * L - 1, r - 1)
    rhs = comb(2 * L, r) + 2 * comb(2 * L, r - 1) + comb(2 * L, r - 2)
    return lhs, rhs, 2 * L


def _i2_sides(r, k, l):
    lhs = 2 * comb(k * l - 1, r - 1) - comb(k * l - 1, r - 2)
    rhs = 2 * (comb((k - 1) * l, r - 1) + 1)
    return lhs, rhs, 2


def _i3_sides(r, k, l):
    lhs = sum(comb((k - 1) * l - 1, r - t - 1) for t in range(1, r - 1)) \
        - 2 * l + 2 * comb(l - 1, r - 2)
    return lhs, 0, 2


def _i4_sides(r, k, l):
    return comb(k * l - 1, r - 1), comb((k - 1) * l - 1, r - 1) + comb(k * l - 1, r - 2), 1


def _i5_sides(r, k, l):
    L = (l + 1) // 2
    cap = 2 * l * comb(k * L - 1, r - 1)
    inner = max(cap - l * comb(k * L - 1, r - 2) + l, 2 * comb(l, r) + 5 * l)
    # stated as max{...} < cap, so lhs is the cap and rhs the max
    return cap, inner, 2 * l


class Lemma(Record):
    lemma_id: str
    statement: str
    params: tuple[str, ...]
    strict: bool
    hypotheses: object  # callable(point) -> bool
    sides: object  # callable(point) -> (lhs_num, rhs_num, den), den > 0


LEMMAS: dict[str, Lemma] = {
    "I1": Lemma(
        "I1",
        "C(2L-1, r-1) > (C(2L, r) + 2*C(2L, r-1) + C(2L, r-2)) / (2L)   [L >= r >= 3]",
        ("r", "L"),
        True,
        lambda r, L: L >= r >= 3,
        _i1_sides,
    ),
    "I2": Lemma(
        "I2",
        "C(kl-1, r-1) - C(kl-1, r-2)/2 >= C((k-1)l, r-1) + 1   [k >= 2, l >= r >= 3]",
        ("r", "k", "l"),
        False,
        lambda r, k, l: k >= 2 and l >= r >= 3,
        _i2_sides,
    ),
    "I3": Lemma(
        "I3",
        "sum_{t=1}^{r-2} C((k-1)l-1, r-t-1)/2 - l + C(l-1, r-2) > 0   [k >= 3, l >= r >= 3]",
        ("r", "k", "l"),
        True,
        lambda r, k, l: k >= 3 and l >= r >= 3,
        _i3_sides,
    ),
    "I4": Lemma(
        "I4",
        "C(kl-1, r-1) > C((k-1)l-1, r-1) + C(kl-1, r-2)   [k >= 2, l >= r >= 3]",
        ("r", "k", "l"),
        True,
        lambda r, k, l: k >= 2 and l >= r >= 3,
        _i4_sides,
    ),
    "I5": Lemma(
        "I5",
        "max{C(kL-1, r-1) - C(kL-1, r-2)/2 + 1/2, C(l, r)/l + 5/2} < C(kL-1, r-1)"
        "   [k >= 2, l >= 5, L = floor((l+1)/2) >= r >= 3]",
        ("r", "k", "l"),
        True,
        lambda r, k, l: k >= 2 and l >= 5 and (l + 1) // 2 >= r >= 3,
        _i5_sides,
    ),
}


class LemmaReport(Record, repr_skip=("scaled",)):
    lemma_id: str
    grid: tuple[tuple[int, ...], ...]
    violations: tuple[tuple[int, ...], ...]
    margin_min: Fraction | None
    strict: bool
    # (lhs_num, rhs_num, den) per grid point, as the lemma's side function
    # returns them
    scaled: tuple[tuple[int, int, int], ...]

    @property
    def holds(self) -> bool:
        return not self.violations

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, ...], Fraction, Fraction, Fraction], ...]:
        """(point, lhs, rhs, slack) per grid point as exact rationals, built
        on first read."""
        return tuple((pt, Fraction(lhs, den), Fraction(rhs, den), Fraction(lhs - rhs, den))
                     for pt, (lhs, rhs, den) in zip(self.grid, self.scaled))


def _lemma(lemma_id):
    if lemma_id not in LEMMAS:
        raise ParamsOutOfRange(f"unknown lemma id {lemma_id!r}; expected one of {sorted(LEMMAS)}")
    return LEMMAS[lemma_id]


def default_grid(lemma_id: str, r_max: int = 8, k_max: int = 6, l_max: int = 30):
    """Default verification grid: r in 3..r_max, k in 2..k_max, length
    parameter in 3..l_max, in lexicographic order, filtered by the stated
    hypotheses."""
    lemma = _lemma(lemma_id)
    axes = {"r": range(3, r_max + 1), "k": range(2, k_max + 1),
            "l": range(3, l_max + 1), "L": range(3, l_max + 1)}
    return tuple(pt for pt in product(*(axes[name] for name in lemma.params))
                 if lemma.hypotheses(*pt))


def verify_lemma(lemma_id: str, grid=None) -> LemmaReport:
    """Check one inequality over a grid in exact integer arithmetic.

    Reports every violating parameter tuple and the minimum slack observed;
    a caller-supplied grid must hold points of plain ints (not bools,
    floats or strings) inside the stated hypotheses.
    """
    lemma = _lemma(lemma_id)
    if grid is None:
        grid = default_grid(lemma_id)
    else:
        try:
            grid = tuple(tuple(pt) for pt in grid)
        except TypeError:
            msg = f"{lemma_id} grid must be an iterable of point tuples"
            raise GridOutsideHypotheses(msg) from None
        for pt in grid:
            if (len(pt) != len(lemma.params)
                    or not all(type(x) is int for x in pt)
                    or not lemma.hypotheses(*pt)):
                raise GridOutsideHypotheses(f"{lemma_id} hypotheses exclude point {pt}")
    sides = lemma.sides
    scaled = []
    violations = []
    best_num, best_den = None, 1
    for pt in grid:
        lhs, rhs, den = triple = sides(*pt)
        scaled.append(triple)
        diff = lhs - rhs
        if diff <= 0 if lemma.strict else diff < 0:
            violations.append(pt)
        # diff/den < best_num/best_den, both denominators positive
        if best_num is None or diff * best_den < best_num * den:
            best_num, best_den = diff, den
    return LemmaReport(
        lemma_id=lemma_id,
        grid=grid,
        violations=tuple(sorted(violations)),
        margin_min=None if best_num is None else Fraction(best_num, best_den),
        strict=lemma.strict,
        scaled=tuple(scaled),
    )
