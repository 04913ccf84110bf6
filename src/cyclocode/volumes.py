"""Hamming-ball volumes, intersection counting, and counting bounds.

Volumes and the classical bounds are exact (integers and Fractions).  The
concentration-corrected bounds mix q^n with exp(-Theta(n)) factors, which
overflow or underflow float64 long before the interesting parameter range,
so they are evaluated with mpmath at 60 significant digits and returned
as arbitrary-precision reals.  A bound that comes out <= 0 is returned
as-is and flagged vacuous rather than clamped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator

import mpmath
from mpmath import mpf

from .budget import DEFAULT_INTERSECTION_BUDGET
from .errors import CapacityError, DivisionDomainError
from .words import Word, cyclic_shift, hamming_distance, weight, word

_DPS = 60


def _real(x) -> mpf:
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


def ball_volume(n: int, q: int, t: int) -> int:
    """|B(x, t)| = sum_{i<=t} C(n, i) (q-1)^i, independent of the center x."""
    if n < 1 or q < 2:
        raise ValueError(f"need n >= 1 and q >= 2, got n={n}, q={q}")
    if not (0 <= t <= n):
        raise ValueError(f"radius must lie in [0, {n}], got t={t}")
    # Incremental term update: C(n,i+1)(q-1)^{i+1} = C(n,i)(q-1)^i * (n-i)(q-1)/(i+1),
    # with the division exact at every step.  Much faster than repeated comb() for big n.
    term = 1
    total = 1
    for i in range(t):
        term = term * (n - i) * (q - 1) // (i + 1)
        total += term
    return total


def cw_ball_volume(n: int, w: int, t: int) -> int:
    """Constant-weight ball volume sum_{i<=t//2} C(w, i) C(n-w, i).

    Counts binary weight-w words within distance t of a weight-w center;
    distances on the slice are even (i symbols leave the support, i enter).
    """
    if n < 1 or not (0 <= w <= n):
        raise ValueError(f"need 0 <= w <= n with n >= 1, got n={n}, w={w}")
    if not (0 <= t <= 2 * w):
        raise ValueError(f"radius must lie in [0, {2 * w}], got t={t}")
    return sum(comb(w, i) * comb(n - w, i) for i in range(t // 2 + 1))


def gv_bound(n: int, q: int, d: int) -> Fraction:
    """Gilbert-Varshamov: codes of minimum distance d with at least
    q^n / Vol(n, d-1) words exist."""
    if not (1 <= d <= n):
        raise ValueError(f"distance must lie in [1, {n}], got d={d}")
    return Fraction(q**n, ball_volume(n, q, d - 1))


def levenshtein_bound(n: int, w: int, d: int) -> Fraction:
    """Constant-weight GV analogue: C(n, w) / Vol(n, d-1; w)."""
    if not (1 <= d <= 2 * w):
        raise ValueError(f"distance must lie in [1, {2 * w}], got d={d}")
    return Fraction(comb(n, w), cw_ball_volume(n, w, d - 1))


def linear_scale_hcc(n: int, q: int, d: int) -> Fraction:
    """The n * q^n / Vol(n, d-1) scale that hopping-cyclic constructions
    achieve up to an unspecified constant; reported for comparison only."""
    return n * gv_bound(n, q, d)


def linear_scale_ooc(n: int, w: int, d: int) -> Fraction:
    """Constant-weight analogue of linear_scale_hcc (constant unspecified)."""
    return n * levenshtein_bound(n, w, d)


@dataclass(frozen=True)
class RealBound:
    """An arbitrary-precision real bound value with a vacuousness flag.

    value may legitimately be negative (the correction factor overwhelms
    the main term); vacuous records value <= 0 so reports can say that the
    bound promises nothing there.
    """

    value: mpf
    vacuous: bool
    factors: dict = field(default_factory=dict)

    def __float__(self) -> float:
        return float(self.value)

    def value_str(self, digits: int = 12) -> str:
        return mpmath.nstr(self.value, digits)


def hcc_gv_bound(n: int, q: int, d: int, eps: float) -> RealBound:
    """Concentration-corrected existence bound for hopping cyclic codes:

        q^n * (1 - n^2 * exp(-eps^2 (sqrt(n) - 2) / 2)) / (Vol(n, d-1) - 1)

    The numerator's parenthesized factor is the guaranteed fraction of words
    whose shifted copies stay far apart; it is negative for small n (or small
    eps), in which case the bound is vacuous but still reported verbatim.
    """
    if not (0 < eps < 1 - Fraction(1, q)):
        raise ValueError(f"need 0 < eps < 1 - 1/q = {1 - 1/q:.6g}, got {eps}")
    vol = ball_volume(n, q, d - 1)
    if vol == 1:
        raise DivisionDomainError(
            f"radius-{d - 1} ball volume is 1, so the denominator Vol - 1 vanishes"
        )
    with mpmath.workdps(_DPS):
        e = _real(eps)
        correction = mpf(n) ** 2 * mpmath.exp(-(e**2) * (mpmath.sqrt(n) - 2) / 2)
        value = mpf(q**n) * (1 - correction) / (vol - 1)
        return RealBound(
            value=value,
            vacuous=(value <= 0),
            factors={"survivor_fraction": 1 - correction, "correction": correction},
        )


def fhs_gv_bound(n: int, q: int, lam: int, eps: float) -> RealBound:
    """Existence bound for frequency-hopping sequence sets with maximum
    correlation lam: the hopping-cyclic bound at d = n - lam, divided by n
    (one sequence per shift class)."""
    if not (0 <= lam <= n - 1):
        raise ValueError(f"correlation bound must lie in [0, {n - 1}], got {lam}")
    inner = hcc_gv_bound(n, q, n - lam, eps)
    with mpmath.workdps(_DPS):
        value = inner.value / n
        return RealBound(value=value, vacuous=(value <= 0), factors=inner.factors)


def independence_lower_bound(num_vertices: int, degree_bound: int, k: int) -> float:
    """Locally sparse graphs: alpha(G) >= (|V| / D) * ln(min(D, K)).

    D bounds the maximum degree, and every neighborhood induces at most
    D^2 / K edges for some 1 <= K <= D^2 + 1.  The asymptotic (1 - o(1))
    factor is omitted; treat the value as a scale, not a certified floor.
    """
    if num_vertices < 0:
        raise ValueError(f"vertex count must be nonnegative, got {num_vertices}")
    if degree_bound < 1:
        raise ValueError(f"degree bound must be at least 1, got {degree_bound}")
    if not (1 <= k <= degree_bound**2 + 1):
        raise ValueError(
            f"sparsity parameter must lie in [1, D^2 + 1] = [1, {degree_bound**2 + 1}], got {k}"
        )
    import math

    return (num_vertices / degree_bound) * math.log(min(degree_bound, k))


def mcdiarmid_tail(t: float, influences: list[float]) -> float:
    """Bounded-differences tail exp(-2 t^2 / sum c_i^2) for deviation t >= 0."""
    if t < 0:
        raise ValueError(f"deviation must be nonnegative, got {t}")
    if not influences:
        raise ValueError("need at least one influence coefficient")
    if any(c <= 0 for c in influences):
        raise ValueError("influence coefficients must be positive")
    import math

    denom = sum(float(c) ** 2 for c in influences)
    return math.exp(-2.0 * float(t) ** 2 / denom)


@dataclass(frozen=True)
class TailCensusBound:
    """Guaranteed census size: at least count_bound words exceed threshold.

    The census keeps words x with min-shift distance d(x) strictly above
    threshold; shortfall = total * (union tail) is what the concentration
    argument concedes.  factors holds the named pieces of the tail chain.
    """

    count_bound: mpf
    threshold: Fraction
    total: int
    shortfall: mpf
    factors: dict
    vacuous: bool


def autodistance_census_bound(n: int, q: int, eps) -> TailCensusBound:
    """At least q^n (1 - (n-1) e^{-eps^2 n / 2}) words x in [q]^n satisfy
    d(x) > n (1 - 1/q - eps).

    Union bound over the n-1 shifts; each shift's tail comes from the
    bounded-differences inequality with influence 2 per coordinate.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 (no nontrivial shift otherwise), got n={n}")
    eps_frac = Fraction(eps)
    if not (0 < eps_frac < 1 - Fraction(1, q)):
        raise ValueError(f"need 0 < eps < 1 - 1/q, got eps={eps}")
    threshold = n * (1 - Fraction(1, q) - eps_frac)
    total = q**n
    with mpmath.workdps(_DPS):
        per_shift = mpmath.exp(-(_real(eps_frac) ** 2) * n / 2)
        shortfall = mpf(total) * (n - 1) * per_shift
        count = mpf(total) - shortfall
        return TailCensusBound(
            count_bound=count,
            threshold=threshold,
            total=total,
            shortfall=shortfall,
            factors={"union_count": n - 1, "per_shift_tail": per_shift},
            vacuous=(count <= 0),
        )


def cw_autodistance_census_bound(n: int, p, eps) -> TailCensusBound:
    """Census bound on the weight-pn slice: at least

        C(n, pn) * (1 - (n-1) * e^{-(1+eps)^2 p^2 (1-p)^2 n / 2}
                        * sqrt(2 pi n p (1-p)) * ell(n))

    words x of weight pn satisfy d(x) > (1 - eps) n p (1 - p), where
    ell(n) = exp(-1/(12n+1) + 1/(12pn) + 1/(12(1-p)n)) caps the Stirling
    correction for the slice-conditioning step.
    """
    p = Fraction(p)
    if not (0 < p < 1):
        raise ValueError(f"need 0 < p < 1, got p={p}")
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {eps}")
    pn = p * n
    if pn.denominator != 1:
        raise ValueError(f"p * n must be an integer, got p={p}, n={n}")
    pn = int(pn)
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    eps_frac = Fraction(eps)
    threshold = (1 - eps_frac) * n * p * (1 - p)
    total = comb(n, pn)
    with mpmath.workdps(_DPS):
        pr = _real(p)
        e = _real(eps_frac)
        per_shift = mpmath.exp(-((1 + e) ** 2) * pr**2 * (1 - pr) ** 2 * n / 2)
        ell = mpmath.exp(
            -mpf(1) / (12 * n + 1) + mpf(1) / (12 * pn) + mpf(1) / (12 * (n - pn))
        )
        stirling = mpmath.sqrt(2 * mpmath.pi * n * pr * (1 - pr)) * ell
        shortfall = mpf(total) * (n - 1) * per_shift * stirling
        count = mpf(total) - shortfall
        return TailCensusBound(
            count_bound=count,
            threshold=threshold,
            total=total,
            shortfall=shortfall,
            factors={
                "union_count": n - 1,
                "per_shift_tail": per_shift,
                "stirling_factor": stirling,
                "ell": ell,
            },
            vacuous=(count <= 0),
        )


def _ball_members(x: Word, t: int) -> Iterator[Word]:
    """All words within distance t of x (x itself included)."""
    from itertools import combinations, product

    n, q = x.n, x.q
    yield x
    for k in range(1, t + 1):
        for positions in combinations(range(n), k):
            for deltas in product(range(1, q), repeat=k):
                symbols = list(x.symbols)
                for pos, delta in zip(positions, deltas):
                    symbols[pos] = (symbols[pos] + delta) % q
                yield Word(tuple(symbols), x.q)


def _cw_ball_members(x: Word, t: int) -> Iterator[Word]:
    """All words of x's weight within distance t of x."""
    from itertools import combinations

    support = [j for j, s in enumerate(x.symbols) if s == 1]
    holes = [j for j, s in enumerate(x.symbols) if s == 0]
    for i in range(t // 2 + 1):
        for off in combinations(support, i):
            for on in combinations(holes, i):
                symbols = list(x.symbols)
                for j in off:
                    symbols[j] = 0
                for j in on:
                    symbols[j] = 1
                yield Word(tuple(symbols), x.q)


@lru_cache(maxsize=4096)
def _intersection_cached(n: int, q: int, t: int, separation: int, w: int | None) -> int:
    """Intersection size for a canonical pair at the given separation.

    The count depends on (n, q, t, separation) only (and w on the slice):
    any isometry moving one pair onto another preserves both balls.  The
    canonical pair is x = 0 and y with the first `separation` coordinates
    bumped (for the slice, a weight-preserving double swap).
    """
    if w is None:
        x = word([0] * n, q)
        y = word([1] * separation + [0] * (n - separation), q)
        count = 0
        for member in _ball_members(x, t):
            if hamming_distance(member, y) <= t:
                count += 1
        return count
    half = separation // 2
    x = word([1] * w + [0] * (n - w), 2)
    y_symbols = [1] * (w - half) + [0] * half + [1] * half + [0] * (n - w - half)
    y = word(y_symbols, 2)
    count = 0
    for member in _cw_ball_members(x, t):
        if hamming_distance(member, y) <= t:
            count += 1
    return count


def ball_intersection_volume(
    x: Word,
    y: Word,
    t: int,
    *,
    constant_weight: bool = False,
    budget: int | None = None,
) -> int:
    """|B(x, t) intersect B(y, t)|, counted exactly by enumerating one ball.

    With constant_weight=True both balls live on the weight slice of x
    (x and y must then share a weight).  The enumeration performs one
    membership test per member of B(x, t); the call refuses to start when
    that exceeds the budget (default 10**8 tests).
    """
    from .errors import DimensionMismatch

    if x.n != y.n or x.q != y.q:
        raise DimensionMismatch(
            f"words disagree on shape: (n={x.n}, q={x.q}) vs (n={y.n}, q={y.q})"
        )
    n, q = x.n, x.q
    if constant_weight:
        if q != 2:
            raise ValueError("constant-weight intersections are defined for binary words")
        w = weight(x)
        if weight(y) != w:
            raise ValueError(
                f"constant-weight intersection needs equal weights, got {w} and {weight(y)}"
            )
        if not (0 <= t <= 2 * w):
            raise ValueError(f"radius must lie in [0, {2 * w}], got t={t}")
        tests = cw_ball_volume(n, w, t)
        wkey = w
    else:
        if not (0 <= t <= n):
            raise ValueError(f"radius must lie in [0, {n}], got t={t}")
        tests = ball_volume(n, q, t)
        wkey = None
    limit = DEFAULT_INTERSECTION_BUDGET if budget is None else budget
    if tests > limit:
        raise CapacityError(
            "ball intersection enumeration exceeds the membership-test budget",
            required=tests,
            budget=limit,
        )
    return _intersection_cached(n, q, t, hamming_distance(x, y), wkey)


@dataclass(frozen=True)
class DecayRow:
    separation: int
    intersection: int
    ratio: Fraction  # intersection / single-ball volume


def intersection_decay_table(
    n: int,
    q: int,
    t: int,
    *,
    weight: int | None = None,
    budget: int | None = None,
) -> list[DecayRow]:
    """Intersection volume at every achievable center separation.

    Separations run over 0..n (plain) or the even values 0..2*min(w, n-w)
    (weight slice).  Each row reports the exact intersection and its ratio
    to the single-ball volume; the ratio at separation 0 is 1.
    """
    rows = []
    if weight is None:
        vol = ball_volume(n, q, t)
        separations = range(0, n + 1)
        x = word([0] * n, q)
        for s in separations:
            y = word([1] * s + [0] * (n - s), q)
            inter = ball_intersection_volume(x, y, t, budget=budget)
            rows.append(DecayRow(s, inter, Fraction(inter, vol)))
    else:
        if not (0 <= weight <= n):
            raise ValueError(f"weight must lie in [0, {n}], got {weight}")
        if not (0 <= t <= 2 * weight):
            raise ValueError(f"radius must lie in [0, {2 * weight}], got t={t}")
        vol = cw_ball_volume(n, weight, t)
        x = word([1] * weight + [0] * (n - weight), 2)
        for s in range(0, 2 * min(weight, n - weight) + 1, 2):
            half = s // 2
            y_symbols = (
                [1] * (weight - half)
                + [0] * half
                + [1] * half
                + [0] * (n - weight - half)
            )
            y = word(y_symbols, 2)
            inter = ball_intersection_volume(x, y, t, constant_weight=True, budget=budget)
            rows.append(DecayRow(s, inter, Fraction(inter, vol)))
    return rows


def _int_text(value: int) -> str:
    """Decimal digits of an integer of any length.

    str() refuses integers longer than sys.get_int_max_str_digits() (4300
    by default), which exact volumes pass at n in the thousands; Decimal
    converts without that limit.
    """
    return str(Decimal(value))


def format_rational(value: Fraction, digits: int = 6) -> str:
    """Render an exact rational as 'p/q (~ decimal)'."""
    approx = mpmath.nstr(mpf(value.numerator) / mpf(value.denominator), digits)
    if value.denominator == 1:
        return f"{_int_text(value.numerator)} (~ {approx})"
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)} (~ {approx})"


@dataclass
class BoundReport:
    """Closed-form bound values for one parameter point, ready to render.

    Optional entries stay None when their parameters were not supplied
    (e.g. no weight means no constant-weight rows).  mcdiarmid_terms lists
    (count, tail) pairs: `count` shifts each contribute `tail` to the union
    bound, so the union total is sum(count * tail).
    """

    n: int
    q: int
    d: int | None = None
    weight: int | None = None
    lam: int | None = None
    eps: float | None = None
    gv: Fraction | None = None
    hcc_gv: RealBound | None = None
    hcc_gv_note: str | None = None
    linear_scale: Fraction | None = None
    levenshtein: Fraction | None = None
    linear_scale_cw: Fraction | None = None
    fhs_gv: RealBound | None = None
    fhs_gv_note: str | None = None
    independence_lb: float | None = None
    mcdiarmid_terms: list | None = None

    def rows(self) -> list[tuple[str, str]]:
        out = [
            ("n", str(self.n)),
            ("q", str(self.q)),
        ]
        if self.d is not None:
            out.append(("d", str(self.d)))
        if self.weight is not None:
            out.append(("weight", str(self.weight)))
        if self.lam is not None:
            out.append(("lambda", str(self.lam)))
        if self.eps is not None:
            out.append(("eps", f"{self.eps:g}"))
        if self.gv is not None:
            out.append(("gv", format_rational(self.gv)))
        if self.hcc_gv is not None:
            tag = " [vacuous]" if self.hcc_gv.vacuous else ""
            out.append(("hcc_gv", self.hcc_gv.value_str() + tag))
        if self.hcc_gv_note is not None:
            out.append(("hcc_gv", f"n/a ({self.hcc_gv_note})"))
        if self.linear_scale is not None:
            out.append(
                ("hcc_linear_scale", format_rational(self.linear_scale) + " (constant unspecified)")
            )
        if self.levenshtein is not None:
            out.append(("levenshtein", format_rational(self.levenshtein)))
        if self.linear_scale_cw is not None:
            out.append(
                ("ooc_linear_scale", format_rational(self.linear_scale_cw) + " (constant unspecified)")
            )
        if self.fhs_gv is not None:
            tag = " [vacuous]" if self.fhs_gv.vacuous else ""
            out.append(("fhs_gv", self.fhs_gv.value_str() + tag))
        if self.fhs_gv_note is not None:
            out.append(("fhs_gv", f"n/a ({self.fhs_gv_note})"))
        if self.independence_lb is not None:
            out.append(("independence_lb", f"{self.independence_lb:.6f}"))
        if self.mcdiarmid_terms:
            for count, tail in self.mcdiarmid_terms:
                out.append(("mcdiarmid_union_term", f"{count} x {mpmath.nstr(mpf(tail), 8)}"))
        return out

    def to_dict(self) -> dict:
        def real(v):
            return None if v is None else {"value": v.value_str(16), "vacuous": v.vacuous}

        def rat(v):
            if v is None:
                return None
            return {"num": _int_text(v.numerator), "den": _int_text(v.denominator)}

        return {
            "n": self.n,
            "q": self.q,
            "d": self.d,
            "weight": self.weight,
            "lambda": self.lam,
            "eps": self.eps,
            "gv": rat(self.gv),
            "hcc_gv": real(self.hcc_gv),
            "hcc_gv_note": self.hcc_gv_note,
            "hcc_linear_scale": rat(self.linear_scale),
            "levenshtein": rat(self.levenshtein),
            "ooc_linear_scale": rat(self.linear_scale_cw),
            "fhs_gv": real(self.fhs_gv),
            "fhs_gv_note": self.fhs_gv_note,
            "independence_lb": self.independence_lb,
            "mcdiarmid_terms": [
                [c, mpmath.nstr(mpf(t), 16)] for c, t in (self.mcdiarmid_terms or [])
            ],
        }


def bound_report(
    n: int,
    q: int,
    d: int | None = None,
    weight: int | None = None,
    lam: int | None = None,
    eps: float | None = None,
) -> BoundReport:
    """Evaluate every bound whose parameters were supplied."""
    report = BoundReport(
        n=n, q=q, d=d, weight=weight, lam=lam, eps=None if eps is None else float(eps)
    )
    if d is not None:
        report.gv = gv_bound(n, q, d)
        report.linear_scale = linear_scale_hcc(n, q, d)
        if eps is not None:
            try:
                report.hcc_gv = hcc_gv_bound(n, q, d, eps)
            except DivisionDomainError as exc:
                report.hcc_gv_note = str(exc)
        if weight is not None:
            report.levenshtein = levenshtein_bound(n, weight, d)
            report.linear_scale_cw = linear_scale_ooc(n, weight, d)
    if lam is not None and eps is not None:
        try:
            report.fhs_gv = fhs_gv_bound(n, q, lam, eps)
        except DivisionDomainError as exc:
            report.fhs_gv_note = str(exc)
    if eps is not None:
        with mpmath.workdps(_DPS):
            tail = mpmath.exp(-(_real(Fraction(eps)) ** 2) * n / 2)
        report.mcdiarmid_terms = [(n - 1, tail)]
    return report
