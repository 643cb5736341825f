"""Instance measures and running-time arithmetic.

A measure is alpha*k + beta1*n1 + beta2*n2 + beta3*n3 over exact rationals,
where n_i counts degree-i vertices.  Two parameterizations are supported:
n-mode (alpha = 0) and k-mode (beta3 = 0, beta1/beta2 non-positive), each
with its own feasibility inequality chain guaranteeing that no
simplification rule ever increases the measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Collection, Iterable, Sequence

from .errors import InputDomainError
from .graphs import Graph, Instance

BISECTION_TOL = 1e-9


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise InputDomainError("measure weights must be exact (str, int or Fraction)")
    return Fraction(x)


@dataclass(frozen=True)
class Measure:
    alpha: Fraction
    beta1: Fraction
    beta2: Fraction
    beta3: Fraction
    mode: str  # "n" or "k"

    def __post_init__(self):
        if self.mode not in ("n", "k"):
            raise InputDomainError(f"mode must be 'n' or 'k', got {self.mode!r}")
        for name in ("alpha", "beta1", "beta2", "beta3"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    @cached_property
    def scaled(self) -> tuple[int, ...]:
        """(D, alpha*D, beta1*D, beta2*D, beta3*D) for D the least common
        denominator of the weights, over which every cost exponent is an integer."""
        ws = (self.alpha, self.beta1, self.beta2, self.beta3)
        dd = math.lcm(*(w.denominator for w in ws))
        return (dd, *(int(w * dd) for w in ws))

    def scaled_value(self, budget: int, counts: Sequence[int]) -> int:
        """D*(alpha*budget + sum beta_i*counts[i]) for D = scaled[0]: an
        integer of the measure's sign.  With degree counts it is D times an
        instance's measure; with -len(take) and take's degree shift, D times
        the change that taking take makes to it."""
        _, alpha, beta1, beta2, beta3 = self.scaled
        return alpha * budget + beta1 * counts[1] + beta2 * counts[2] + beta3 * counts[3]


MU1 = Measure(0, 0, 0, Fraction("0.106"), "n")
MU2 = Measure(Fraction("0.178"), Fraction("-0.0445"), Fraction("-0.089"), 0, "k")


def pure_k(alpha="1") -> Measure:
    return Measure(Fraction(alpha), 0, 0, 0, "k")


def degree_counts(g: Graph) -> list[int]:
    """The number of vertices of g of each degree 0..3."""
    counts = [0, 0, 0, 0]
    for v in g.low_degree():
        counts[g.degree(v)] += 1
    counts[3] = len(g) - counts[0] - counts[1] - counts[2]
    return counts


def degree_shift(
    degree: Callable[[int], int],
    neighbors: Callable[[int], Iterable[int]],
    take: Collection[int],
) -> tuple[list[int], dict[int, int]]:
    """How removing take changes the number of vertices of each degree 0..3
    under degree, and each neighbour left's number of edges into take: each
    taken vertex leaves its class, and each neighbour left drops by its
    edges into take."""
    dn = [0, 0, 0, 0]
    lost: dict[int, int] = {}
    for v in take:
        dn[degree(v)] -= 1
        for u in neighbors(v):
            if u not in take:
                lost[u] = lost.get(u, 0) + 1
    for u, k in lost.items():
        d = degree(u)
        dn[d] -= 1
        dn[d - k] += 1
    return dn, lost


def evaluate(m: Measure, inst: Instance) -> Fraction:
    """alpha*k + sum beta_i * (number of degree-i vertices)."""
    return Fraction(m.scaled_value(inst.budget, degree_counts(inst.graph)), m.scaled[0])


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violations: tuple[str, ...]


def check_feasibility(m: Measure) -> FeasibilityReport:
    """Evaluate the mode's inequality chain exactly; equality passes."""
    a, b1, b2, b3 = m.alpha, m.beta1, m.beta2, m.beta3
    if m.mode == "n":
        chain = [
            (a == 0, "alpha = 0 required in n-mode (alpha = {a})"),
            (b3 >= 0, "beta3 >= 0 required in n-mode (beta3 = {b3})"),
            (0 <= 3 * b1 / 4, "0 <= 3*beta1/4 violated (beta1 = {b1})"),
            (3 * b1 / 4 <= 3 * b2 / 4, "3*beta1/4 <= 3*beta2/4 violated ({b1} > {b2})"),
            (3 * b2 / 4 <= b3, "3*beta2/4 <= beta3 violated (3*{b2}/4 > {b3})"),
        ]
    else:
        chain = [
            (b1 <= 0, "beta1 <= 0 required in k-mode (beta1 = {b1})"),
            (b2 <= 0, "beta2 <= 0 required in k-mode (beta2 = {b2})"),
            (b3 == 0, "beta3 = 0 required in k-mode (beta3 = {b3})"),
            (-a / 2 <= b2, "-alpha/2 <= beta2 violated (-{a}/2 > {b2})"),
            (b2 <= -a / 3, "beta2 <= -alpha/3 violated ({b2} > -{a}/3)"),
            (-a / 2 - b2 / 2 <= b1, "-alpha/2 - beta2/2 <= beta1 violated (bound > {b1})"),
            (b1 <= a / 2 + 3 * b2 / 2, "beta1 <= alpha/2 + 3*beta2/2 violated ({b1} > bound)"),
        ]
    # a message is formatted only when its inequality fails
    bad = tuple(text.format(a=a, b1=b1, b2=b2, b3=b3) for holds, text in chain if not holds)
    return FeasibilityReport(not bad, bad)


def generation_admissible(m: Measure) -> FeasibilityReport:
    """Gate for rule generation.

    Accepts any measure passing the feasibility chain, plus the pure-k
    family (alpha > 0, all betas zero): every simplification rule decreases
    k or leaves it unchanged, so pure budget measures are simplification-safe
    even though the k-mode chain excludes beta2 = 0.
    """
    report = check_feasibility(m)
    if report.ok:
        return report
    if m.mode == "k" and m.alpha > 0 and m.beta1 == m.beta2 == m.beta3 == 0:
        return FeasibilityReport(True, ())
    return report


@dataclass(frozen=True)
class BranchVector:
    """Weighted measure decreases (w_i, d_i) of one branching rule."""

    entries: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        entries = tuple((Fraction(w), Fraction(d)) for w, d in self.entries)
        if not entries:
            raise InputDomainError("a branch vector needs at least one entry")
        for w, d in entries:
            if w < 0:
                raise InputDomainError(f"negative weight {w}")
            if d <= 0:
                raise InputDomainError(f"non-positive decrease {d}")
        object.__setattr__(self, "entries", entries)


def branching_number(v: BranchVector) -> float:
    """Smallest x >= 1 with sum w_i * x^(-d_i) <= 1, by bisection;
    InputDomainError when it is not a finite float."""
    try:
        entries = [(float(w), float(d)) for w, d in v.entries]
    except OverflowError:
        raise InputDomainError("branch vector entry too large for a float") from None

    def f(x: float) -> float:
        return sum(w * x ** (-d) for w, d in entries)

    if f(1.0) <= 1.0:
        return 1.0
    lo, hi = 1.0, 2.0
    while f(hi) > 1.0:
        hi *= 2.0
        if math.isinf(hi):
            raise InputDomainError("branching number is not a finite float")
    # lo and hi may become adjacent floats before they are BISECTION_TOL apart
    while hi - lo > BISECTION_TOL and lo < (mid := (lo + hi) / 2.0) < hi:
        if f(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def combine_bound(a: float, b: float, c: float) -> float:
    """d = 2c(a+b)/(a+2c); combines O*(e^(a*mu+b*k)) and O*(e^(c*n)) runtimes
    into O*(e^(d*k)) for vertex-deletion-closed graph classes."""
    if a < 0 or b < 0 or c < 0:
        raise InputDomainError("combine_bound needs non-negative arguments")
    if a + 2 * c == 0:
        raise InputDomainError("a + 2c must be positive")
    return 2 * c * (a + b) / (a + 2 * c)


# -- text form ---------------------------------------------------------------
#
# measure <mode> alpha=<r> b1=<r> b2=<r> b3=<r>


def format_measure(m: Measure) -> str:
    return f"measure {m.mode} alpha={m.alpha} b1={m.beta1} b2={m.beta2} b3={m.beta3}"


def parse_measure_tokens(tokens: Sequence[str]) -> Measure:
    """Parse ['k-mode', 'a=1', ...] or ['measure', 'n', 'alpha=0', ...]."""
    toks = [t for t in tokens if t != "measure"]
    if not toks:
        raise InputDomainError("empty measure specification")
    mode_tok = toks[0].lower()
    mode = {"n": "n", "k": "k", "n-mode": "n", "k-mode": "k"}.get(mode_tok)
    if mode is None:
        raise InputDomainError(f"unknown measure mode {toks[0]!r}")
    values = {"alpha": Fraction(0), "b1": Fraction(0), "b2": Fraction(0), "b3": Fraction(0)}
    alias = {"a": "alpha", "alpha": "alpha", "b1": "b1", "b2": "b2", "b3": "b3",
             "beta1": "b1", "beta2": "b2", "beta3": "b3"}
    for tok in toks[1:]:
        if "=" not in tok:
            raise InputDomainError(f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        name = alias.get(key.lower())
        if name is None:
            raise InputDomainError(f"unknown measure field {key!r}")
        values[name] = parse_rational(val, f"measure field {key!r}")
    return Measure(values["alpha"], values["b1"], values["b2"], values["b3"], mode)


def parse_rational(text: str, what: str) -> Fraction:
    """text as an exact rational such as 3, 0.2 or 1/5; InputDomainError,
    naming what, when it is not one."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputDomainError(f"{what} must be a rational, got {text!r}") from None
