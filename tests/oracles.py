"""Independent oracles of the power construction that live only in the
tests: each computes by another route what ``power_solution`` builds by
the h-recursion, and no code in the package calls one."""

from ybe import perm as pm
from ybe import power as pw
from ybe import solution as sol


def power_solution_n2_direct(s, x1, x2, y1, y2) -> tuple[int, int]:
    """Closed n=2 formula:
    (σ_{x₁}σ_{x₂}(y₁), σ⁻¹_{σ_{x₁}σ_{x₂}(y₁)} σ_{x₁}σ_{x₂}σ_{y₁}(y₂))."""
    pw.check_tuple(s.m, (x1, x2, y1, y2))
    prod = pm.compose(s.sigma[x1], s.sigma[x2])
    first = prod[y1]
    second = pm.inverse(s.sigma[first])[prod[s.sigma[y1][y2]]]
    return first, second


def braid_words(s, xbar, ybar) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair (u, v) of words that r gives when the word x̄ passes the
    word ȳ (Gateva-Ivanova–Majid 2008): in the word x̄ȳ, each xᵢ, the
    last first, is moved right past the |ȳ| letters after it, one move
    of r on two neighbouring letters each, so |x̄|·|ȳ| moves in all. By
    the braid relation any other such order of moves gives the same
    pair."""
    word = list(xbar) + list(ybar)
    for i in reversed(range(len(xbar))):
        for j in range(i, i + len(ybar)):
            word[j], word[j + 1] = sol.r_apply(s, word[j], word[j + 1])
    return tuple(word[: len(ybar)]), tuple(word[len(ybar) :])
