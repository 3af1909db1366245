"""Exact confidence bounds from partial joint information.

With only the per-predicate confidences known, a formula's confidence is
pinned down to an interval: the min/max over every joint table compatible
with the constraints.  Supplying pairwise both-false confidences shrinks
the interval; asserting independence collapses it to a point.
"""

import markov_fuzzy as mf

AND3 = mf.and_function(3)
majority = mf.compile_formula(
    mf.parse_formula("(A & B) | (A & C) | (B & C)"), ["A", "B", "C"]
)

marginals = (0.8, 0.7, 0.6)
print("marginals:", marginals)

spec_plain = mf.PartialJointSpec(marginals=marginals)
print("conjunction, marginals only  :", mf.exact_bounds(spec_plain, AND3))
print("majority,    marginals only  :", mf.exact_bounds(spec_plain, majority))
print()

# Add pairwise information, taken here from the independent joint.
indep = mf.independent_product(list(marginals))
pairwise = {
    (i, j): float(mf.marginal(indep, [i, j]).probs[0])
    for i, j in ((1, 2), (1, 3), (2, 3))
}
spec_pairs = mf.PartialJointSpec(marginals=marginals, pairwise=pairwise)
print("with all pairwise q          :", mf.exact_bounds(spec_pairs, majority))

spec_indep = mf.PartialJointSpec(marginals=marginals, independent=True)
print("asserting full independence  :", mf.exact_bounds(spec_indep, majority))
print()

# For two predicates the interval endpoints are the classic extremal
# connectives, and the solver reproduces them exactly.
spec2 = mf.PartialJointSpec(marginals=(0.7, 0.6))
print("n=2 conjunction via solver   :", mf.exact_bounds(spec2, mf.and_function()))
print("n=2 conjunction closed form  :", mf.classic_binary_bounds(0.7, 0.6, "and"))
print()

# Only the parts of a compiled formula that do not split need a linear
# program.  Here every variable is read once, so the classic rules compose
# along the whole tree and the interval is exact far above the LP's
# 12-variable cap.  A known q inside each disjunction ties its two
# variables together, so each (a | b) is one part, whose two-variable table
# is fixed by its q (the q connective, no LP), and the and of the ten
# parts still composes by the classic rule.
names = [f"X{i}" for i in range(1, 21)]
text = " & ".join(f"({a} | {b})" for a, b in zip(names[::2], names[1::2]))
wide = mf.compile_formula(mf.parse_formula(text), names)
marginals20 = tuple(round(0.9 + 0.005 * i, 3) for i in range(20))
spec20 = mf.PartialJointSpec(marginals=marginals20)
print("20 variables, read once      :", mf.exact_bounds(spec20, wide))
pins = {
    (i, i + 1): mf.q_bounds(marginals20[i - 1], marginals20[i]).q_indep
    for i in range(1, 20, 2)
}
spec20_pins = mf.PartialJointSpec(marginals=marginals20, pairwise=pins)
print("  with q inside each (a | b) :", mf.exact_bounds(spec20_pins, wide))
print()

# An independent check: enumerate the vertices of the polytope of joint
# tables instead of running the LP.  The two routes must agree.
oracle = mf.brute_force_bounds(spec_plain, majority, grid_step=0.01)
exact = mf.exact_bounds(spec_plain, majority)
print(f"majority bounds, solver      : [{exact.lo:.4f}, {exact.hi:.4f}]")
print(f"majority bounds, enumeration : [{oracle.lo:.4f}, {oracle.hi:.4f}]")
