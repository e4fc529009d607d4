"""Tour of the two foundation layers: jets of order 2 (and 3) and the
expression language that scene files use for coordinate functions."""

import numpy as np

from prodsub import jets
from prodsub.exprlang import eval_jet, free_vars, parse, to_source

# A 2-jet carries value, gradient and Hessian through arithmetic exactly.
x = jets.jet_var(0, 3.0, m=2)
y = jets.jet_var(1, -1.5, m=2)
p = x * x * y + jets.sin(x * y)
print("p = x^2 y + sin(xy) at (3, -1.5)")
print("  value:", p.value)
print("  grad :", p.grad)
print("  hess :\n", p.hess)

# Seeds of order 3 add the third derivatives; value, gradient and Hessian
# are those of the 2-jet bit for bit.  The finite-difference oracle (central
# differences with one Richardson step) agrees with the exact derivatives.
field = lambda u: np.array([np.exp(np.sin(u[0]))])
d = jets.fd_gradient(field, np.array([0.7]), 0)
jet = jets.exp(jets.sin(jets.jet_var(0, 0.7, m=1, order=3)))
print("\nfd vs jet derivative of exp(sin u) at 0.7:", d[0], "vs", jet.grad[0])
print("third derivative of exp(sin u) at 0.7:", jet.d3.ravel()[0])

# The expression language: '^' is right-associative and binds tighter than
# unary minus, so -u1^2 evaluates to -(u1^2).
for src in ("2+3*4", "-u1^2", "2^3^2", "b*cos(s/b)"):
    ast = parse(src)
    print(f"\n{src!r}")
    print("  canonical print:", to_source(ast))
    print("  free variables :", sorted(free_vars(ast)))
# An expression that reads no chart variable folds to a number: here u1 is
# bound as a parameter, and the value is that of plain float arithmetic.
folded = eval_jet(parse("-u1^2"), {"s": jets.jet_var(0, 0.0, m=1)}, {"u1": 3.0})
print("\n-u1^2 at u1=3:", float(folded.value))
j = eval_jet(
    parse("b*cos(s/b)"),
    {"s": jets.jet_var(0, 0.0, m=1)},
    {"b": 0.6},
)
print("b*cos(s/b) jet at s=0:", j.value, j.grad, j.hess.ravel())
