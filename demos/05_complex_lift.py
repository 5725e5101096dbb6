"""Lifting symplectic ETFs to complex ETFs and projecting back down.

Symplectic Grams are the imaginary parts of complex ETF Grams with special
signature matrices: purely imaginary entries for square ETFs, entries in
{0, beta, conj(beta)} for cores.  Realifying the complex synthesis matrix
(stacking real and imaginary row parts) recovers a symplectic frame whose
Gram is proportional to the one we started from.
"""

import numpy as np

from sympetf import (
    beta_constant,
    core_lift_scale,
    gram,
    hadamard_to_etf_core,
    lift_core,
    lift_square,
    omega,
    realify,
    seed_hadamard,
    synthesis_from_signature,
)

np.set_printoptions(precision=4, suppress=True, linewidth=120)

print("square lift of the 2x2 identity-frame Gram (omega):")
gram_c, q = lift_square(omega(2))
print("complex Gram =\n", gram_c)
print("signature (purely imaginary) =\n", q)
psi = synthesis_from_signature(q, 1)
print("complex synthesis =\n", psi)
real = realify(psi)
print("realified synthesis =\n", real)
print("Gram of the realification =\n", gram(real))

d = 2
k3 = hadamard_to_etf_core(seed_hadamard(4))
print("\ncore lift of the (2,3) ETF Gram; beta =", beta_constant(d))
q3 = lift_core(k3)
print("signature =\n", q3)
print("quadratic residual:", np.linalg.norm(q3 @ q3 - q3 - 2 * np.eye(3)))
psi3 = synthesis_from_signature(q3, 1)
real3 = realify(psi3)
alpha = core_lift_scale(d) * beta_constant(d).imag
print("cycle closes: max |gram(realified) - alpha*k| =",
      np.max(np.abs(gram(real3) - alpha * k3)))

d = 6
k7 = hadamard_to_etf_core(seed_hadamard(8))
q7 = lift_core(k7)
psi7 = synthesis_from_signature(q7, 3)
alpha = core_lift_scale(d) * beta_constant(d).imag
print("\nsame cycle at d=6:",
      np.max(np.abs(gram(realify(psi7)) - alpha * k7)))
