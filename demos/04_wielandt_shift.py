"""
Wielandt shift acceleration
===========================

Folding chi nu-fission / k_e into the transport operator shrinks the
dominance ratio of the power iteration: the flux-change norms fall off a
cliff instead of grinding down geometrically.  The converged k_eff is the
same either way; only the path changes.  With the shift the per-material
matrices pick up complex eigenvalue pairs, which the block spectra carry
as 2x2 rotation-scaling blocks.
"""

from dataclasses import replace

import numpy as np

from slab_sn import (assemble_A, block_diagonalize, builtin_problem_path,
                     gauss_legendre, load_problem, power_iteration)

problem = load_problem(builtin_problem_path("pincell_reflector"))

results = {}
for ke in (None, 1.3):
    config = replace(problem.config, sn_order=16, ke=ke)
    results[ke] = power_iteration(problem.geometry, problem.materials, config)

plain, shifted = results[None], results[1.3]
print(f"unshifted : k = {plain.k_eff:.6f} in {plain.iterations} iterations")
print(f"ke = 1.3  : k = {shifted.k_eff:.6f} in {shifted.iterations} iterations")
print(f"k difference: {(shifted.k_eff - plain.k_eff) * 1e5:.2f} pcm")

print("\niter   unshifted norm   shifted norm")
for i in range(max(plain.iterations, shifted.iterations)):
    left = f"{plain.history_norm[i]:.3e}" if i < plain.iterations else "-"
    right = f"{shifted.history_norm[i]:.3e}" if i < shifted.iterations else "-"
    print(f" {i + 1:3d}   {left:>14}   {right:>12}")

# the shifted core matrix really does go complex
quad = gauss_legendre(16)
spec = block_diagonalize(assemble_A(problem.materials["core"], quad, 1.0 / 1.3))
pairs = int(np.count_nonzero(spec.rates.imag > 0.0))
print(f"\nshifted core matrix: {pairs} complex pair(s) out of "
      f"{spec.rates.size} blocks")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.semilogy(np.arange(2, plain.iterations + 1), plain.history_norm[1:],
                "o-", label="unshifted")
    ax.semilogy(np.arange(2, shifted.iterations + 1), shifted.history_norm[1:],
                "s-", label="ke = 1.3")
    ax.set_xlabel("outer iteration")
    ax.set_ylabel("L2 norm of scalar-flux change")
    ax.legend()
    fig.tight_layout()
    fig.savefig("wielandt_convergence.png", dpi=120)
    print("wrote wielandt_convergence.png")
except ImportError:
    pass
