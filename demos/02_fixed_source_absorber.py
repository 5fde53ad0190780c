"""
Fixed-source solve against a closed form
========================================

A vacuum-bounded pure absorber with a constant isotropic source has the
textbook solution psi(x, mu) = (q / sigma_t) (1 - exp(-sigma_t d / |mu|))
with d the distance to the inflow boundary.  The analytic solver
reproduces it to round-off because each region's solution is exact;
only the source representation is discretized.
"""

import numpy as np

from slab_sn import (BoundaryCondition, MaterialXS, SlabGeometry, SolverConfig,
                     SourceField, build_operator, evaluate_flux,
                     solve_fixed_source)

sigma_t, length, q = 1.3, 4.0, 0.75

absorber = MaterialXS("absorber", sigma_t=[sigma_t], sigma_s=[[0.0]],
                      nu_sigma_f=[0.0], chi=[0.0])
geometry = SlabGeometry(edges=np.array([0.0, length]), materials=("absorber",),
                        bc_left=BoundaryCondition.vacuum(),
                        bc_right=BoundaryCondition.vacuum())

# the analytic operator at S8 on 50 source cells, built once; it holds the
# quadrature and the mesh it was built on
config = SolverConfig(sn_order=8, fine_mesh_size=50)
operator = build_operator(geometry, {"absorber": absorber}, config)
quad, mesh = operator.quad, operator.mesh
# emission density 2q per cm^3 puts q on each ordinate (the angular
# measure on [-1, 1] has total weight 2)
source = SourceField(mesh, np.full((50, 1), 2.0 * q))
solution = solve_fixed_source(operator, source)

xs = np.linspace(0.0, length, 201)
flux = evaluate_flux(operator, solution, xs)

d = np.where(quad.mu[None, :] > 0, xs[:, None], length - xs[:, None])
exact = (q / sigma_t) * (1.0 - np.exp(-sigma_t * d / np.abs(quad.mu[None, :])))
print("max |psi - closed form| =", np.max(np.abs(flux.psi - exact)))

print("\n   x      phi(x)")
for i in range(0, 201, 25):
    print(f"  {xs[i]:4.1f}   {flux.phi[i, 0]:.6f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(xs, flux.phi[:, 0], label="scalar flux")
    for j in (0, quad.n - 1):
        ax.plot(xs, flux.psi[:, j], "--", label=f"psi, mu={quad.mu[j]:+.3f}")
    ax.set_xlabel("x (cm)")
    ax.set_ylabel("flux")
    ax.legend()
    fig.tight_layout()
    fig.savefig("absorber_flux.png", dpi=120)
    print("\nwrote absorber_flux.png")
except ImportError:
    pass
