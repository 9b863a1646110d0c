"""Stability under data perturbation, and the a-priori tail-sum check.

Two experiments on the mixed-quadratic preset sharing one Brownian bundle
per run: shift the drift by epsilon and watch the solution functionals
scale down with it, then swap Euler paths for exact-transition paths.
Finally the conditional tail sums E_i[sum_{j>=i} |Z_j|^2 dt_j] are
checked against the closed-form exponential bound.

    python3 demos/03_stability_and_diagnostics.py
"""

from qrbsde import lab
from qrbsde.model import build_preset
from qrbsde.regress import BasisSpec

spec = build_preset("P2-mixed-quadratic")
mc = lab.MCConfig(n_paths=10_000, seed=42, basis=BasisSpec(degree=6))

print("== drift shift b -> b + eps, N = 64 ==")
rep = lab.run_stability(spec, "drift-shift", [0.4, 0.2, 0.1, 0.05], mc, N=64)
print(f"{'eps':>6} {'dx_proxy':>10} {'D_Y':>10} {'D_Z':>10} {'D_K':>10} {'D_Y/dx':>8}")
for c in rep.rows():
    print(f"{c['eps']:>6.2f} {c['dx_proxy']:>10.2e} {c['D_Y']:>10.2e} "
          f"{c['D_Z']:>10.2e} {c['D_K']:>10.2e} {c['ratio_Y']:>8.4f}")
print(f"(both legs share the dW bundle, checksum {rep.dw_checksum[:12]}...)")

print()
print("== euler vs exact transitions, N = 8 .. 64 ==")
rep = lab.run_stability(spec, "euler-vs-exact", [8, 16, 32, 64], mc)
for c in rep.rows():
    print(f"N={c['N']:>3}  dx_proxy={c['dx_proxy']:.2e}  D_Y={c['D_Y']:.2e}")
print(f"slopes: dx {rep.slopes['dx_proxy'].slope:.2f}, "
      f"D_Y {rep.slopes['D_Y'].slope:.2f}")

print()
print("== conditional tail sums vs the exponential bound ==")
for name in ("P1-pure-quadratic", "P2-mixed-quadratic", "P3-lipschitz"):
    d = lab.run_diagnostics(build_preset(name), 64, mc)
    print(f"{name:<22} max tail sum {d.tail_sum_max:>8.4f}  "
          f"bound {d.bound_value:>8.2f}  passed={d.flags['within_bound']}")
