"""Half-line Laplacian demo: closed-form Weyl functions, the resolvent
coefficient r(z) = -1/(c + i sqrt(z)) = sqrt(2) p12(z) near the bound state
of the mixed boundary condition, and quadrature convergence of the
Green-kernel resolvent.

Usage:
    python3 scripts/halfline_demo.py --alpha2 0.6
"""

import argparse
import math
import sys

import numpy as np

from kreinkit.halfline import (
    DEFAULT_Z,
    HalflineScenario,
    QuadratureGrid,
    dirichlet_resolvent_quadrature,
    m1_halfline,
    m2_halfline,
    p12_halfline,
    quadrature_roundtrip,
    verify_halfline,
)

SQRT2 = math.sqrt(2.0)


def value_table(scen: HalflineScenario) -> None:
    print(f"alpha2 = {scen.alpha2:.6f}, c = (1 - tan(alpha2))/sqrt(2) "
          f"= {scen.c:.6f}")
    print(f"{'z':>12}  {'m1(z)':>22}  {'m2(z)':>22}  {'p12(z)':>22}")
    for z in DEFAULT_Z:
        m1 = m1_halfline(z)
        m2 = m2_halfline(z, scen)
        p = p12_halfline(z, scen)
        print(f"{z:>12}  {m1:>22.6f}  {m2:>22.6f}  {p:>22.6f}")


def bound_state_scan(scen: HalflineScenario) -> None:
    if scen.c <= 0.0:
        print(f"\nc = {scen.c:.6f} <= 0: no bound state on the negative axis")
        return
    pole = -scen.c ** 2
    print(f"\nbound state expected at z = -c^2 = {pole:.6f}")
    print(f"{'z':>12}  {'|resolvent coefficient|':>24}")
    for off in (0.4, 0.2, 0.1, 0.05, 0.025):
        z = pole + off * abs(pole)
        r = SQRT2 * p12_halfline(z, scen)
        print(f"{z:>12.6f}  {abs(r):>24.4e}")


def quadrature_convergence(z: complex) -> None:
    # real z < 0 off the spectrum, z != -1, so the reference below is finite
    print(f"\nquadrature round trip at z = {z} (closed-form reference)")
    print(f"{'nodes':>8}  {'simpson':>12}")
    for nodes in (250, 500, 1000, 2000, 4000):
        grid = QuadratureGrid(nodes=nodes, residual_tol=1.0)
        x = grid.points()
        f = np.exp(-x)
        # (-d^2/dx^2 - z) u = e^{-x} with u(0) = 0, u bounded
        u_exact = (np.exp(-np.sqrt(-z) * x) - np.exp(-x)) / (1.0 + z)
        u = dirichlet_resolvent_quadrature(f, z, grid)
        print(f"{nodes:>8}  {float(np.max(np.abs(u - u_exact))):>12.3e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha2", type=float, default=3.0 * math.pi / 4.0,
                    help="boundary angle (not pi/2 mod pi)")
    args = ap.parse_args(argv)

    scen = HalflineScenario(args.alpha2)
    value_table(scen)
    bound_state_scan(scen)
    quadrature_convergence(-2.0 + 0.0j)

    print("\nfull verification over the default 8x8 grid:")
    report = verify_halfline()
    for name in sorted(report):
        print(f"  {name:<22} {report[name]:.3e}")
    roundtrip = quadrature_roundtrip()
    print(f"  {'quadrature_roundtrip':<22} {roundtrip:.3e}")
    ok = all(v <= 1e-10 for v in report.values()) and roundtrip <= 1e-6
    print("pass" if ok else "fail")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
