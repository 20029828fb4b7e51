"""Well-posedness of a vibrating string can depend on its material profile.

In (momentum, strain) variables the string is a first-order system with
P1 = [[0, 1], [1, 0]] and H(z) = diag(1/rho(z), T(z)).  With the boundary
matrices W1 = I, W0 = diag(-1, 1), the generation test reduces to linear
independence of the two vectors

    (gamma(1), T(1))      and      (gamma(0), T(0)),      gamma = sqrt(T/rho).

Uniform material data make them parallel: no C0-semigroup, even though the
boundary conditions look perfectly reasonable.  A stiffening modulus
T(z) = 1 + z separates them and restores well-posedness.  Neither system
is a contraction, so this is invisible to energy arguments.
"""

import numpy as np

import phs


def string_system(t_coeffs):
    coeffs = np.zeros((2, 2, len(t_coeffs)), dtype=complex)
    coeffs[0, 0, 0] = 1.0
    coeffs[1, 1, :] = t_coeffs
    field = phs.CoefficientField.polynomial(coeffs)
    wb = np.hstack([np.eye(2), np.diag([-1.0, 1.0])])
    return phs.make_system([[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2)), field, wb)


def report(label, system):
    v = phs.classify(system)
    _, _, k = phs.direct_sum_check(system)
    print(f"--- {label}")
    print(f"  contraction={v.contraction}  unitary={v.unitary_group}  C0={v.c0_semigroup}")
    print(f"  boundary closure matrix K =\n{np.array_str(k.real, precision=4)}")
    print(f"  sigma_min(K) = {v.direct_sum_min_singular_value:.4e}")
    for zeta in (0.0, 1.0):
        split = phs.eigensplit(system, zeta)
        print(f"  z={zeta:.0f}: wave speeds {split.lam[0]:+.4f}/{split.theta[0]:+.4f}, "
          f"Z+ direction {np.array_str(split.z_plus[:, 0].real, precision=4)}")
    print()


def main():
    report("uniform string (T = rho = 1)", string_system([1.0]))
    report("stiffening string (T = 1 + z)", string_system([1.0, 1.0]))
    print("uniform data: the two K columns are parallel -> K singular -> not well posed")
    print("stiffening data: columns independent -> C0-semigroup exists")


if __name__ == "__main__":
    main()
