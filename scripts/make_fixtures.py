#!/usr/bin/env python3
"""Regenerate the JSON model fixtures in fixtures/.

Each file encodes one parametrized boundary-condition case with a known
classification (see tests/test_fixtures.py for the expected verdicts).
"""

import argparse
import json
from pathlib import Path

import numpy as np

from phs.model import matrix_to_pairs

OUT = Path(__file__).resolve().parent.parent / "fixtures"


def transport(w1: float, w0: float) -> dict:
    """Scalar transport d/dt x = d/dz (H x) with w1 (Hx)(1) + w0 (Hx)(0) = 0."""
    return {
        "n": 1,
        "p1": matrix_to_pairs([[1.0]]),
        "p0": matrix_to_pairs([[0.0]]),
        "h": {"kind": "constant", "value": matrix_to_pairs([[1.0]])},
        "wb_tilde": matrix_to_pairs([[w1, w0]]),
    }


def transport_variable_h(w1: float, w0: float) -> dict:
    """Same boundary conditions with the non-constant density H(z) = 1 + z/2."""
    doc = transport(w1, w0)
    doc["h"] = {"kind": "polynomial", "coeffs": [[[[1.0, 0.0], [0.5, 0.0]]]]}
    return doc


def string(t_coeffs) -> dict:
    """Vibrating string in (momentum, strain) variables: P1 = [[0,1],[1,0]],
    H = diag(1/rho, T) with rho = 1, boundary W1 = I, W0 = diag(-1, 1)."""
    zero = [[0.0, 0.0]]
    coeffs = [
        [[[1.0, 0.0]], zero],
        [zero, [[c, 0.0] for c in t_coeffs]],
    ]
    wb = np.hstack([np.eye(2), np.diag([-1.0, 1.0])])
    return {
        "n": 2,
        "p1": matrix_to_pairs([[0.0, 1.0], [1.0, 0.0]]),
        "p0": matrix_to_pairs(np.zeros((2, 2))),
        "h": {"kind": "polynomial", "coeffs": coeffs},
        "wb_tilde": matrix_to_pairs(wb),
    }


def network_three_lines() -> dict:
    """Three coupled transport lines: x1(1)=0, x2(1)=x1(0)+x3(0), x3(1)=x2(0).
    Energy can grow in L2 (boundary form 2 Re x1(0) conj(x3(0)) is indefinite)
    although the problem is well posed."""
    w0 = np.array([[0, 0, 0], [-1, 0, -1], [0, -1, 0]], dtype=float)
    return {
        "n": 3,
        "p1": matrix_to_pairs(np.eye(3)),
        "p0": matrix_to_pairs(np.zeros((3, 3))),
        "h": {"kind": "constant", "value": matrix_to_pairs(np.eye(3))},
        "wb_tilde": matrix_to_pairs(np.hstack([np.eye(3), w0])),
    }


def grid_density_transport() -> dict:
    """Transport with a sampled density grid (H(0)=1, H(0.5)=2, H(1)=3)."""
    doc = transport(2.0, 1.0)
    doc["h"] = {
        "kind": "grid",
        "zetas": [0.0, 0.5, 1.0],
        "values": [matrix_to_pairs([[v]]) for v in (1.0, 2.0, 3.0)],
    }
    return doc


FIXTURES = {
    "transport_w1_1_w0_0.json": transport(1.0, 0.0),
    "transport_w1_2_w0_1.json": transport(2.0, 1.0),
    "transport_w1_1_w0_1.json": transport(1.0, 1.0),
    "transport_w1_1_w0_m1.json": transport(1.0, -1.0),
    "transport_w1_1_w0_2.json": transport(1.0, 2.0),
    "transport_w1_0_w0_1.json": transport(0.0, 1.0),
    "transport_variable_h.json": transport_variable_h(2.0, 1.0),
    "transport_grid_h.json": grid_density_transport(),
    "string_uniform.json": string([1.0]),
    "string_stiffening.json": string([1.0, 1.0]),
    "network_three_lines.json": network_three_lines(),
}


def main(argv=None) -> None:
    """Regenerate what the module docstring names; any argument but --help
    is refused."""
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    OUT.mkdir(exist_ok=True)
    for name, doc in FIXTURES.items():
        (OUT / name).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote fixtures/{name}")


if __name__ == "__main__":
    main()
