#!/usr/bin/env python3
"""Regenerate tests/data/sim_histories.json: simulation histories the tests
pin, for every fixture at each nx in NXS (t_final = 1, p_norms = (1, 2, 3),
allow_illposed, the initial field of x0).  Each entry keeps about ROWS rows of
every history column plus the last row, the final field x at every STRIDE-th
node as real and imaginary parts, and max_bc_residual.  Written as JSON
with sorted keys.  The tests hold the simulator to these values within
1e-12 of each column's largest magnitude, so a change of arithmetic that
keeps the scheme must pass without regenerating them.

    PYTHONPATH=src python scripts/make_sim_histories.py
"""

import argparse
import json
from pathlib import Path

import numpy as np

import phs

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "sim_histories.json"
NXS = (64, 512)
T_FINAL = 1.0
P_NORMS = (1.0, 2.0, 3.0)
ROWS = 32
STRIDE = 8


def x0(n: int):
    """A smooth complex field with a different profile in each component."""
    j = np.arange(n)

    def field(z):
        return 0.5 + np.cos(np.pi * (j + 1) * z) + 0.3j * np.sin(2.0 * np.pi * z + j)

    return field


def key(name: str, nx: int) -> str:
    return f"{name} nx={nx}"


def simulate(name: str, nx: int) -> phs.SimState:
    system = phs.load_system(ROOT / "fixtures" / f"{name}.json")
    config = phs.SimConfig(nx=nx, t_final=T_FINAL, p_norms=P_NORMS)
    return phs.run(system, config, x0(system.n), allow_illposed=True)


def kept_rows(count: int) -> list[int]:
    """About ROWS evenly spaced row indices, and the last row."""
    return sorted(set(range(0, count, max(1, count // ROWS))) | {count - 1})


def entry(state: phs.SimState) -> dict:
    rows = kept_rows(len(state.history["t"]))
    x = state.x()[::STRIDE]
    return {"rows": rows,
            "history": {c: [v[i] for i in rows] for c, v in state.history.items()},
            "x_re": x.real.tolist(), "x_im": x.imag.tolist(),
            "max_bc_residual": state.max_bc_residual}


def main(argv=None) -> None:
    """Regenerate what the module docstring names; any argument but --help
    is refused."""
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    names = sorted(p.stem for p in (ROOT / "fixtures").glob("*.json"))
    histories = {key(name, nx): entry(simulate(name, nx)) for name in names for nx in NXS}
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(histories, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
