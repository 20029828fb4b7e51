#!/usr/bin/env python3
"""Regenerate tests/data/classify_reports.json: the verdict report
(``classify(system).as_dict()``, as ``phs classify`` prints it) of every
fixture, keyed by file name and written as JSON with sorted keys.  The
tests hold booleans, integers, None and notes exactly and floats within
1e-12 relative, since the last bits of a float can differ between BLAS
builds; CI regenerates the file and fails on any diff, so that a change
of arithmetic on its build shows there.

    PYTHONPATH=src python scripts/make_classify_reports.py
"""

import argparse
import json
from pathlib import Path

from phs import classify, load_system

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "classify_reports.json"


def main(argv=None) -> None:
    """Regenerate what the module docstring names; any argument but --help
    is refused."""
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    reports = {path.name: classify(load_system(path)).as_dict()
               for path in sorted((ROOT / "fixtures").glob("*.json"))}
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
