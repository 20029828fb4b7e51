#!/usr/bin/env python3
"""Regenerate tests/data/campaign_reports.json: the agreement_campaign
reports the tests pin, one per n in NS and (count, seed) in RUNS, written
as JSON with sorted keys.

    PYTHONPATH=src python scripts/make_campaign_reports.py
"""

import argparse
import json
from pathlib import Path

from phs import agreement_campaign

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "campaign_reports.json"
NS = (1, 2, 3, 4, 6)
# (count, seed): acceptance criteria 4 and 7, and a small set for a quick test
RUNS = ((1000, 42), (200, 7), (100, 0))


def key(n: int, count: int, seed: int) -> str:
    return f"n={n} count={count} seed={seed}"


def main(argv=None) -> None:
    """Regenerate what the module docstring names; any argument but --help
    is refused."""
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    reports = {key(n, count, seed): agreement_campaign(n, count, seed)
               for count, seed in RUNS for n in NS}
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT.relative_to(OUT.parents[2])}")


if __name__ == "__main__":
    main()
