#!/usr/bin/env python3
"""Regenerate the bundled dataset files from their builders in
``resloc.datasets.BUILDERS``: ``s2xs2-t2`` and ``s2cubed-su2`` are the
smallest members of the families ``sphere_product`` and
``sphere_product_diagonal``.

Run from anywhere; writes into src/resloc/data/ next to this script's parent.
"""

import json
import pathlib

from resloc.datasets import BUILDERS, dataset_to_json

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "resloc" / "data"


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    for name, build in BUILDERS.items():
        obj = dataset_to_json(build())
        path = DATA / f"{name}.json"
        path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
