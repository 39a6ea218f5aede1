#!/usr/bin/env python3
"""Enumerate singular vectors degree by degree and print each generator.

Usage: scan_singular.py [MAX_DEGREE]   (default 4; up to degree 8 takes 11-14 s with
Python 3.11 on 2 cores)
"""

import sys

from e6poly.polyops import format_poly
from e6poly.singular import enumerate_singular


def main() -> None:
    max_degree = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    for degree in range(max_degree + 1):
        scan = enumerate_singular(degree)
        print(f"degree {degree}: {scan.total} singular line(s)")
        for weight, basis in scan.bases:
            for vec in basis:
                body = format_poly(vec)
                if len(body) > 100:
                    body = body[:97] + "..."
                print(f"  weight {weight} (dim {len(basis)}): {body}")


if __name__ == "__main__":
    main()
