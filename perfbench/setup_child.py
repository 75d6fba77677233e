"""Set up one configuration the way ``liecenter verify`` does before its
first suite, in a fresh process, and run no suite.

    python3 perfbench/setup_child.py verify --algebra f4-nil --char 3 ...

It imports the package, builds the structure table (with the builder's own
validation), checks the characteristic, and builds the invariant family with
its elements over the configuration's field.
"""

from __future__ import annotations

import sys

from liecenter import cli, invariants
from liecenter.exactalg import GF, QQ


def main() -> int:
    args = cli.build_parser().parse_args(sys.argv[1:])
    table, _ = cli.resolve_algebra(args)
    cli.check_char(table, args.char)
    family = invariants.build_family(table)
    family.elements(QQ if args.char == 0 else GF(args.char))
    return 0


if __name__ == "__main__":
    sys.exit(main())
