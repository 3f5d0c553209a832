"""The process entry of `python -m dihedral` and of the `dihedral` script."""

import gc
import sys

from .cli import main


def entry():
    # Everything built by the imports (numpy's modules included) lives until
    # exit; frozen, it is skipped by later collections and by the one at exit.
    # cli.main itself does not freeze, since callers run it in their own heap.
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
