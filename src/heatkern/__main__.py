"""``python -m heatkern``: the command-line interface of :mod:`heatkern.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
