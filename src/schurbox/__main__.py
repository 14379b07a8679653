"""``python -m schurbox``: the command-line interface of :mod:`schurbox.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
