"""``python -m mup``: the ``mup`` command line."""

import sys

from mup.cli import main

if __name__ == "__main__":
    sys.exit(main())
