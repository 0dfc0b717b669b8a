"""``python -m pairflip``: the same command line as the ``pairflip`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
