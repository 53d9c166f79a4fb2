"""``python -m rafpref``: the ``rafpref`` command, without installing it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
