"""``python -m ccmatrix``: the command-line interface of :mod:`ccmatrix.cli`."""

import sys

from .cli import main

sys.exit(main())
