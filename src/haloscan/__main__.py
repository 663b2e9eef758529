"""``python -m haloscan``: the command line, also without an install."""

import sys

from .cli import main

sys.exit(main())
