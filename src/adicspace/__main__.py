"""``python -m adicspace``: the command line, as the ``adicspace`` console script runs it."""

import sys

from .cli import main

sys.exit(main())
