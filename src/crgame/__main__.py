"""``python -m crgame``: the ``crgame`` command line."""

import sys

from .cli import main

sys.exit(main())
