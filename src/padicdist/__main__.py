"""``python -m padicdist``: the same command line as ``padicdist``."""

import sys

from .cli import main

sys.exit(main())
