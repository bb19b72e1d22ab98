"""``python -m hybridmt``, the same command as the ``hybridmt`` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
