"""``python -m afmgate``: the command line of ``afmgate.cli``."""

import sys

from .cli import main

if __name__ == "__main__":  # a spawned worker process imports this module as __mp_main__
    sys.exit(main())
