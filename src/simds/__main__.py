"""`python -m simds`: the command-line front end of `simds.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
