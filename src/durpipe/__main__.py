"""`python -m durpipe`: the `durpipe` command line, from a source checkout too."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
