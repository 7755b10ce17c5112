"""`python -m elgot`: the same command line as the `elgot` script."""
from .cli import main

raise SystemExit(main())
