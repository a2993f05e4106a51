"""Console launcher: the entry point of the `mcvar` script."""
import sys

from .cli import main


def entry() -> None:
    sys.exit(main())
