"""``python -m catfrac``: the command-line interface of :mod:`catfrac.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
