"""``python -m primopt``: the same command line as the ``primopt`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
