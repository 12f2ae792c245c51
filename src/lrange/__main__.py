"""``python -m lrange``: the entry point of the ``lrange`` console script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
