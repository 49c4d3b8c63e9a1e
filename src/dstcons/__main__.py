"""``python -m dstcons``: the ``dstcons`` command."""

from .cli import main

if __name__ == "__main__":
    main()
