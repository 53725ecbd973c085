"""Entry point for ``python -m mplindex``; see cli for the commands."""

from .cli import main

if __name__ == "__main__":
    main()
