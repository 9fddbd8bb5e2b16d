"""`python -m bernlab ARGS` runs the command line, as `bernlab ARGS` does."""

from .cli import main

if __name__ == "__main__":
    main()
