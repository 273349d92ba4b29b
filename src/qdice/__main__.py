"""`python -m qdice ARGS` runs the command-line front end, like `qdice ARGS`."""

from .cli import main

if __name__ == "__main__":
    main()
