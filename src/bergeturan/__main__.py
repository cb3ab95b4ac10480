"""Run the command line with ``python -m bergeturan``."""

from .cli import run

if __name__ == "__main__":
    run()
