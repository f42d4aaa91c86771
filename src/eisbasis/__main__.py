"""``python -m eisbasis``: the same command line as the ``eisbasis`` script."""

from .cli import run

if __name__ == "__main__":
    run()
