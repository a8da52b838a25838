"""``python -m mscca``: the command line interface."""

from .cli import entry_point

if __name__ == "__main__":
    entry_point()
