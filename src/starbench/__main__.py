"""``python -m starbench VERB ...``: the command line of the ``starbench``
script, runnable from a checkout with ``PYTHONPATH=src``."""

from starbench.cli import main_entry

if __name__ == "__main__":
    main_entry()
