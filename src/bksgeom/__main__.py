"""``python -m bksgeom``: the ``bksgeom`` command line of :mod:`bksgeom.cli`."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
