"""python -m christol: the same entry point as the christol script."""

from .cli import main

if __name__ == "__main__":
    main()
