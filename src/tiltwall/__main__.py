"""`python -m tiltwall`: the same front end as the `tiltwall` command."""

from .cli import main

if __name__ == "__main__":
    main()
