"""Run the command line front end: ``python -m mvmodel``."""

from .cli import entry

if __name__ == "__main__":
    entry()
