"""``python -m iotdraw``: the same command line as the ``iotdraw`` script."""

from .cli import run

if __name__ == "__main__":
    run()
