import gc
import sys

from .cli import main


def run() -> None:
    """Run the command that ``sys.argv`` names and exit with its status: the one
    process entry, of ``python -m dpe_multipath`` and the ``dpe-multipath`` script.

    The heap is frozen before exit, so the interpreter's final collections no
    longer walk and free the module-level objects of numpy and the package that
    sit in reference cycles; the OS reclaims them with the process.  Exit still
    flushes the standard streams and runs ``atexit``, and every file a command
    writes is closed by then.  ``cli.main`` never freezes: it also runs in-process.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
