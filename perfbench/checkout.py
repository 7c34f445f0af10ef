"""Locate the library sources of the checkout this benchmark lives in.

The benchmark always measures ``<checkout>/src/tiltbound``, never an
installed copy, so it refuses to run when those sources are missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingLibrary(RuntimeError):
    pass


def use_checkout_src() -> None:
    """Put ``<checkout>/src`` first on sys.path; raise if the package is absent."""
    if not (SRC / "tiltbound" / "__init__.py").is_file():
        raise MissingLibrary(f"no tiltbound package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tiltbound

    if Path(tiltbound.__file__).resolve().parent != SRC / "tiltbound":
        raise MissingLibrary(f"tiltbound imported from {tiltbound.__file__}, not {SRC}")
