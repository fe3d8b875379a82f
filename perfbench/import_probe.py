"""Time one import of numpy and rootiso in a fresh interpreter.

    python3 perfbench/import_probe.py <src dir>

Prints ``[wall seconds, scaled seconds]`` as JSON (see ``speed.py``).
``run.py`` starts this a few times per run and takes the median, since a
single import's time moves with the state of the file cache and the host.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from speed import Clock  # noqa: E402


def import_package(src: str):
    sys.path.insert(0, src)
    import numpy

    import rootiso
    import rootiso.cli
    import rootiso.experiments

    return numpy, rootiso


if __name__ == "__main__":
    clock = Clock()
    _, wall, scaled = clock.time(lambda: import_package(sys.argv[1]))
    print(json.dumps([wall, scaled]))
