"""Time one set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed> <workdir>

Prints the reference seconds (see calibration.py) from before
``import blockproj`` to the end of the workload's set-up: building its
problems, schedules, policies and configs, and on the CLI workload running
``blockproj gen`` and writing the config.  ``run.py`` starts it with
``src`` on PYTHONPATH.
"""

import sys

import calibration


def setup():
    from workloads import WORKLOADS  # imports blockproj

    WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), sys.argv[3])


print(calibration.timed(setup)[1])
