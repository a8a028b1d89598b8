"""Calibration child: time the calibration unit every
``HostSpeed.INTERVAL_S`` seconds until standard input closes, printing
``<start> <seconds>`` per unit (``time.perf_counter`` readings).  See
``common.Calibrator``."""

import select
import sys
import time

from common import HostSpeed, _calibration_unit


def main() -> int:
    while True:
        start = time.perf_counter()
        _calibration_unit()
        print(start, time.perf_counter() - start, flush=True)
        ready, _, _ = select.select([sys.stdin], [], [], HostSpeed.INTERVAL_S)
        if ready:                       # end of input: the client is done
            return 0


if __name__ == "__main__":
    sys.exit(main())
