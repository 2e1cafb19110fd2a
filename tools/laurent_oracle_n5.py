"""Run the structure-constant oracle on the n = 5 Laurent contexts.

    python tools/laurent_oracle_n5.py

Builds the Laurent context of each regime at omega = 5 and at omega = 7/2
with 5 series terms (``default_truncation(5)``) and checks that the
constant terms of all 945^2 basis-word products reproduce the Brauer
product.  Prints one line per regime and omega with the CPU seconds of
the build and of the oracle, and exits 1 unless each run returns
{"ok": True, "pairs": 893025}.  The tier-1 tests run the oracle up to
n = 4 only; this run takes about ten seconds of CPU per regime and omega.
"""

import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from bmwfusion import (AlgebraContext, laurent_params,  # noqa: E402
                       structure_constant_oracle)

OMEGAS = (Fraction(5), Fraction(7, 2))
WANT = {"ok": True, "pairs": 945 ** 2}


def main():
    failed = 0
    for omega in OMEGAS:
        for regime in (1, 2):
            start = time.process_time()
            ctx = AlgebraContext(5, laurent_params(regime, omega, 5),
                                 verify=False)
            built = time.process_time()
            res = structure_constant_oracle(ctx, omega)
            done = time.process_time()
            ok = res == WANT
            failed += not ok
            print("%-4s regime %d omega=%s: %s (CPU: build %.2f s, oracle "
                  "%.2f s)" % ("ok" if ok else "FAIL", regime, omega, res,
                               built - start, done - built), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
