"""The simulator's output, pinned bit for bit.

For each registered scenario at duration scale 0.01 with two runs, every
trial's label, tag bytes and time bytes are hashed with sha256 and
compared with the digests below.  A refactor of the replay chain must
leave them unchanged; a change that is meant to move them (a new model,
a new seed scheme) re-records them and bumps ``ANALYSIS_VERSION``.

NumPy's ``Generator`` streams may change between releases (NEP 19), so
the digests hold only on the NumPy minor version they were recorded
with; on another one the test skips with the reason.

To re-record, print :func:`series_digests` for every scenario and paste
the output here together with ``np.__version__``'s ``major.minor``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments.scenarios import SCENARIOS, scenario
from repro.testbeds import Testbed

SCALE = 0.01
N_RUNS = 2
#: ``major.minor`` of the NumPy the digests were recorded with.
NUMPY_MINOR = "2.4"

GOLDEN = {
    "local-single": [
        "c1da3aa9b534c8fba97ebf4417ae3ed637411c45794d36cf5d94e0cd1712ad62",
        "2ba693e8b786f6cef91d0c4772a3d54e5b0aed92c08a5ed441969e7755040f5c",
    ],
    "local-dual": [
        "ee75032e341d9fd1cc18370c6f15ccf08aafe617bf0e5eec9670c838922f7db5",
        "8ecdf0cd9682f7cddae986565fcd0949f9962ac276fba9ea6582e1b6ca50b65b",
    ],
    "fabric-dedicated-40g": [
        "8bec0c7a9a4c7970f0c32f6b4933d499c43d5fe63b78967e9379c8efacb971fd",
        "972912d4cddb62bcd020bbef7808cfc671779de81a1350deddedd3c573a0acc9",
    ],
    "fabric-shared-40g": [
        "5340123d3da9f84ac4e5807857e887df9780281b39300d67dc92a98520d18608",
        "225c2af6686ab658c4f12c2f131a1e74f040da4c39302406d3daf893ec288e13",
    ],
    "fabric-dedicated-40g-2": [
        "ad5b421d3dbf33093fb05049103768fbf56528ceefe8a791f7c618ff95b71077",
        "b60dadc218d184bee13d617f91f86be933db05ad619c23c7f83c087d8ad2d0bf",
    ],
    "fabric-dedicated-80g": [
        "2926fb138550a70bba83715fa38254c2995fb74cc960c4d40e76853918b022f9",
        "4e08093289cf43770b41176b462a93968cb0b9d058663589856ab9b86be7f350",
    ],
    "fabric-shared-80g": [
        "6e513a23837585ad07ddc8c18fe230c4d35bdc8a6f714fef5017c818bbd26058",
        "57b98d75e15be3e3bbabf7ceca08e361cf4269f3f17746525b94043f363dabb8",
    ],
    "fabric-dedicated-80g-noisy": [
        "3bca2f5b67782d953fc31eaae767339413915d7e6418527eebcaf7e9fe368707",
        "a4a7f3f1739ee554e631cb207a3b059bcc16e11584436d5910af3acaab9c96a7",
    ],
    "fabric-shared-40g-noisy": [
        "049c43bd49cde9867b1f52bbc3152e11ce0e38a47a2e97346fc44eda83511b95",
        "7d1bea4b56305389f76134aac869db20735557cf4fbeaf47649a68f8718c83b5",
    ],
}


def series_digests(key: str) -> list[str]:
    """sha256 of each trial's label, tag bytes and time bytes, in run order."""
    sc = scenario(key)
    trials = Testbed(sc.profile(SCALE), seed=sc.seed).run_series(N_RUNS)
    out = []
    for trial in trials:
        h = hashlib.sha256(trial.label.encode())
        h.update(trial.tags.tobytes())
        h.update(trial.times_ns.tobytes())
        out.append(h.hexdigest())
    return out


def test_golden_covers_every_scenario():
    assert set(GOLDEN) == {sc.key for sc in SCENARIOS}


@pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != NUMPY_MINOR,
    reason=f"digests recorded with NumPy {NUMPY_MINOR}.x, whose Generator "
    f"streams may differ from NumPy {np.__version__} (NEP 19)",
)
@pytest.mark.parametrize("key", [sc.key for sc in SCENARIOS])
def test_simulated_series_is_bit_identical(key):
    assert series_digests(key) == GOLDEN[key]
