"""The analytic cost model against the GEMMs that one forward pass runs.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import costmodel  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import DESK, FULL  # noqa: E402


@pytest.mark.parametrize("arch", [DESK, FULL], ids=["desk", "full"])
def test_stage_macs_match_counted_gemms(arch):
    from bear.model import BearConfig, forward, init_params, param_count
    from bear.tensor import Tensor, no_grad

    cfg = BearConfig(**arch)
    params = init_params(cfg)
    x = Tensor(np.random.default_rng(0).random((cfg.n, cfg.n, cfg.d), dtype=np.float32))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with no_grad():
            forward(x, params, cfg)
    finally:
        tracer.uninstall()
    assert dict(tracer.macs) == costmodel.stage_macs(SimpleNamespace(**arch))
    assert param_count(params)[1] == costmodel.param_count(SimpleNamespace(**arch))


def test_full_scale_totals():
    full = SimpleNamespace(**FULL)
    macs = costmodel.stage_macs(full)
    assert round(sum(macs.values()) / 1e9, 2) == 1.57
    assert round(macs["pfe"] / 1e9, 2) == 1.12
    assert costmodel.param_count(full) == costmodel.PAPER_PARAMS
