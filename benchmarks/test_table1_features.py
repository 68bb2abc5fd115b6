"""Table I — qualitative feature matrix of the evaluated approaches.

Regenerates the paper's comparison columns (layout cache, GPU driver
overhead, overall latency, overlap with communication) from the scheme
classes' declared capabilities and asserts the proposed row is the only
one combining a layout cache with low driver overhead, low latency, and
high overlap.
"""

from repro.core.framework import KernelFusionScheme
from repro.schemes import (
    CPUGPUHybridScheme,
    GPUAsyncScheme,
    GPUSyncScheme,
    NaiveCopyScheme,
)

ROWS = {
    "GPU-Sync [8,22]": GPUSyncScheme,
    "GPU-Async [23]": GPUAsyncScheme,
    "CPU-GPU-Hybrid [24]": CPUGPUHybridScheme,
    "Naive copies (prod.)": NaiveCopyScheme,
    "Proposed": KernelFusionScheme,
}


def test_table1_feature_matrix(report):
    header = (
        f"{'approach':<22}{'cache':>7}{'driver ovh':>12}{'latency':>9}"
        f"{'overlap':>9}{'GDRCopy':>9}"
    )
    lines = [header, "-" * len(header)]
    for name, cls in ROWS.items():
        c = cls.capabilities
        lines.append(
            f"{name:<22}{'Y' if c.layout_cache else 'N':>7}"
            f"{c.driver_overhead:>12}{c.latency:>9}{c.overlap:>9}"
            f"{'req' if c.requires_gdrcopy else '-':>9}"
        )
    report(
        "table1_features",
        "Table I — approach feature matrix\n"
        "=================================\n" + "\n".join(lines),
    )

    winners = [
        name
        for name, cls in ROWS.items()
        if cls.capabilities.layout_cache
        and cls.capabilities.driver_overhead == "low"
        and cls.capabilities.latency == "low"
        and cls.capabilities.overlap == "high"
        and not cls.capabilities.requires_gdrcopy
    ]
    assert winners == ["Proposed"]
