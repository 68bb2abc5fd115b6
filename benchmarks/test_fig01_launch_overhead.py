"""Fig. 1 — kernel launch overhead vs. pack-kernel time across GPUs.

The paper's motivating measurement: for the Specfem3D and MILC datatype
workloads, the time to *launch* an optimized packing kernel meets or
exceeds the kernel's own execution time on modern NVIDIA architectures,
and this launch overhead barely improved across generations while the
kernels themselves got dramatically faster.

Expected shape (paper): launch ≈ 6–12 µs on every architecture; pack
kernels shrink from tens of µs (Kepler) to a few µs (Volta), so on
Pascal/Volta the launch bar dominates.
"""




def test_fig01_launch_vs_pack(report, artifact, sweep_run):
    run = sweep_run("fig01")
    data = run.entries[0]["data"]
    artifact(run)

    rows = [
        f"{arch_name:<16}{entry['launch'] * 1e6:>10.2f}us"
        f"{entry['Specfem3D'] * 1e6:>14.2f}us{entry['MILC'] * 1e6:>12.2f}us"
        for arch_name, entry in data.items()
    ]
    header = f"{'architecture':<16}{'launch':>12}{'Specfem3D':>16}{'MILC':>14}"
    report(
        "fig01_launch_overhead",
        "Fig. 1 — launch overhead vs pack kernel time\n"
        "=============================================\n"
        + header + "\n" + "-" * len(header) + "\n" + "\n".join(rows),
    )

    # Shape assertions -----------------------------------------------------
    volta = data["Tesla V100"]
    kepler = data["Tesla K80"]
    # Launch overhead dominates the pack kernels on modern GPUs...
    assert volta["launch"] > volta["Specfem3D"]
    assert volta["launch"] > volta["MILC"]
    # ...kernels got much faster across generations...
    assert volta["Specfem3D"] < kepler["Specfem3D"] / 3
    # ...while launch overhead stayed the same order of magnitude.
    assert volta["launch"] > kepler["launch"] / 2
