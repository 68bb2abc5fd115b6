"""Fused-kernel launch: one grid, many requests, per-request completion.

Implements §IV-A3 + Fig. 6: the fused kernel partitions its thread
blocks among the batch's requests with the cooperative-group
partitioner (:func:`repro.gpu.coop.partition`); each group performs its
request's operation (pack / unpack / DirectIPC device function),
synchronizes *within the group only*, and signals completion by writing
the request's response status — there is no synchronization at the
kernel boundary.

In the simulation this becomes: the stream is occupied for the plan's
total duration (max over groups), while each request's byte movement
and response-status write happen at its own group's completion offset.
The progress engine can therefore act on early requests (e.g. put their
packed bytes on the wire) while later groups are still running — the
overlap visible in Fig. 7.
"""

from __future__ import annotations

from typing import Sequence

from ..gpu.archs import GPUArchitecture
from ..gpu.coop import FusionPlan, partition
from ..gpu.stream import Stream
from ..sim.engine import Event, Simulator
from .request_list import FusionRequest

__all__ = ["launch_fused_kernel"]


def launch_fused_kernel(
    sim: Simulator,
    stream: Stream,
    arch: GPUArchitecture,
    requests: Sequence[FusionRequest],
    grid_blocks: int | None = None,
) -> FusionPlan:
    """Execute one fused kernel over ``requests`` on ``stream``.

    Returns the priced :class:`FusionPlan`.  Side effects, all at
    simulated GPU time:

    * the stream is busy from kernel start for ``plan.total_duration``,
    * each request's ``op.apply()`` runs at its group's completion
      offset and its ``gpu_signal_complete()`` fires then (response
      status write + ``done_event``).
    """
    if not requests:
        raise ValueError("cannot launch an empty fused kernel")
    plan = partition(arch, [r.op for r in requests], grid_blocks=grid_blocks)

    # Kernel start respects stream ordering and device occupancy.
    start = stream.next_start()
    # Occupy the stream for the full fused duration (no per-request
    # apply here — per-request timing is handled below).
    stream.occupy(plan.total_duration)

    faults = sim.faults
    for request, part in zip(requests, plan.requests):
        delay = (start + part.completion_offset) - sim.now
        if faults is not None:
            # A straggling thread-block group stretches this request's
            # completion without delaying its batch-mates.
            delay *= faults.straggler_multiplier()
        trigger = sim.timeout(delay)

        def _complete(_ev: Event, req: FusionRequest = request) -> None:
            if req.complete:
                # Already finished by another copy (deadline-watchdog
                # relaunch racing a straggler).  Applying again could
                # write into a staging buffer that has since been
                # released and reused — first completion wins.
                return
            req.op.apply()
            req.gpu_signal_complete()

        trigger.add_callback(_complete)
    return plan
