"""Every metric the benchmark reports, named once.

``BENCHMARK.json`` at the repo root is generated from this file
(``python3 benchmarks/e2e/run.py --benchmark-json > BENCHMARK.json``) and the smoke test
fails when the two disagree. What ``BENCHMARK.json`` has no key for lives
here: which clock a metric is read from, and for every per-layer metric the
end-to-end metric and workload it is expected to move (``moves``).
"""

from __future__ import annotations

from typing import Dict, NamedTuple

RUN_SECONDS = 20


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    clock: str  # "host" (what the numpy simulator costs) or "sim" (the modelled cluster)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves_metric: str
    moves_workload: str


END_TO_END = (
    EndToEnd("step_cost_ref", "ref", "lower", 0.25, "host"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, "host"),
    EndToEnd("sim_time_s", "s", "lower", 0.25, "sim"),
    EndToEnd("sim_time_to_target_s", "s", "lower", 0.25, "sim"),
    EndToEnd("bytes_synced_gb", "GB", "lower", 0.25, "sim"),
    EndToEnd("final_quality", "score", "higher", 0.05, "sim"),
    EndToEnd("setup_s", "s", "lower", 0.25, "host"),
)

_VB, _VS, _XF, _ML = "vgg8_bsp", "vgg8_selsync", "xfmr4_selsync", "mlp16_chaos_traced"
_COST = "step_cost_ref"


def _ms(name: str, workload: str) -> PerLayer:
    return PerLayer(name, "ms", "lower", _COST, workload)


def _count(name: str, workload: str, metric: str = _COST) -> PerLayer:
    return PerLayer(name, "count", "lower", metric, workload)


PER_LAYER = (
    # nn: forward/backward are the model-level spans, children included; the
    # per-kind rows and container are self times and add up to them.
    _ms("nn.forward_ms", _VB),
    _ms("nn.backward_ms", _VB),
    _ms("nn.loss_ms", _XF),
    _ms("nn.conv_ms", _VB),
    _ms("nn.linear_ms", _ML),
    _ms("nn.norm_ms", _XF),
    _ms("nn.pool_ms", _VB),
    _ms("nn.act_ms", _VS),
    _ms("nn.attention_ms", _XF),
    _ms("nn.embedding_ms", _XF),
    _ms("nn.dropout_ms", _XF),
    _ms("nn.other_ms", _VB),
    _ms("nn.container_ms", _XF),
    _count("nn.calls", _ML),
    PerLayer("nn.share", "%", "lower", _COST, _VB),
    _ms("optim.step_ms", _ML),
    _count("optim.calls", _ML),
    _ms("data.next_batch_ms", _ML),
    _count("data.calls", _ML),
    _ms("cluster.worker.compute_gradient_ms", _VB),
    _ms("cluster.worker.local_step_ms", _VS),
    _ms("cluster.worker.apply_gradient_ms", _VB),
    _ms("cluster.worker.set_params_ms", _VS),
    _ms("cluster.executor.dispatch_ms", _ML),
    _ms("cluster.server.aggregate_ms_per_sync", _VS),
    _count("cluster.server.calls", _VS),
    _ms("core.robust.aggregate_ms_per_sync", _ML),
    _ms("comm.collectives.allreduce_ms", _VB),
    _ms("comm.collectives.charge_sync_ms", _VS),
    _ms("comm.collectives.allgather_ms", _XF),
    _count("comm.collectives.calls_per_step", _VB),
    PerLayer("comm.collectives.sim_comm_s_per_step", "s", "lower", "sim_time_s", _VB),
    PerLayer("comm.collectives.sim_comm_share", "%", "lower", "sim_time_s", _VS),
    PerLayer("comm.collectives.bytes_per_step", "MB", "lower", "bytes_synced_gb", _VS),
    _ms("core.grad_tracker.update_ms", _XF),
    PerLayer("core.selsync.lssr", "ratio", "higher", "sim_time_s", _VS),
    _count("core.selsync.flags_per_step", _XF, "sim_time_s"),
    _ms("core.trainer.step_self_ms", _ML),
    _ms("core.trainer.run_loop_self_ms", _ML),
    _ms("core.trainer.begin_faults_ms", _ML),
    _ms("core.trainer.screen_updates_ms", _ML),
    _ms("core.trainer.upload_penalty_ms", _ML),
    _ms("core.trainer.apply_corruption_ms", _ML),
    _ms("core.trainer.wire_updates_ms", _ML),
    _ms("core.trainer.evaluate_ms_per_eval", _XF),
    _ms("core.trainer.write_checkpoint_ms_per_ckpt", _ML),
    _ms("cluster.faults.begin_step_ms", _ML),
    _count("cluster.faults.records", _ML),
    _ms("cluster.health.observe_ms", _ML),
    _count("cluster.health.quarantines", _ML),
    _ms("comm.envelope.send_ms", _ML),
    _count("comm.envelope.retries", _ML, "sim_time_s"),
    _count("comm.envelope.lost", _ML, "sim_time_s"),
    _ms("obs.emit_ms", _ML),
    _count("obs.events_per_step", _ML),
    _ms("obs.close_ms_total", _ML),
    PerLayer("obs.trace_bytes", "MB", "lower", _COST, _ML),
    _ms("utils.serialization.save_checkpoint_ms_per_ckpt", _ML),
    PerLayer("utils.serialization.checkpoint_bytes", "MB", "lower", _COST, _ML),
    PerLayer("utils.serialization.stall_share", "%", "lower", _COST, _ML),
    PerLayer("host.control_plane_share", "%", "lower", _COST, _ML),
    _ms("host.step_ms_p50", _VB),
    _ms("host.step_ms_p95", _ML),
    PerLayer("host.steps_per_s", "1/s", "higher", _COST, _VB),
    PerLayer("host.samples_per_s", "1/s", "higher", _COST, _VB),
    _ms("host.ref_kernel_ms", _VB),
    PerLayer("host.warmup_block_ratio", "ratio", "lower", "setup_s", _VB),
    PerLayer("host.import_s", "s", "lower", "setup_s", _XF),
    PerLayer("host.span_overhead", "ratio", "lower", _COST, _ML),
    PerLayer("host.untraced_share", "%", "lower", _COST, _ML),
)


def benchmark_json(workloads) -> Dict:
    """The ``BENCHMARK.json`` document for ``workloads`` (the SPECS)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": s.name, "why": s.why} for s in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
