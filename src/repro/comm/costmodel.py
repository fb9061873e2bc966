"""Communication-time cost models.

Closed-form times for the synchronization primitives the trainers invoke,
derived from the standard α–β (latency–bandwidth) model. These are the only
place simulated wall-clock is manufactured; everything else measures real
numpy compute or counts real bytes.
"""

from __future__ import annotations

from repro.comm.network import NetworkModel


def ps_sync_time(nbytes: float, n_workers: int, net: NetworkModel) -> float:
    """Full PS round: N workers push ``nbytes`` each, then pull the update.

    Workers co-located on a node (``net.workers_per_node``) first reduce
    locally over the fast intra-node link, then one aggregated update per
    node crosses the NIC; the PS serializes all node ingress through its own
    link. Each phase therefore costs
    ``intra + latency + max(payload/node_NIC, n_nodes×payload/PS_NIC)`` and a
    full round is push + pull. The shared-ingress term is what bends
    Fig. 1a's throughput curve away from linear as N grows.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_workers == 1:
        return 0.0
    import math

    bits = 8.0 * nbytes
    wpn = min(net.workers_per_node, n_workers)
    n_nodes = math.ceil(n_workers / wpn)
    intra = 0.0
    if wpn > 1:
        # Local ring reduce among co-located workers at the intra-node rate.
        intra = (wpn - 1) / wpn * bits / (net.bandwidth_bps * net.intra_node_speedup)
    inter = net.latency_s + max(
        bits / net.bandwidth_bps, n_nodes * bits / net.ps_bandwidth_bps
    )
    return 2.0 * (intra + inter)  # push + pull


def sharded_ps_sync_time(
    shard_nbytes, ranks_per_shard, net: NetworkModel
) -> float:
    """Full sync round over a sharded parameter server.

    ``shard_nbytes[s]`` is shard ``s``'s payload and ``ranks_per_shard[s]``
    the number of workers contributing to that shard's round (a degraded
    shard round covers fewer). Each shard is owned by its own shard server
    on its own NIC, so the ``S`` per-shard push–pull rounds proceed **in
    parallel** and the round costs the slowest shard:

        max_s ps_sync_time(b_s, k_s) + (S_active − 1) · α

    The trailing term is the per-shard coordination latency — completing a
    round now requires one completion message per *extra* shard server, so
    sharding is never charged as entirely free. A shard with zero
    contributing ranks is skipped (its round simply does not run). With one
    shard this reduces exactly to :func:`ps_sync_time`.
    """
    shard_nbytes = list(shard_nbytes)
    ranks_per_shard = list(ranks_per_shard)
    if len(shard_nbytes) != len(ranks_per_shard):
        raise ValueError(
            f"{len(shard_nbytes)} shard payloads vs "
            f"{len(ranks_per_shard)} rank counts"
        )
    if not shard_nbytes:
        raise ValueError("need at least one shard")
    times = [
        ps_sync_time(b, k, net)
        for b, k in zip(shard_nbytes, ranks_per_shard)
        if k >= 1
    ]
    if not times or max(times) == 0.0:
        # All shards skipped, or every shard has a single rank — the
        # unsharded convention is that a 1-worker "round" is free, and the
        # coordination term must not make the sharded analog cost more.
        return 0.0
    return max(times) + (len(times) - 1) * net.latency_s


def ring_allreduce_time(nbytes: float, n_workers: int, net: NetworkModel) -> float:
    """Bandwidth-optimal ring allreduce: ``2(N-1)/N`` payload + 2(N-1) hops."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_workers == 1:
        return 0.0
    bits = 8.0 * nbytes
    bw = net.effective_worker_bandwidth()
    return 2.0 * (n_workers - 1) * (net.latency_s + bits / (n_workers * bw))


def tree_allreduce_time(nbytes: float, n_workers: int, net: NetworkModel) -> float:
    """Binary-tree reduce+broadcast: logarithmic latency, full payload per hop."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_workers == 1:
        return 0.0
    import math

    hops = 2.0 * math.ceil(math.log2(n_workers))
    bits = 8.0 * nbytes
    bw = net.effective_worker_bandwidth()
    return hops * (net.latency_s + bits / bw)


def chain_allreduce_time(nbytes: float, n_workers: int, net: NetworkModel) -> float:
    """Ring allreduce rerouted around one dead link: the ring becomes a
    chain (open ring).

    Without the wrap-around link the reduce-scatter/allgather pipeline
    cannot overlap both directions, so each phase degenerates to passing
    the *full* payload down the chain: 2(N−1) hops carrying ``nbytes``
    each instead of ``nbytes/N``. That is exactly the bandwidth penalty of
    losing ring parallelism — the healed ring is correct but ~N× more
    expensive in the bandwidth term, which is what makes a reroute visible
    in the timing ledger rather than cosmetically free.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_workers == 1:
        return 0.0
    bits = 8.0 * nbytes
    bw = net.effective_worker_bandwidth()
    return 2.0 * (n_workers - 1) * (net.latency_s + bits / bw)


def tree_reparent_time(
    nbytes: float, n_workers: int, net: NetworkModel, n_dead_links: int
) -> float:
    """Tree allreduce with ``n_dead_links`` parent links rerouted.

    Each orphaned subtree re-parents to its grandparent (or a sibling),
    adding one extra full-payload hop per dead link on both the reduce and
    the broadcast sweep: ``tree_allreduce_time + 2·d·(α + bits/bw)``.
    """
    if n_dead_links < 0:
        raise ValueError(f"n_dead_links must be >= 0, got {n_dead_links}")
    base = tree_allreduce_time(nbytes, n_workers, net)
    if n_workers <= 1 or n_dead_links == 0:
        return base
    bits = 8.0 * nbytes
    bw = net.effective_worker_bandwidth()
    return base + 2.0 * n_dead_links * (net.latency_s + bits / bw)


def allgather_bits_time(n_workers: int, net: NetworkModel) -> float:
    """SelSync's 1-bit-per-worker flag allgather (Alg. 1 line 12).

    (N-1) bits of payload — latency dominated. The paper measured ≈2–4 ms;
    with the default latency this lands in the same range for N=16.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_workers == 1:
        return 0.0
    payload_bytes = max(1.0, (n_workers - 1) / 8.0)
    # Ring-style allgather: N-1 latency hops, negligible payload.
    return (n_workers - 1) * net.latency_s + 8.0 * payload_bytes / net.effective_worker_bandwidth()
