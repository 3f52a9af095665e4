"""Functional proof of the paper's Section 5.6 claim: "the baseline and
P3 would follow the same training curve for a given hyper-parameter set".

P3 changes *when* gradient bytes move, never *what* they contain.  This
example routes real numpy gradients through the functional data plane
over two key tables — MXNet-style KVStore placement (whole arrays, big
ones threshold-split) and P3's (50k-param slices, round-robin) — and
shows the resulting models are bit-identical, while the timing
simulator shows P3 finishing the same work sooner.

Run:  python examples/functional_equivalence.py
"""

from __future__ import annotations

import numpy as np

from repro import ClusterConfig, simulate
from repro.kvstore import DistributedStore, train_with_store
from repro.models import resnet50
from repro.placement import plan_keys
from repro.strategies import baseline, p3
from repro.training import TrainConfig, make_dataset, mlp


def main() -> None:
    dataset = make_dataset(n_train=512, n_val=128, seed=0)
    config = TrainConfig(n_workers=4, epochs=4, batch_size=64, lr=0.05, seed=7)

    def fresh_net():
        return mlp(np.random.default_rng(3), in_dim=16 * 16 * 3, hidden=32,
                   batchnorm=False)

    sizes = [value.size for value in fresh_net().parameters().values()]

    def fresh_store(strategy):  # slices, or KVStore's threshold split
        table = plan_keys(sizes, 4, slice_params=strategy.slice_params,
                          rng=np.random.default_rng(1))
        return DistributedStore(table, n_workers=4, n_servers=4,
                                lr=config.lr, momentum=config.momentum,
                                weight_decay=config.weight_decay)

    print("training through the MXNet-style KVStore key table ...")
    net_base = fresh_net()
    res_base = train_with_store(net_base, dataset, fresh_store(baseline()),
                                config)
    print("training through P3's key table (50k-param slices) ...")
    net_p3 = fresh_net()
    res_p3 = train_with_store(net_p3, dataset, fresh_store(p3()), config)

    max_diff = float(np.abs(net_base.get_vector() - net_p3.get_vector()).max())
    print(f"\nmax |param difference| after training: {max_diff:.2e}")
    print(f"validation accuracy: baseline {res_base.val_accuracy[-1]:.3f}, "
          f"p3 {res_p3.val_accuracy[-1]:.3f}")
    assert np.array_equal(net_base.get_vector(), net_p3.get_vector())

    # Same values — but not the same wall-clock.  The timing simulator
    # on the paper's ResNet-50 testbed shows what P3's reordering buys:
    cluster = ClusterConfig(n_workers=4, bandwidth_gbps=4.0)
    t_base = simulate(resnet50(), baseline(), cluster).mean_iteration_time
    t_p3 = simulate(resnet50(), p3(), cluster).mean_iteration_time
    print(f"\nsimulated iteration time (ResNet-50 @ 4 Gbps): "
          f"baseline {t_base * 1000:.0f} ms vs P3 {t_p3 * 1000:.0f} ms "
          f"({t_base / t_p3:.2f}x faster, identical results)")


if __name__ == "__main__":
    main()
