"""The benchmark's tracer must find every entry point it wraps.

``perfbench/tracing.py`` patches the public entry points of each layer
by module, class and name, with no guard against a missing class or
function.  Renaming or deleting one would make every traced benchmark
run raise; these tests fail first, in the tier-1 suite.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_every_traced_method_is_defined_where_listed():
    # install() skips a listed method its class does not define, which
    # would silently drop that layer's spans; require each one.
    tracing = _load_tracing()
    import repro.fleet  # noqa: F401
    import repro.fleet.journal  # noqa: F401
    import repro.pipeline  # noqa: F401

    for module, cls_name, method, _name, _before in tracing.METHOD_SPANS:
        cls = getattr(sys.modules[module], cls_name)
        assert method in cls.__dict__, f"{module}.{cls_name}.{method}"
    for module, func, _name, _before in tracing.FUNCTION_SPANS:
        assert callable(getattr(sys.modules[module], func)), \
            f"{module}.{func}"


def test_traced_replay_attributes_drain_and_batched_recovery(tmp_path):
    # The gateway-replay workload's per-layer metrics come from spans on
    # Gateway.drain and JointCsDecoder.recover_batch; a replay path that
    # bypassed either would zero them silently.
    tracing = _load_tracing()
    from repro.fleet import (CohortConfig, FleetScheduler, Gateway,
                             GatewayConfig, JournalConfig, JournalReplayer,
                             JournalWriter, NodeProxyConfig,
                             SchedulerConfig, journal_meta, make_cohort)

    scheduler_config = SchedulerConfig(duration_s=24.0, fs=250.0)
    gateway_config = GatewayConfig(n_iter=30)
    config = JournalConfig(dir=str(tmp_path), name="traced")
    with JournalWriter(config, meta=journal_meta(24.0, 250.0,
                                                 gateway_config),
                       resume=False) as journal:
        FleetScheduler(
            make_cohort(CohortConfig(n_patients=3, seed=5)),
            scheduler_config,
            node_config=NodeProxyConfig(excerpt_period_s=2.0,
                                        stream_telemetry=False),
            gateway=Gateway(gateway_config), journal=journal).run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        JournalReplayer(config).run()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["gateway.drain.calls"] > 0
    assert metrics["compression.recover.windows_per_call"] > 1


def test_traced_replay_decodes_each_record_once(tmp_path):
    # The replay decodes packet frames ahead of their records; it must
    # do so through the `decode_packet` name the tracer patches, once
    # per record, or `wire.decode` would silently undercount.
    tracing = _load_tracing()
    from repro.fleet import (CohortConfig, FleetScheduler, Gateway,
                             GatewayConfig, JournalConfig, JournalReplayer,
                             JournalWriter, NodeProxyConfig,
                             SchedulerConfig, journal_meta, make_cohort)

    gateway_config = GatewayConfig(n_iter=20)
    config = JournalConfig(dir=str(tmp_path), name="decoded")
    with JournalWriter(config, meta=journal_meta(12.0, 250.0,
                                                 gateway_config),
                       resume=False) as journal:
        FleetScheduler(
            make_cohort(CohortConfig(n_patients=2, seed=3)),
            SchedulerConfig(duration_s=12.0, fs=250.0),
            node_config=NodeProxyConfig(excerpt_period_s=2.0,
                                        stream_telemetry=False),
            gateway=Gateway(gateway_config), journal=journal).run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = JournalReplayer(config).run()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 1)
    assert report.n_packets > 0
    assert metrics["wire.decode.calls"] == report.n_records
    assert metrics["journal.read.records"] == report.n_records
