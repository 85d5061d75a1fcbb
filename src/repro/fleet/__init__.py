"""Multi-patient fleet: cohorts, uplink, gateway reconstruction, triage.

The paper's node (§V) transmits CS-compressed excerpts "periodically or
when an abnormality is detected" — and stops there.  This package models
the receiving half at fleet scale: a cohort of heterogeneous virtual
patients (:mod:`repro.fleet.cohort`), per-patient node proxies emitting
timestamped uplink packets (:mod:`repro.fleet.node_proxy`), a gateway
that demultiplexes the uplink, reconstructs the CS excerpts server-side
and re-checks node alarms (:mod:`repro.fleet.gateway`), per-patient
triage state machines with fleet aggregates (:mod:`repro.fleet.triage`),
and a batched scheduler that drives many patients per tick
(:mod:`repro.fleet.scheduler`) on the discrete-event kernel of
:mod:`repro.fleet.kernel` — lockstep sweeps for a cohort on one uplink
period, per-node events for heterogeneous schedules (sparse cohorts)
with cost proportional to events rather than ticks.

Packets also have an exact binary form (:mod:`repro.fleet.wire`), which
is what lets the whole runtime shard across worker processes:
:class:`~repro.fleet.ShardedFleetRunner` (:mod:`repro.fleet.sharding`)
partitions a cohort into per-process scheduler+gateway stripes and
merges their wire-encoded results into one byte-identical
:class:`FleetSummary`.

On top of the wire codec sits the network-native serving layer: the
:func:`serve` gateway service (:mod:`repro.fleet.serve`) accepts patient
nodes as concurrent TCP clients (:class:`FleetClient`,
:mod:`repro.fleet.client`) streaming length-delimited frames, and
:func:`run_served_fleet` drives a whole cohort through real sockets to
a summary byte-identical to the in-process engine's.
"""

from .client import FleetClient, RemoteBoard, RemoteGateway

from .cohort import (
    CohortConfig,
    PatientProfile,
    make_cohort,
    synthesize_patient,
)
from .gateway import (
    Gateway,
    GatewayConfig,
    PatientChannel,
    ReconstructedExcerpt,
)
from .journal import (
    GatewaySession,
    JournalConfig,
    JournalError,
    JournalReader,
    JournalRecord,
    JournalReplayer,
    JournalWriter,
    ReplayReport,
    journal_meta,
)
from .kernel import (
    PRIORITIES,
    Event,
    EventKernel,
    KernelError,
)
from .node_proxy import (
    PACKET_ALARM,
    PACKET_EXCERPT,
    PACKET_TELEMETRY,
    TELEMETRY_BITS,
    NodeProxy,
    NodeProxyConfig,
    UplinkPacket,
)
from .scheduler import (
    AcuityOverride,
    BatchExcerptEncoder,
    ExtraLoad,
    FleetReport,
    FleetScheduler,
    GovernorFactory,
    SchedulerConfig,
    UplinkChannel,
)
from .serve import (
    FleetGatewayServer,
    ServeConfig,
    ServedFleetReport,
    ServeError,
    run_served_fleet,
    serve,
)
from .sharding import (
    PerPatientLink,
    ShardedFleetReport,
    ShardedFleetRunner,
    ShardHookFactory,
    ShardHooks,
    merge_patient_rows,
    partition_cohort,
)
from .triage import (
    STATE_ALERT,
    STATE_OK,
    STATE_WATCH,
    FleetSummary,
    PatientTriage,
    ShardPatientRow,
    TriageBoard,
    TriageConfig,
    fleet_summary,
)
from .wire import (
    MAX_FRAME_BYTES,
    MESSAGE_MAGIC,
    WIRE_MAGIC,
    WIRE_VERSION,
    ServeMessage,
    StreamDecoder,
    WireFormatError,
    decode_message,
    decode_packet,
    encode_message,
    encode_packet,
    encode_stream_frame,
    frame_kind,
)

__all__ = [
    "AcuityOverride",
    "BatchExcerptEncoder",
    "CohortConfig",
    "Event",
    "EventKernel",
    "ExtraLoad",
    "FleetClient",
    "FleetGatewayServer",
    "FleetReport",
    "FleetScheduler",
    "FleetSummary",
    "Gateway",
    "GatewayConfig",
    "GatewaySession",
    "GovernorFactory",
    "JournalConfig",
    "JournalError",
    "JournalReader",
    "JournalRecord",
    "JournalReplayer",
    "JournalWriter",
    "KernelError",
    "MAX_FRAME_BYTES",
    "MESSAGE_MAGIC",
    "PRIORITIES",
    "NodeProxy",
    "NodeProxyConfig",
    "PACKET_ALARM",
    "PACKET_EXCERPT",
    "PACKET_TELEMETRY",
    "TELEMETRY_BITS",
    "PatientChannel",
    "PatientProfile",
    "PatientTriage",
    "PerPatientLink",
    "ReconstructedExcerpt",
    "RemoteBoard",
    "RemoteGateway",
    "ReplayReport",
    "STATE_ALERT",
    "STATE_OK",
    "STATE_WATCH",
    "SchedulerConfig",
    "ServeConfig",
    "ServeError",
    "ServeMessage",
    "ServedFleetReport",
    "ShardHookFactory",
    "ShardHooks",
    "ShardPatientRow",
    "ShardedFleetReport",
    "ShardedFleetRunner",
    "StreamDecoder",
    "TriageBoard",
    "TriageConfig",
    "UplinkChannel",
    "UplinkPacket",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WireFormatError",
    "decode_message",
    "decode_packet",
    "encode_message",
    "encode_packet",
    "encode_stream_frame",
    "fleet_summary",
    "frame_kind",
    "journal_meta",
    "make_cohort",
    "merge_patient_rows",
    "partition_cohort",
    "run_served_fleet",
    "serve",
    "synthesize_patient",
]
