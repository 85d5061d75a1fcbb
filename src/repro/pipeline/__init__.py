"""End-to-end node application pipeline (paper §V)."""

from .node_app import (
    AlarmEvent,
    BEAT_EVENT_BITS,
    CardiacMonitorNode,
    GovernedNodeReport,
    ModeSegment,
    NodeReport,
)
from .streaming import (
    RPeakMonitor,
    StreamingConfig,
    StreamingMonitor,
    stream_record,
)

__all__ = [
    "AlarmEvent",
    "BEAT_EVENT_BITS",
    "CardiacMonitorNode",
    "GovernedNodeReport",
    "ModeSegment",
    "NodeReport",
    "RPeakMonitor",
    "StreamingConfig",
    "StreamingMonitor",
    "stream_record",
]
