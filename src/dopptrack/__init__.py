"""Streaming estimation of time-varying, per-path Doppler across multipath
arrivals of a known transmitted signal, plus a channel simulator and a
matched-filter peak-tracking baseline for evaluation."""

from .channel import ChannelScene, Geometry, MotionSpec, PATHS, synthesize
from .peak_tracking import PeakTracker
from .signal_model import TransmitSignal, make_qpsk_signal
from .tracker import (DopplerSegment, DopplerTracker, InvalidSampleError,
                      TrackerConfig, reconstruct_warp_array)

__version__ = "0.1.0"
