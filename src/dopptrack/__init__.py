"""Streaming estimation of time-varying, per-path Doppler across multipath
arrivals of a known transmitted signal, plus a channel simulator and a
matched-filter peak-tracking baseline for evaluation."""

from .channel import (ChannelScene, Geometry, GroundTruth, MotionSpec, PATHS,
                      path_length, synthesize)
from .peak_tracking import (PeakTracker, crosscorr, subsample_interp,
                            track_step)
from .rls import solve_direct
from .segmentation import (SegmentationState, admit_hypothesis, batch_sls,
                           bellman_step, evict_if_full)
from .signal_model import (PulseShape, TransmitSignal, generate_symbols,
                           make_qpsk_signal)
from .tracker import (DopplerSegment, DopplerTracker, InvalidSampleError,
                      TrackerConfig, perturbed_rows, predict_and_gradient,
                      reconstruct_warp_array, update_delays)

__version__ = "0.1.0"
