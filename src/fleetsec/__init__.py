"""Security toolkit for small-device fleets.

Building blocks: z-normalized distance profiles over telemetry
(`matrix_profile`, `detector`), signed timestamp tokens (`tsa`) anchoring
a rollback-resistant firmware update protocol (`update_protocol`), a
device identity registry with claim and blacklist flows (`identity`),
deception primitives (`deception`), and a deterministic fleet simulator
with scripted attacks (`fleet_sim`). The `fleetsec` console script fronts
the lot.
"""

from .detector import (
    AnomalyReport,
    DetectorConfig,
    calibrate,
    detect,
    detect_fleet,
    threshold_from_distances,
)
from .errors import FleetsecError
from .identity import ClaimRequest, DeviceRecord, DeviceRegistry
from .keystore import Keystore, PublicKeyInfo
from .matrix_profile import (
    MatrixProfile,
    ProfileConfig,
    compute_brute_force,
    compute_fast,
    compute_many,
    top_discords,
    znorm_distance,
)
from .telemetry import Metric, TelemetryCounts, TelemetrySeries, bucketize, ingest_csv
from .tsa import TimestampAuthority, TimestampToken, decode_token, verify_token
from .update_protocol import (
    DeviceUpdateState,
    FirmwareManifest,
    RejectReason,
    Verdict,
    apply_update,
    boot,
    build_manifest,
    device_verify,
    initial_state,
    recover_to_trusted,
)

__version__ = "0.1.0"

__all__ = [
    "AnomalyReport",
    "ClaimRequest",
    "DetectorConfig",
    "DeviceRecord",
    "DeviceRegistry",
    "DeviceUpdateState",
    "FirmwareManifest",
    "FleetsecError",
    "Keystore",
    "MatrixProfile",
    "Metric",
    "ProfileConfig",
    "PublicKeyInfo",
    "RejectReason",
    "TelemetryCounts",
    "TelemetrySeries",
    "TimestampAuthority",
    "TimestampToken",
    "Verdict",
    "apply_update",
    "boot",
    "bucketize",
    "build_manifest",
    "calibrate",
    "compute_brute_force",
    "compute_fast",
    "compute_many",
    "decode_token",
    "detect",
    "detect_fleet",
    "device_verify",
    "ingest_csv",
    "initial_state",
    "recover_to_trusted",
    "threshold_from_distances",
    "top_discords",
    "verify_token",
    "znorm_distance",
]
