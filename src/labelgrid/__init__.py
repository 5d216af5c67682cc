"""Multi-view label-probability fusion into a sparse 3D occupancy grid."""

from .fusion import FusionStats, GateConfig, camera_velocity, fuse_stream
from .geometry import Box3, Pose, look_at, rotation_angle
from .grid import LabelOccupancyGrid, VoxelKey, logit, probability, voxel_center
from .metrics import (ConfusionMatrix, IouReport, confusion, iou_3d, mean_iu,
                      pixelwise_accuracy)
from .registration import (CameraIntrinsics, RegistrationResult, SensorFrame,
                           VoxelMeasurement, deproject, project,
                           register_frame, softmax_image)

__version__ = "0.1.0"

__all__ = [
    "Box3", "CameraIntrinsics", "ConfusionMatrix", "FusionStats", "GateConfig",
    "IouReport", "LabelOccupancyGrid", "Pose", "RegistrationResult",
    "SensorFrame", "VoxelKey", "VoxelMeasurement",
    "camera_velocity", "confusion", "deproject", "fuse_stream", "iou_3d",
    "logit", "look_at", "mean_iu", "pixelwise_accuracy", "probability",
    "project", "register_frame", "rotation_angle", "softmax_image",
    "voxel_center",
]
