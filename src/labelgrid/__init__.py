"""Multi-view label-probability fusion into a sparse 3D occupancy grid.

The root names load their module on first use (PEP 562), so importing a
submodule such as ``labelgrid.cli`` does not first import numpy through
this file.
"""

import importlib

__version__ = "0.1.0"

# root name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(["FusionStats", "GateConfig", "GateState", "camera_velocity", "fuse_stream",
                     "gate_step"], "fusion"),
    **dict.fromkeys(["Box3", "Pose", "look_at", "rotation_angle"], "geometry"),
    **dict.fromkeys(["LabelOccupancyGrid", "logit", "probability", "voxel_center"], "grid"),
    **dict.fromkeys(["ConfusionMatrix", "IouReport", "confusion", "iou_3d", "mean_iu",
                     "pixelwise_accuracy"], "metrics"),
    **dict.fromkeys(["CameraIntrinsics", "RegistrationResult", "SensorFrame", "register_frame",
                     "softmax_image"], "registration"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
