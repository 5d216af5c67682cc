"""Per-voxel reference implementations of registration, update and LGRID1.

They follow the dict-of-vectors design the columnar grid replaced, so tests
can require the vectorised code to match them bit for bit.
"""

import struct

import numpy as np


def oracle_register(frame, resolution, roi):
    """Keys and mean probabilities of one frame via np.unique(axis=0) and np.add.at."""
    intr, depth = frame.intrinsics, frame.depth
    vv, uu = np.nonzero(np.isfinite(depth) & (depth > 0))
    d = depth[vv, uu]
    cam = np.stack([(uu - intr.cx) * d / intr.fx, (vv - intr.cy) * d / intr.fy, d], axis=1)
    keys = np.floor(frame.pose.transform(cam) / resolution).astype(np.int64)
    probs = frame.proba[vv, uu]
    if roi is not None:
        keep = roi.contains((keys + 0.5) * resolution)
        keys, probs = keys[keep], probs[keep]
    unique_keys, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                             return_counts=True)
    sums = np.zeros((unique_keys.shape[0], probs.shape[1]))
    np.add.at(sums, inverse.reshape(-1), probs)
    return unique_keys, sums / counts[:, None]


def oracle_update(cells: dict, roi, resolution, clamp, keys, probs) -> int:
    """Update a dict of log-odds vectors one voxel at a time; returns the
    number of keys discarded by the roi."""
    discarded = 0
    for key, p in zip(keys, probs):
        key = tuple(int(k) for k in key)
        if roi is not None and not roi.contains((np.asarray(key, dtype=float) + 0.5) * resolution):
            discarded += 1
            continue
        vec = cells.get(key, np.zeros(len(p)))
        cells[key] = np.clip(vec + np.log(p / (1.0 - p)), -clamp, clamp)
    return discarded


def oracle_lgrid_bytes(cells: dict, resolution, num_labels, clamp, roi) -> bytes:
    """LGRID1 bytes of a dict of log-odds vectors, packed one cell at a time."""
    parts = [b"LGRID1\n", struct.pack("<dId", resolution, num_labels, clamp)]
    if roi is not None:
        parts.append(struct.pack("<B6d", 1, *roi.min, *roi.max))
    else:
        parts.append(struct.pack("<B", 0))
    parts.append(struct.pack("<Q", len(cells)))
    for key in sorted(cells):
        parts.append(struct.pack("<3i", *key))
        parts.append(np.asarray(cells[key], dtype="<f4").tobytes())
    return b"".join(parts)


def oracle_eager_fuse(manifest, grid, gate, p_min) -> list:
    """LGRID1 bytes of ``grid`` after each frame, fusing the way ``fuse`` did
    before it streamed: every manifest frame decoded and widened to float64
    before the gate runs."""
    import dataclasses

    from labelgrid import fileio, fuse_stream

    records = fileio.read_manifest(manifest)
    frames = [fileio.load_frame(r, manifest.parent) for r in records]
    frames = [dataclasses.replace(f, proba=f.proba.astype(float)) for f in frames]
    snapshots = []
    fuse_stream(grid, frames, gate, p_min=p_min,
                on_frame=lambda index, frame, fused: snapshots.append(fileio.grid_to_bytes(grid)))
    return snapshots
