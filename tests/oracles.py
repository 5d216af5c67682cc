"""Reference implementations that tests require the fast code to match bit for bit.

Registration, update and LGRID1 follow the dict-of-vectors design the
columnar grid replaced; ``oracle_insert_update`` is the columnar update
as it was before the matrix grew in place. The renderer references are
the ``(N, 3)`` slab test and the ``(N, L)`` noise model that render every
frame on its own. ``oracle_world`` deprojects a whole frame as one ``(N, 3)``
array, as registration did before it banded the pixels.
The frame check sums every pixel's channels in float64, as ``SensorFrame``
did before its float32 pass. ``oracle_gate`` is the velocity gate's window
rule as the fusion module documents it.
"""

import struct

import numpy as np


def oracle_world(frame):
    """Flat indices of the valid-depth pixels of one frame and their world
    points, deprojected as one ``(N, 3)`` array."""
    intr, depth = frame.intrinsics, frame.depth.reshape(-1)
    pixel = np.flatnonzero(np.isfinite(depth) & (depth > 0))
    vv, uu = np.divmod(pixel, intr.width)
    d = depth[pixel]
    cam = np.stack([(uu - intr.cx) * d / intr.fx, (vv - intr.cy) * d / intr.fy, d], axis=1)
    return pixel, frame.pose.transform(cam)


def oracle_deproject(frame, resolution, roi):
    """Flat pixel indices and voxel keys of the kept pixels of one frame, and
    the pixels skipped for depth and for the roi, from :func:`oracle_world`:
    the way ``register_frame`` deprojected before it banded the pixels."""
    pixel, world = oracle_world(frame)
    keys = np.floor(world / resolution).astype(np.int64)
    keep = np.ones(pixel.shape[0], dtype=bool)
    if roi is not None:
        keep = roi.contains((keys + 0.5) * resolution)
    return (pixel[keep], keys[keep], frame.depth.size - pixel.size,
            int(np.count_nonzero(~keep)))


def oracle_register(frame, resolution, roi):
    """Keys and mean probabilities of one frame via np.unique(axis=0) and np.add.at."""
    pixel, keys, _, _ = oracle_deproject(frame, resolution, roi)
    probs = np.asarray(frame.proba).reshape(-1, frame.num_labels)[pixel]
    unique_keys, inverse, counts = np.unique(keys, axis=0, return_inverse=True,
                                             return_counts=True)
    sums = np.zeros((unique_keys.shape[0], probs.shape[1]))
    np.add.at(sums, inverse.reshape(-1), probs)
    return unique_keys, sums / counts[:, None]


def oracle_frame_check(proba):
    """The message of the ``ValueError`` that the three-pass float64 simplex
    check (min, max, float64 channel sums) raises for a probability image,
    or ``None`` when it accepts the image."""
    image = np.asarray(proba)
    if image.dtype != np.float32:
        image = image.astype(float)
    if not (image.min() >= 0.0 and image.max() <= 1.0):
        return "probability image entries must lie in [0, 1]"
    worst = float(np.abs(image.sum(axis=2, dtype=np.float64) - 1.0).max())
    if worst > 1e-5:
        return f"probability image channel sums deviate from 1 by {worst:.3g}"
    return None


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


def oracle_insert_update(codes, values, new_codes, probs, clamp):
    """``(codes, values)`` of a columnar grid after ``update(new_codes,
    probs)``, computed as ``LabelOccupancyGrid.update`` did before it grew
    its matrix in place: ``np.insert`` into new arrays, then one gather,
    add, clip and scatter over all rows."""
    p = np.asarray(probs, dtype=float)
    delta = np.subtract(1.0, p)
    np.log(np.divide(p, delta, out=delta), out=delta)
    rows = codes.searchsorted(new_codes)
    new = rows >= codes.shape[0]
    new[~new] = codes[rows[~new]] != new_codes[~new]
    values = values.copy()
    if new.any():
        codes = np.insert(codes, rows[new], new_codes[new])
        values = np.insert(values, rows[new], 0.0, axis=0)
        rows += np.cumsum(new) - new
    cells = values[rows]
    cells += delta
    np.clip(cells, -clamp, clamp, out=cells)
    values[rows] = cells
    return codes, values


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


def oracle_gate(still, settle_frames) -> list:
    """Whether each frame fuses, given whether it is still: a frame fuses
    when it and the ``settle_frames - 1`` frames before it are still, and the
    first frame counts as still whatever ``still[0]`` says."""
    still = [True] + list(still[1:])
    return [i >= settle_frames - 1 and all(still[i - settle_frames + 1:i + 1])
            for i in range(len(still))]


def oracle_eager_fuse(manifest, grid, gate, p_min) -> list:
    """LGRID1 bytes of ``grid`` after each frame, fusing the way ``fuse`` did
    before it streamed: every manifest frame decoded and widened to float64
    before the gate runs."""
    import dataclasses

    from labelgrid import fileio, fuse_stream

    records = fileio.read_manifest(manifest)
    frames = [fileio.load_frame(r, manifest.parent) for r in records]
    frames = [dataclasses.replace(f, proba=np.asarray(f.proba, dtype=float)) for f in frames]
    snapshots = []
    fuse_stream(grid, frames, gate, p_min=p_min,
                on_frame=lambda index, frame, fused: snapshots.append(fileio.grid_to_bytes(grid)))
    return snapshots


def oracle_logits_fuse(manifest, grid, gate, p_min) -> list:
    """LGRID1 bytes of ``grid`` after each frame of a ``logits_file`` stream,
    fusing the way ``fuse`` did before it softmaxed band by band: every score
    image read whole with ``np.fromfile`` and softmaxed whole by
    ``softmax_image``."""
    import dataclasses

    from labelgrid import fileio, fuse_stream, softmax_image

    frames = []
    for record in fileio.read_manifest(manifest):
        with open(manifest.parent / record["logits_file"], "rb") as f:
            shape = [int(size) for size in f.readline().split()[1:]]
            scores = np.fromfile(f, dtype="<f4").reshape(shape)
        frame = fileio.load_frame(record, manifest.parent)
        frames.append(dataclasses.replace(frame, proba=softmax_image(scores)))
    snapshots = []
    fuse_stream(grid, frames, gate, p_min=p_min,
                on_frame=lambda index, frame, fused: snapshots.append(fileio.grid_to_bytes(grid)))
    return snapshots


def oracle_ray_box_depth(origin, dirs, box):
    """Slab-method hit parameter per ray of an ``(N, 3)`` direction array, inf for misses."""
    bmin = np.asarray(box.min)
    bmax = np.asarray(box.max)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t1 = (bmin - origin) / dirs
        t2 = (bmax - origin) / dirs
    near = np.minimum(t1, t2)
    far = np.maximum(t1, t2)
    # axis-parallel rays: hit the slab for all t or not at all
    parallel = dirs == 0.0
    if parallel.any():
        inside = (origin >= bmin) & (origin <= bmax)
        near = np.where(parallel, np.where(inside, -np.inf, np.inf), near)
        far = np.where(parallel, np.where(inside, np.inf, -np.inf), far)
    t_enter = near.max(axis=1)
    t_exit = far.min(axis=1)
    hit = (t_enter <= t_exit) & (t_exit > 0.0)
    t = np.where(t_enter > 0.0, t_enter, t_exit)
    return np.where(hit, t, np.inf)


def oracle_render_scene(scene, pose, intrinsics):
    """Depth and label image, every box tested against all rays as ``(N, 3)``,
    rotated by the contiguous transpose as ``Pose.rotate`` is, one ray or many."""
    from labelgrid.simulator import _pixel_rays

    dirs = _pixel_rays(intrinsics) @ np.ascontiguousarray(pose.rotation.T)
    origin = pose.translation
    best_t = np.full(dirs.shape[0], np.inf)
    best_label = np.zeros(dirs.shape[0], dtype=np.int32)
    boxes = [(label, box) for label, box in scene.objects]
    boxes += [(0, box) for box in scene.occluders]
    for label, box in boxes:
        t = oracle_ray_box_depth(origin, dirs, box)
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        best_label = np.where(closer, label, best_label)
    shape = (intrinsics.height, intrinsics.width)
    depth = np.where(np.isinf(best_t), 0.0, best_t).reshape(shape)
    return depth, best_label.reshape(shape)


def oracle_render_proba(labels, noise, num_labels, frame_key=0):
    """Float64 probability image built as a full ``(N, L)`` array per frame."""
    labels = np.asarray(labels)
    n = labels.size
    rng = np.random.Generator(np.random.Philox(
        key=np.array([noise.seed, frame_key], dtype=np.uint64)))
    flips = rng.random(n) < noise.flip_rate
    wrong_draw = rng.integers(0, num_labels - 1, size=n)

    top = labels.ravel().astype(np.int64)
    wrong = wrong_draw + (wrong_draw >= top)
    top = np.where(flips, wrong, top)

    share = (1.0 - noise.confidence) / (num_labels - 1)
    probs = np.full((n, num_labels), share)
    rows = np.arange(n)
    probs[rows, top] = noise.confidence
    probs[rows, top] += 1.0 - probs.sum(axis=1)
    return probs.reshape(labels.shape + (num_labels,))


def oracle_simulate(scene, trajectory, intrinsics, noise, out_dir, num_labels):
    """Write the stream ``simulate`` writes, rendering geometry for every frame
    and building each PROBIMG1 file as one ``header + payload`` bytes object."""
    from labelgrid import fileio
    from labelgrid.simulator import expand_trajectory, frame_noise_key

    out_dir.mkdir(parents=True)
    records = []
    for index, sched in enumerate(expand_trajectory(trajectory)):
        depth, labels = oracle_render_scene(scene, sched.pose, intrinsics)
        proba = oracle_render_proba(labels, noise, num_labels,
                                    frame_noise_key(sched.timestamp))
        depth_name, proba_name = f"depth_{index:04d}.pgm", f"proba_{index:04d}.probimg"
        fileio.write_depth_pgm(out_dir / depth_name, depth)
        h, w, c = proba.shape
        (out_dir / proba_name).write_bytes(f"PROBIMG1 {h} {w} {c}\n".encode("ascii")
                                           + proba.astype("<f4").tobytes())
        records.append({"depth_file": depth_name, "proba_file": proba_name,
                        "timestamp": sched.timestamp,
                        "pose": fileio.pose_record(sched.pose, intrinsics, sched.timestamp)})
    fileio.write_manifest(out_dir / "manifest.json", records)
