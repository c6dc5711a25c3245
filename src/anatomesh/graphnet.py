"""Graph residual network over the mesh: forward, backprop, training.

Each graph convolution is h'_p = W0^T h_p + sum_{p' in N(p)} W1^T h_{p'} + b
with W1 shared across edges. Six layers, identity shortcuts after every
second layer (applied when the widths match), ReLU after every layer except
the last. Two heads: a per-vertex softmax classifier and a global classifier
over the concatenation of 4 region-pooled vectors and all vertex embeddings.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import mmap
from collections.abc import Iterable
from dataclasses import dataclass, field
from multiprocessing.connection import Connection

import numpy as np

from .evaluate import classify_gc, write_csv
from .mesh import MeshTopology, region_ranges
from .workers import cpus, forked

__all__ = [
    "GraphResNetParams",
    "TrainConfig",
    "GraphNetError",
    "init_params",
    "graph_conv",
    "forward",
    "loss",
    "backward",
    "train",
    "save_params",
    "load_params",
]

PROB_CLAMP = 1e-7
# graph conv layers of a new network, as in the paper
N_LAYERS = 6


class GraphNetError(RuntimeError):
    """Shape mismatch or numerical failure in the graph network."""


@functools.cache
def _layout(
    widths: tuple[int, ...], k_vertex: int, k_global: int, region_counts: tuple[int, ...]
) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Each parameter array's span of the flat block and its shape, in checkpoint order."""
    shapes = []
    for w_in, w_out in zip(widths, widths[1:]):
        shapes += [(w_in, w_out), (w_in, w_out), (w_out,)]
    # the global head reads every region-pooled and every vertex embedding
    hvp_len = (len(region_counts) + sum(region_counts)) * widths[-1]
    shapes += [(widths[-1], k_vertex), (k_vertex,), (hvp_len, k_global), (k_global,)]
    stops = np.cumsum([math.prod(s) for s in shapes]).tolist()
    return tuple((stop - math.prod(s), stop, s) for stop, s in zip(stops, shapes))


@dataclass
class GraphResNetParams:
    """Conv layer weights plus vertex and global classification heads.

    ``flat`` holds every weight, in checkpoint order; the named arrays are
    views of it. Its dtype is the network's: float32 from :func:`init_params`
    and :func:`load_params`. Forward, backward and train compute in it, so a
    float64 copy runs the same network at float64 precision.
    """

    flat: np.ndarray
    widths: list[int]
    k_vertex: int
    k_global: int
    region_counts: tuple[int, ...]
    seed: int
    # fixed input standardization (not trained); the identity in a new network
    input_mean: np.ndarray
    input_std: np.ndarray
    conv_w0: list[np.ndarray] = field(init=False, repr=False)
    conv_w1: list[np.ndarray] = field(init=False, repr=False)
    conv_b: list[np.ndarray] = field(init=False, repr=False)
    vertex_w: np.ndarray = field(init=False, repr=False)
    vertex_b: np.ndarray = field(init=False, repr=False)
    global_w: np.ndarray = field(init=False, repr=False)
    global_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        views = self.tensors()
        n = 3 * self.n_layers
        self.conv_w0, self.conv_w1, self.conv_b = views[0:n:3], views[1:n:3], views[2:n:3]
        self.vertex_w, self.vertex_b, self.global_w, self.global_b = views[n:]

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    def tensors(self) -> list[np.ndarray]:
        """All parameter arrays in checkpoint order, as views of ``flat``."""
        layout = _layout(tuple(self.widths), self.k_vertex, self.k_global, self.region_counts)
        return [self.flat[a:b].reshape(shape) for a, b, shape in layout]


@dataclass(frozen=True)
class TrainConfig:
    """The ``[train]`` settings; the field defaults are the run defaults."""

    eta1: float = 0.1
    eta2: float = 0.1
    learning_rate: float = 1e-4
    momentum: float = 0.9
    epochs: int = 60
    batch_size: int = 16
    seed: int = 0
    width: int = 64  # features per vertex after each graph conv layer
    val_fraction: float = 0.2  # share of the train cases held out for validation

    def __post_init__(self):
        # each test is written so that NaN fails it
        for name in ("eta1", "eta2", "epochs", "seed"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be at least 0")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        for name in ("batch_size", "width"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")


def _glorot(rng: np.random.Generator, out: np.ndarray, eff_fan_in: float | None = None) -> None:
    fan_in, fan_out = out.shape
    limit = np.sqrt(6.0 / ((eff_fan_in or fan_in) + fan_out))
    out[...] = rng.uniform(-limit, limit, size=out.shape)


def init_params(
    input_width: int,
    k_vertex: int,
    k_global: int,
    topo: MeshTopology,
    width: int,
    seed: int,
) -> GraphResNetParams:
    """Glorot-initialized float32 parameters sized by ``topo``'s vertices, regions
    and degree; each float64 draw is rounded into its float32 view.

    The input standardization starts as the identity: mean 0, deviation 1.
    """
    widths = [input_width] + [width] * N_LAYERS
    size = _layout(tuple(widths), k_vertex, k_global, topo.region_counts)[-1][1]
    params = GraphResNetParams(
        np.zeros(size, dtype=np.float32), widths, k_vertex, k_global, topo.region_counts, seed,
        input_mean=np.zeros(input_width), input_std=np.ones(input_width),
    )
    rng = np.random.default_rng(seed)
    for w0, w1 in zip(params.conv_w0, params.conv_w1):
        _glorot(rng, w0)
        # neighbor features are correlated, so the sum over N(p) scales the
        # effective fan-in of W1 by degree squared
        _glorot(rng, w1, eff_fan_in=w1.shape[0] * max(topo.mean_degree, 1.0) ** 2)
    _glorot(rng, params.vertex_w)
    _glorot(rng, params.global_w)
    return params


def graph_conv(
    h: np.ndarray,
    w0: np.ndarray,
    w1: np.ndarray,
    adjacency,
    bias: np.ndarray | None = None,
    activate: bool = True,
) -> np.ndarray:
    """One graph convolution layer, optionally ReLU-rectified.

    ``adjacency`` is the symmetric 0/1 neighbour matrix, dense or sparse.
    """
    z = _conv_preacts(h, adjacency @ h, w0, w1, bias)
    return np.maximum(z, 0.0) if activate else z


def _conv_preacts(
    h: np.ndarray, neighbour_sums: np.ndarray, w0: np.ndarray, w1: np.ndarray,
    bias: np.ndarray | None,
) -> np.ndarray:
    """``h W0 + (A h) W1 + b``, given the neighbour sums ``A h``."""
    if h.shape[1] != w0.shape[0]:
        raise GraphNetError(
            f"feature width {h.shape[1]} does not match weight fan-in {w0.shape[0]}"
        )
    z = h @ w0 + neighbour_sums @ w1
    if bias is not None:
        z = z + bias
    return z


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _region_pool(h: np.ndarray, region_counts: tuple[int, ...]) -> np.ndarray:
    return np.stack(
        [h[a:b].mean(axis=0) for a, b in region_ranges(region_counts)]
    )


def _forward_cache(
    params: GraphResNetParams, feats: np.ndarray, topo: MeshTopology
) -> dict:
    if feats.shape[1] != params.widths[0]:
        raise GraphNetError(
            f"feature width {feats.shape[1]} does not match network input "
            f"width {params.widths[0]}"
        )
    if feats.shape[0] != topo.n_vertices:
        raise GraphNetError(
            f"{feats.shape[0]} feature rows do not match the mesh's {topo.n_vertices} vertices"
        )
    n_layers = params.n_layers
    # standardized in float64, then cast once to the network's dtype
    h = (np.asarray(feats, dtype=np.float64) - params.input_mean) / params.input_std
    h = h.astype(params.flat.dtype)
    inputs, neighbour_sums, preacts, shortcuts = [], [], [], []
    saved = None
    for layer in range(n_layers):
        if layer % 2 == 0:
            saved = h
        inputs.append(h)
        neighbour_sums.append(topo.adjacency @ h)
        z = _conv_preacts(
            h, neighbour_sums[-1], params.conv_w0[layer], params.conv_w1[layer],
            params.conv_b[layer],
        )
        added = layer % 2 == 1 and saved.shape == z.shape
        if added:
            z = z + saved
        shortcuts.append(added)
        preacts.append(z)
        h = np.maximum(z, 0.0) if layer < n_layers - 1 else z
    if not np.isfinite(h).all():
        raise GraphNetError("non-finite activations in forward pass")
    vertex_logits = h @ params.vertex_w + params.vertex_b
    pooled = _region_pool(h, params.region_counts)
    hvp = np.concatenate([pooled.ravel(), h.ravel()])
    global_logits = hvp @ params.global_w + params.global_b
    return {
        "inputs": inputs,
        "neighbour_sums": neighbour_sums,
        "preacts": preacts,
        "shortcuts": shortcuts,
        "final": h,
        "hvp": hvp,
        "vertex_probs": _softmax(vertex_logits),
        "global_probs": _softmax(global_logits),
    }


def forward(
    params: GraphResNetParams, feats: np.ndarray, topo: MeshTopology
) -> tuple[np.ndarray, np.ndarray]:
    """Vertex softmax probabilities (V, K_v) and global probabilities (K_g,)."""
    cache = _forward_cache(params, feats, topo)
    return cache["vertex_probs"], cache["global_probs"]


def loss(
    vertex_probs: np.ndarray,
    global_probs: np.ndarray,
    vertex_targets: np.ndarray,
    global_target: np.ndarray,
    eta1: float,
    eta2: float,
) -> float:
    """eta1 * summed per-vertex cross-entropy + eta2 * global cross-entropy, one-hot targets."""
    vp = np.clip(vertex_probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    gp = np.clip(global_probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    l_vertex = -float((vertex_targets * np.log(vp)).sum())
    l_global = -float((global_target * np.log(gp)).sum())
    return eta1 * l_vertex + eta2 * l_global


def backward(
    params: GraphResNetParams,
    feats: np.ndarray,
    topo: MeshTopology,
    vertex_targets: np.ndarray,
    global_target: np.ndarray,
    eta1: float,
    eta2: float,
) -> tuple[float, GraphResNetParams]:
    """Loss value and its gradient, as a params-shaped structure.

    The gradient is not checked: :func:`train` checks each batch's sum.
    """
    cache = _forward_cache(params, feats, topo)
    value = loss(
        cache["vertex_probs"], cache["global_probs"],
        vertex_targets, global_target, eta1, eta2,
    )
    n_layers = params.n_layers
    a = topo.adjacency
    h = cache["final"]
    n_nodes, width = h.shape

    d_vlogits = eta1 * (cache["vertex_probs"] - vertex_targets)
    d_glogits = eta2 * (cache["global_probs"] - global_target)

    grads = dataclasses.replace(params, flat=np.empty_like(params.flat))
    np.matmul(h.T, d_vlogits, out=grads.vertex_w)
    d_vlogits.sum(axis=0, out=grads.vertex_b)
    # np.outer(hvp, d), a column at a time: the long axis innermost
    for k, d_k in enumerate(d_glogits):
        np.multiply(cache["hvp"], d_k, out=grads.global_w[:, k])
    grads.global_b[...] = d_glogits

    d_hvp = params.global_w @ d_glogits
    n_regions = len(params.region_counts)
    d_pool = d_hvp[: n_regions * width].reshape(n_regions, width)
    d_h = d_hvp[n_regions * width :].reshape(n_nodes, width).copy()
    d_h += d_vlogits @ params.vertex_w.T
    for r, (ra, rb) in enumerate(region_ranges(params.region_counts)):
        d_h[ra:rb] += d_pool[r] / (rb - ra)

    d_saved = None
    for layer in reversed(range(n_layers)):
        z = cache["preacts"][layer]
        dz = d_h if layer == n_layers - 1 else d_h * (z > 0.0)
        np.matmul(cache["inputs"][layer].T, dz, out=grads.conv_w0[layer])
        np.matmul(cache["neighbour_sums"][layer].T, dz, out=grads.conv_w1[layer])
        dz.sum(axis=0, out=grads.conv_b[layer])
        if layer == 0:
            break  # nothing reads the gradient of the network's input
        d_h = dz @ params.conv_w0[layer].T + a @ (dz @ params.conv_w1[layer].T)
        if layer % 2 == 1 and cache["shortcuts"][layer]:
            d_saved = dz
        if layer % 2 == 0 and d_saved is not None:
            d_h = d_h + d_saved
            d_saved = None
    return value, grads


def _check_labels(cases: list[tuple[np.ndarray, np.ndarray, int]], split: str) -> None:
    for i, (_, vt, gt) in enumerate(cases):
        for name, labels in (("vertex", vt), ("global", gt)):
            labels = np.asarray(labels)
            if not np.issubdtype(labels.dtype, np.integer) or (labels < 0).any():
                raise GraphNetError(
                    f"{split} case {i}: {name} labels must be non-negative integers"
                )


def _row_sum(parts: Iterable[np.ndarray]) -> np.ndarray:
    """The column sums of the rows of ``parts``, added in the order that
    ``np.concatenate(parts).sum(axis=0)`` adds them, without that copy: each later
    part's rows are added one at a time onto the running sum."""
    total = None
    for part in parts:
        total = part.sum(axis=0) if total is None else np.vstack([total, part]).sum(axis=0)
    return total


@dataclass
class TrainLog:
    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float | None] = field(default_factory=list)
    val_acc: list[float | None] = field(default_factory=list)

    def to_csv(self, path: str) -> None:
        rows = zip(self.epochs, self.train_loss, self.val_loss, self.val_acc)
        write_csv(path, "epoch,train_loss,val_loss,val_acc", rows)


def train(
    dataset: list[tuple[np.ndarray, np.ndarray, int]],
    topo: MeshTopology,
    cfg: TrainConfig,
    validation: list[tuple[np.ndarray, np.ndarray, int]],
) -> tuple[GraphResNetParams, TrainLog]:
    """Momentum gradient descent over (features, vertex labels, global label) cases.

    Deterministic given the config seed. An empty ``validation`` means no
    validation split. With one, returns the parameters of the first epoch
    with the best validation accuracy, and stops after the first epoch whose
    accuracy is 1.0, since no later epoch can beat it; ``cfg.epochs`` is a
    maximum. Training starts from :func:`init_params` sized by ``topo``,
    with the training features' scaling.

    Each batch's cases run on ``min(CPUs, batch size, training cases)``
    processes: the calling one and ones forked from it. The batch is cut
    into contiguous shares in batch order, the calling process's first. The
    batch's gradient sum is passed along the processes in that order, each
    adding its own cases one at a time, and the losses are added in case
    order, so every sum takes the same steps on any number of processes, and
    so do the parameters and the log. The validation split runs in the
    calling process, in case order.
    """
    if not dataset:
        raise GraphNetError("empty training dataset")
    _check_labels(dataset, "training")
    _check_labels(validation, "validation")
    every = dataset + validation
    k_vertex = int(max(vt.max() for _, vt, _ in every)) + 1
    k_global = int(max(g for _, _, g in every)) + 1
    feats0, _, _ = dataset[0]
    params = init_params(
        feats0.shape[1], k_vertex, k_global, topo, width=cfg.width, seed=cfg.seed
    )
    # one-hot targets in the network's dtype, built once for every epoch
    eye_v, eye_g = (np.eye(k, dtype=params.flat.dtype) for k in (k_vertex, k_global))
    train_cases, val_cases = (
        [(f, eye_v[vt], eye_g[g]) for f, vt, g in cases] for cases in (dataset, validation)
    )
    # the mean and std of every training row, bit for bit those of their concatenation
    feats = [f for f, _, _ in dataset]
    n_rows = sum(len(f) for f in feats)
    mean = _row_sum(feats) / n_rows
    std = np.sqrt(_row_sum(np.square(f - mean) for f in feats) / n_rows)
    # the workers read the parameters and add to the batch's gradient sum in shared memory
    params = dataclasses.replace(
        params, flat=_shared(params.flat), input_mean=mean, input_std=np.maximum(std, 1e-8)
    )
    grad_sum = _shared(params.flat)  # each batch's first case overwrites it

    def case_grads(i: int, epoch: int) -> tuple[float, np.ndarray]:
        feats, vt, gt = train_cases[i]
        value, grads = backward(params, feats, topo, vt, gt, cfg.eta1, cfg.eta2)
        if not np.isfinite(value):
            raise GraphNetError(f"divergence at epoch {epoch}")
        return value, grads.flat

    def add(grads: np.ndarray, first: bool) -> None:
        """Add a case's gradient to the batch's sum, which the batch's first case starts."""
        if first:
            grad_sum[...] = grads
        else:
            np.add(grad_sum, grads, out=grad_sum)

    def serve(conn: Connection) -> None:
        """A forked worker's part: its share of each batch."""
        while (job := conn.recv()) is not None:
            epoch, share = job
            try:
                computed = [case_grads(i, epoch) for i in share]
            finally:
                conn.recv()  # the sum holds every earlier case; a failure is raised in turn
            for _, grads in computed:
                add(grads, first=False)
            conn.send([value for value, _ in computed])

    def evaluate() -> tuple[float, float]:
        """Mean loss and global accuracy over the validation cases."""
        total, correct = 0.0, 0
        for feats, vt, gt in val_cases:
            vp, gp = forward(params, feats, topo)
            total += loss(vp, gp, vt, gt, cfg.eta1, cfg.eta2)
            correct += bool(classify_gc(gp) - 1 == gt.argmax())
        return total / len(val_cases), correct / len(val_cases)

    rng = np.random.default_rng(cfg.seed)
    velocity = np.zeros_like(params.flat)
    log = TrainLog()
    best_acc, best = -1.0, params.flat.copy()
    with forked(min(cpus(), cfg.batch_size, len(dataset)) - 1, serve) as team:
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(dataset))
            total = 0.0
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                parts = np.array_split(batch, len(team) + 1)
                for worker, part in zip(team, parts[1:]):
                    worker.send((epoch, part.tolist()))
                for j, i in enumerate(parts[0]):
                    value, grads = case_grads(i, epoch)
                    total += value
                    add(grads, first=j == 0)
                for worker in team:
                    worker.send(True)  # its turn to add to the sum
                    for value in worker.recv():
                        total += value
                # a non-finite addend makes the sum non-finite
                if not np.isfinite(grad_sum).all():
                    raise GraphNetError(f"non-finite gradient at epoch {epoch}")
                velocity *= cfg.momentum
                velocity -= cfg.learning_rate * (grad_sum / len(batch))
                params.flat += velocity
            mean_loss = total / len(dataset)
            vl = va = None
            if validation:
                vl, va = evaluate()
                if va > best_acc:
                    best_acc, best[...] = va, params.flat
            log.epochs.append(epoch)
            log.train_loss.append(mean_loss)
            log.val_loss.append(vl)
            log.val_acc.append(va)
            if va == 1.0:
                break
        for worker in team:
            worker.send(None)
            worker.recv()
    if validation:
        return dataclasses.replace(params, flat=best), log
    return params, log


def _shared(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` in memory that processes forked later share."""
    out = np.frombuffer(mmap.mmap(-1, a.nbytes), dtype=a.dtype)
    out[...] = a
    return out


def save_params(params: GraphResNetParams, path: str) -> None:
    """Checkpoint: text header plus ``params.flat`` as a little-endian f32 payload.

    The header names the payload's dtype and the global head's input length.
    """
    with open(path, "wb") as f:
        header = (
            f"layers {params.n_layers}\n"
            f"widths {' '.join(str(w) for w in params.widths)}\n"
            f"k_vertex {params.k_vertex}\n"
            f"k_global {params.k_global}\n"
            f"regions {' '.join(str(c) for c in params.region_counts)}\n"
            f"global_inputs {params.global_w.shape[0]}\n"
            f"seed {params.seed}\n"
            f"input_mean {' '.join(f'{v:.17g}' for v in params.input_mean)}\n"
            f"input_std {' '.join(f'{v:.17g}' for v in params.input_std)}\n"
            "dtype f32\n"
            "end\n"
        )
        f.write(header.encode())
        f.write(params.flat.astype("<f4", copy=False))


def load_params(path: str) -> GraphResNetParams:
    with open(path, "rb") as f:
        header = []
        while (line := f.readline()) != b"end\n":
            if not line.endswith(b"\n"):
                raise GraphNetError(f"{path}: truncated header")
            header.append(line)
        raw = f.read()
    try:
        fields, line_of = {}, {}
        for n, line in enumerate(header, 1):
            key, *rest = line.decode().split()
            if key in fields:
                raise GraphNetError(f"{path}:{n}: {key} is already set on line {line_of[key]}")
            fields[key], line_of[key] = rest, n
        if fields.get("dtype") != ["f32"]:  # the older float64 format has no dtype line
            raise GraphNetError(
                f"{path}: not a float32 checkpoint (no 'dtype f32' line); train again to write one"
            )
        payload = np.frombuffer(raw, dtype="<f4")
        n_layers = int(fields["layers"][0])
        widths = [int(w) for w in fields["widths"]]
        if len(widths) != n_layers + 1:
            raise ValueError(f"{n_layers} layers take {n_layers + 1} widths, not {len(widths)}")
        k_vertex = int(fields["k_vertex"][0])
        k_global = int(fields["k_global"][0])
        region_counts = tuple(int(c) for c in fields["regions"])
        global_inputs = int(fields["global_inputs"][0])
        seed = int(fields["seed"][0])
        mean = np.array([float(v) for v in fields["input_mean"]])
        std = np.array([float(v) for v in fields["input_std"]])
    except (KeyError, IndexError, ValueError) as exc:
        raise GraphNetError(f"{path}: malformed checkpoint: {exc!r}") from exc
    layout = _layout(tuple(widths), k_vertex, k_global, region_counts)
    global_w_rows = layout[-2][2][0]
    if global_inputs != global_w_rows:
        raise GraphNetError(
            f"{path}: malformed checkpoint: global_inputs {global_inputs}, the widths and "
            f"regions give {global_w_rows}"
        )
    expected = layout[-1][1]
    if expected != len(payload):
        raise GraphNetError(
            f"{path}: payload holds {len(payload)} values, header implies {expected}"
        )
    for name, values in (("input_mean", mean), ("input_std", std)):
        if len(values) != widths[0]:
            raise GraphNetError(
                f"{path}: malformed checkpoint: {name} holds {len(values)} values, "
                f"the input width is {widths[0]}"
            )
    return GraphResNetParams(
        payload.astype(np.float32), widths, k_vertex, k_global, region_counts, seed, mean, std
    )
