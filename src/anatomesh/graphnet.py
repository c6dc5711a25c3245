"""Graph residual network over the mesh: forward, backprop, training, voting.

Each graph convolution is h'_p = W0^T h_p + sum_{p' in N(p)} W1^T h_{p'} + b
with W1 shared across edges. Six layers, identity shortcuts after every
second layer (applied when the widths match), ReLU after every layer except
the last. Two heads: a per-vertex softmax classifier and a global classifier
over the concatenation of 4 region-pooled vectors and all vertex embeddings.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .mesh import MeshTopology, region_ranges
from .volume import LabelVolume

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
    "classify_pv",
    "classify_vv",
    "classify_gc",
    "save_params",
    "load_params",
]

PROB_CLAMP = 1e-7
# graph conv layers of a new network, as in the paper
N_LAYERS = 6


class GraphNetError(RuntimeError):
    """Shape mismatch or numerical failure in the graph network."""


@dataclass
class GraphResNetParams:
    """Conv layer weights plus vertex and global classification heads."""

    conv_w0: list[np.ndarray]
    conv_w1: list[np.ndarray]
    conv_b: list[np.ndarray]
    vertex_w: np.ndarray
    vertex_b: np.ndarray
    global_w: np.ndarray
    global_b: np.ndarray
    region_counts: tuple[int, ...]
    seed: int = 0
    # fixed input standardization (not trained); identity by default
    input_mean: np.ndarray | None = None
    input_std: np.ndarray | None = None

    @property
    def n_layers(self) -> int:
        return len(self.conv_w0)

    @property
    def widths(self) -> list[int]:
        return [self.conv_w0[0].shape[0]] + [w.shape[1] for w in self.conv_w0]

    @property
    def k_vertex(self) -> int:
        return self.vertex_w.shape[1]

    @property
    def k_global(self) -> int:
        return self.global_w.shape[1]

    def tensors(self) -> list[np.ndarray]:
        """All parameter arrays in checkpoint order."""
        out = []
        for w0, w1, b in zip(self.conv_w0, self.conv_w1, self.conv_b):
            out += [w0, w1, b]
        out += [self.vertex_w, self.vertex_b, self.global_w, self.global_b]
        return out

    def copy(self) -> "GraphResNetParams":
        return copy.deepcopy(self)


@dataclass(frozen=True)
class TrainConfig:
    """The ``[train]`` settings but ``width`` and ``val_fraction``; the field
    defaults are the run defaults."""

    eta1: float = 0.1
    eta2: float = 0.1
    learning_rate: float = 1e-4
    momentum: float = 0.9
    epochs: int = 60
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        # each test is written so that NaN fails it
        for name in ("eta1", "eta2", "epochs", "seed"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be at least 0")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not self.batch_size >= 1:
            raise ValueError("batch_size must be at least 1")


def _glorot(
    rng: np.random.Generator, fan_in: int, fan_out: int, eff_fan_in: float | None = None
) -> np.ndarray:
    limit = np.sqrt(6.0 / ((eff_fan_in or fan_in) + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(
    input_width: int,
    k_vertex: int,
    k_global: int,
    topo: MeshTopology,
    width: int = 64,
    seed: int = 0,
) -> GraphResNetParams:
    """Glorot-initialized parameters sized by ``topo``'s vertices, regions and degree."""
    rng = np.random.default_rng(seed)
    w0s, w1s, bs = [], [], []
    w_in = input_width
    for _ in range(N_LAYERS):
        w0s.append(_glorot(rng, w_in, width))
        # neighbor features are correlated, so the sum over N(p) scales the
        # effective fan-in of W1 by degree squared
        w1s.append(_glorot(rng, w_in, width, eff_fan_in=w_in * max(topo.mean_degree, 1.0) ** 2))
        bs.append(np.zeros(width))
        w_in = width
    vertex_w = _glorot(rng, width, k_vertex)
    hvp_len = (len(topo.region_counts) + topo.n_vertices) * width
    global_w = _glorot(rng, hvp_len, k_global)
    return GraphResNetParams(
        conv_w0=w0s,
        conv_w1=w1s,
        conv_b=bs,
        vertex_w=vertex_w,
        vertex_b=np.zeros(k_vertex),
        global_w=global_w,
        global_b=np.zeros(k_global),
        region_counts=topo.region_counts,
        seed=seed,
    )


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
    if feats.shape[1] != params.conv_w0[0].shape[0]:
        raise GraphNetError(
            f"feature width {feats.shape[1]} does not match network input "
            f"width {params.conv_w0[0].shape[0]}"
        )
    if feats.shape[0] != topo.n_vertices:
        raise GraphNetError(
            f"{feats.shape[0]} feature rows do not match the mesh's {topo.n_vertices} vertices"
        )
    n_layers = params.n_layers
    h = np.asarray(feats, dtype=np.float64)
    if params.input_mean is not None:
        h = (h - params.input_mean) / params.input_std
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
    eta1: float = 0.1,
    eta2: float = 0.1,
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
    eta1: float = 0.1,
    eta2: float = 0.1,
) -> tuple[float, GraphResNetParams]:
    """Loss value and its gradient, as a params-shaped structure."""
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

    g_vertex_w = h.T @ d_vlogits
    g_vertex_b = d_vlogits.sum(axis=0)
    g_global_w = (d_glogits[:, None] * cache["hvp"]).T  # np.outer(hvp, d), long axis innermost
    g_global_b = d_glogits.copy()

    d_hvp = params.global_w @ d_glogits
    n_regions = len(params.region_counts)
    d_pool = d_hvp[: n_regions * width].reshape(n_regions, width)
    d_h = d_hvp[n_regions * width :].reshape(n_nodes, width).copy()
    d_h += d_vlogits @ params.vertex_w.T
    for r, (ra, rb) in enumerate(region_ranges(params.region_counts)):
        d_h[ra:rb] += d_pool[r] / (rb - ra)

    g_w0 = [None] * n_layers
    g_w1 = [None] * n_layers
    g_b = [None] * n_layers
    d_saved = None
    for layer in reversed(range(n_layers)):
        z = cache["preacts"][layer]
        dz = d_h if layer == n_layers - 1 else d_h * (z > 0.0)
        g_w0[layer] = cache["inputs"][layer].T @ dz
        g_w1[layer] = cache["neighbour_sums"][layer].T @ dz
        g_b[layer] = dz.sum(axis=0)
        if layer == 0:
            break  # nothing reads the gradient of the network's input
        d_h = dz @ params.conv_w0[layer].T + a @ (dz @ params.conv_w1[layer].T)
        if layer % 2 == 1 and cache["shortcuts"][layer]:
            d_saved = dz
        if layer % 2 == 0 and d_saved is not None:
            d_h = d_h + d_saved
            d_saved = None
    grads = GraphResNetParams(
        conv_w0=g_w0,
        conv_w1=g_w1,
        conv_b=g_b,
        vertex_w=g_vertex_w,
        vertex_b=g_vertex_b,
        global_w=g_global_w,
        global_b=g_global_b,
        region_counts=params.region_counts,
        seed=params.seed,
    )
    for t in grads.tensors():
        if not np.isfinite(t).all():
            raise GraphNetError("non-finite gradient")
    return value, grads


def _one_hot(idx: np.ndarray | int, k: int) -> np.ndarray:
    return np.eye(k)[np.asarray(idx)]


def _check_labels(cases: list[tuple[np.ndarray, np.ndarray, int]], split: str) -> None:
    for i, (_, vt, gt) in enumerate(cases):
        for name, labels in (("vertex", vt), ("global", gt)):
            labels = np.asarray(labels)
            if not np.issubdtype(labels.dtype, np.integer) or (labels < 0).any():
                raise GraphNetError(
                    f"{split} case {i}: {name} labels must be non-negative integers"
                )


@dataclass
class TrainLog:
    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float | None] = field(default_factory=list)
    val_acc: list[float | None] = field(default_factory=list)

    def to_csv(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("epoch,train_loss,val_loss,val_acc\n")
            for e, tl, vl, va in zip(
                self.epochs, self.train_loss, self.val_loss, self.val_acc
            ):
                vls = "" if vl is None else f"{vl:.9g}"
                vas = "" if va is None else f"{va:.9g}"
                f.write(f"{e},{tl:.9g},{vls},{vas}\n")


def train(
    dataset: list[tuple[np.ndarray, np.ndarray, int]],
    topo: MeshTopology,
    cfg: TrainConfig,
    validation: list[tuple[np.ndarray, np.ndarray, int]] | None = None,
    width: int = 64,
) -> tuple[GraphResNetParams, TrainLog]:
    """Momentum gradient descent over (features, vertex labels, global label) cases.

    Deterministic given the config seed. With a validation split, returns the
    parameters of the first epoch with the best validation accuracy, and stops
    after the first epoch whose accuracy is 1.0, since no later epoch can beat
    it; ``cfg.epochs`` is a maximum. Training starts from :func:`init_params`
    sized by ``topo``, with the training features' scaling.
    """
    if not dataset:
        raise GraphNetError("empty training dataset")
    validation = validation or []
    _check_labels(dataset, "training")
    _check_labels(validation, "validation")
    every = dataset + validation
    k_vertex = int(max(vt.max() for _, vt, _ in every)) + 1
    k_global = int(max(g for _, _, g in every)) + 1
    # one-hot targets, built once for every epoch
    train_cases, val_cases = (
        [(f, _one_hot(vt, k_vertex), _one_hot(g, k_global)) for f, vt, g in cases]
        for cases in (dataset, validation)
    )
    feats0, _, _ = dataset[0]
    params = init_params(
        feats0.shape[1], k_vertex, k_global, topo, width=width, seed=cfg.seed
    )
    stacked = np.concatenate([f for f, _, _ in dataset])
    params.input_mean = stacked.mean(axis=0)
    params.input_std = np.maximum(stacked.std(axis=0), 1e-8)
    rng = np.random.default_rng(cfg.seed)
    velocity = [np.zeros_like(t) for t in params.tensors()]
    log = TrainLog()
    best_acc, best_params = -1.0, params.copy()
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        total = 0.0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            acc_grads = None
            for i in batch:
                feats, vt, gt = train_cases[i]
                value, grads = backward(params, feats, topo, vt, gt, cfg.eta1, cfg.eta2)
                if not np.isfinite(value):
                    raise GraphNetError(f"divergence at epoch {epoch}")
                total += value
                if acc_grads is None:
                    acc_grads = grads.tensors()
                else:
                    for agrad, g in zip(acc_grads, grads.tensors()):
                        agrad += g
            tensors = params.tensors()
            for v, t, g in zip(velocity, tensors, acc_grads):
                v *= cfg.momentum
                v -= cfg.learning_rate * (g / len(batch))
                t += v
        mean_loss = total / len(dataset)
        vl = va = None
        if validation:
            vl, va = _evaluate(params, topo, val_cases, cfg)
            if va > best_acc:
                best_acc, best_params = va, params.copy()
        log.epochs.append(epoch)
        log.train_loss.append(mean_loss)
        log.val_loss.append(vl)
        log.val_acc.append(va)
        if va == 1.0:
            break
    if validation:
        return best_params, log
    return params, log


def _evaluate(params, topo, cases, cfg) -> tuple[float, float]:
    """Mean loss and global accuracy over (features, one-hot, one-hot) cases."""
    total, correct = 0.0, 0
    for feats, vt, gt in cases:
        vp, gp = forward(params, feats, topo)
        total += loss(vp, gp, vt, gt, cfg.eta1, cfg.eta2)
        if classify_gc(gp) - 1 == gt.argmax():
            correct += 1
    return total / len(cases), correct / len(cases)


def classify_pv(
    pred_labels: LabelVolume,
    classes: set[int],
    threshold: int,
    default: int,
) -> int:
    """Pixel voting: the mass label with the most voxels, if at least ``threshold``.

    Ties go to the lower class id; below threshold returns ``default``.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    counts = np.bincount(pred_labels.data.ravel())
    best_label, best_count = None, -1
    for c in sorted(classes):
        n = int(counts[c]) if c < len(counts) else 0
        if n > best_count:
            best_label, best_count = c, n
    if best_label is None or best_count < max(threshold, 1):
        return default
    return best_label


def classify_vv(vertex_probs: np.ndarray, mass_classes: set[int], default: int) -> int:
    """Vertex voting: majority argmax class among mass-voting vertices."""
    votes = vertex_probs.argmax(axis=1)
    mass_votes = votes[np.isin(votes, list(mass_classes))]
    if mass_votes.size == 0:
        return default
    counts = np.bincount(mass_votes)
    return int(counts.argmax())  # argmax takes the first (lowest) on ties


def classify_gc(global_probs: np.ndarray) -> int:
    """Global classification: 1-based argmax, ties to the lower class id."""
    return int(np.asarray(global_probs).argmax()) + 1


def save_params(params: GraphResNetParams, path: str) -> None:
    """Checkpoint: text header plus little-endian f64 payload in tensor order."""
    widths = params.widths
    with open(path, "wb") as f:
        header = (
            f"layers {params.n_layers}\n"
            f"widths {' '.join(str(w) for w in widths)}\n"
            f"k_vertex {params.k_vertex}\n"
            f"k_global {params.k_global}\n"
            f"regions {' '.join(str(c) for c in params.region_counts)}\n"
            f"seed {params.seed}\n"
        )
        if params.input_mean is not None:
            header += (
                f"input_mean {' '.join(f'{v:.17g}' for v in params.input_mean)}\n"
                f"input_std {' '.join(f'{v:.17g}' for v in params.input_std)}\n"
            )
        header += "end\n"
        f.write(header.encode())
        for t in params.tensors():
            f.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def load_params(path: str) -> GraphResNetParams:
    with open(path, "rb") as f:
        header = []
        while (line := f.readline()) != b"end\n":
            if not line.endswith(b"\n"):
                raise GraphNetError(f"{path}: truncated header")
            header.append(line)
        raw = f.read()
    try:
        payload = np.frombuffer(raw, dtype="<f8")
        fields = {key: rest for key, *rest in (line.decode().split() for line in header)}
        n_layers = int(fields["layers"][0])
        widths = [int(w) for w in fields["widths"]]
        k_vertex = int(fields["k_vertex"][0])
        k_global = int(fields["k_global"][0])
        region_counts = tuple(int(c) for c in fields["regions"])
        seed = int(fields["seed"][0])
        shapes = []
        for layer in range(n_layers):
            w_in, w_out = widths[layer], widths[layer + 1]
            shapes += [(w_in, w_out), (w_in, w_out), (w_out,)]
        width = widths[-1]
        mean = std = None
        if "input_mean" in fields:
            mean = np.array([float(v) for v in fields["input_mean"]])
            std = np.array([float(v) for v in fields["input_std"]])
    except (KeyError, IndexError, ValueError) as exc:
        raise GraphNetError(f"{path}: malformed checkpoint: {exc!r}") from exc
    # the global head reads every region-pooled and every vertex embedding
    hvp_len = (len(region_counts) + sum(region_counts)) * width
    shapes += [(width, k_vertex), (k_vertex,), (hvp_len, k_global), (k_global,)]
    expected = sum(int(np.prod(s)) for s in shapes)
    if expected != len(payload):
        raise GraphNetError(
            f"{path}: payload holds {len(payload)} values, header implies {expected}"
        )
    tensors = []
    pos = 0
    for s in shapes:
        n = int(np.prod(s))
        tensors.append(payload[pos : pos + n].reshape(s).copy())
        pos += n
    conv_w0 = [tensors[3 * i] for i in range(n_layers)]
    conv_w1 = [tensors[3 * i + 1] for i in range(n_layers)]
    conv_b = [tensors[3 * i + 2] for i in range(n_layers)]
    return GraphResNetParams(
        conv_w0, conv_w1, conv_b,
        tensors[3 * n_layers], tensors[3 * n_layers + 1],
        tensors[3 * n_layers + 2], tensors[3 * n_layers + 3],
        region_counts, seed, mean, std,
    )
