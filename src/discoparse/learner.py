"""Linear model over the hashed feature space.

Updates are perceptron-style two-vector differences with per-coordinate
AdaGrad step sizes and FOBOS L1 shrinkage applied only to the touched
coordinates at the moment they are updated.
"""

import json
import math
import zipfile

import numpy as np


def _checked(name, value, positive=False):
    """``value`` as a float; refused unless finite and >= 0, or > 0 when
    ``positive``, since any other step size or strength trains NaN or
    growing weights."""
    value = float(value)
    if not math.isfinite(value) or value < 0 or positive and value == 0:
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")
    return value


class WeightStore:
    """Dense weights + squared-gradient accumulators of one dimension count.

    Storage defaults to 4-byte floats (2**27 dims -> a 512MB-class weight
    array); all update arithmetic runs in float64 before rounding back.
    """

    def __init__(self, dim, eta=0.1, lam=0.0, delta=1.0, dtype=np.float32):
        if dim <= 0 or dim & (dim - 1):
            raise ValueError(f"dimension count must be a power of two, got {dim}")
        self.dim = dim
        self.eta = _checked("eta", eta, positive=True)
        self.lam = lam
        self.delta = _checked("delta", delta)
        self.dtype = np.dtype(dtype)
        self.weights = np.zeros(dim, dtype=self.dtype)
        self.gradsq = np.zeros(dim, dtype=self.dtype)
        self.config_digest = ""
        self.extra = {}
        self.blobs = {}

    @property
    def lam(self):
        """The L1 strength; every value set is checked."""
        return self._lam

    @lam.setter
    def lam(self, value):
        self._lam = _checked("L1 strength lambda", value)

    def set_lambda_from_corpus(self, n_sentences, numerator=0.001):
        """The per-corpus L1 strength; numerator 0.001 is the good setting,
        0.1 the inferior baseline it was compared against."""
        if n_sentences < 1:
            raise ValueError("need at least one training sentence")
        self.lam = numerator / n_sentences
        return self.lam

    def set_lambda_from_dim(self, factor=0.05):
        # dimension-scaled preset; kept for completeness, corpus scaling
        # is the default path
        self.lam = factor / self.dim
        return self.lam

    def score_rows(self, rows) -> np.ndarray:
        """Row-wise scores for a 2D index matrix."""
        if rows.size == 0:
            return np.zeros(rows.shape[0])
        return self.weights[rows].sum(axis=1, dtype=np.float64)

    def update(self, fv_wrong, fv_right):
        """AdaGrad + FOBOS step on the indicator-difference gradient.

        Coordinates whose counts cancel between the two vectors are left
        completely untouched (no shrinkage, no accumulator growth).
        """
        idx = np.concatenate((np.asarray(fv_wrong, dtype=np.int64),
                              np.asarray(fv_right, dtype=np.int64)))
        if idx.size == 0:
            return
        signs = np.empty(idx.size, dtype=np.float64)
        signs[:len(fv_wrong)] = 1.0
        signs[len(fv_wrong):] = -1.0
        uniq, inverse = np.unique(idx, return_inverse=True)
        grad = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(grad, inverse, signs)
        touched = grad != 0.0
        if not touched.any():
            return
        uniq = uniq[touched]
        grad = grad[touched]

        gs = self.gradsq[uniq].astype(np.float64) + grad * grad
        denom = np.sqrt(gs + self.delta)
        z = self.weights[uniq].astype(np.float64) - self.eta * grad / denom
        shrink = self.eta * self.lam / denom
        w = np.sign(z) * np.maximum(0.0, np.abs(z) - shrink)

        self.gradsq[uniq] = gs.astype(self.dtype)
        self.weights[uniq] = w.astype(self.dtype)

    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.weights))

    def save(self, path, config_digest="", extra=None, blobs=None):
        """Write the nonzero weights as (index, value) arrays, JSON metadata
        with ``extra`` and each of ``blobs`` (name -> bytes) as a byte array.
        Without the AdaGrad accumulators, a loaded store cannot resume training."""
        meta = json.dumps({
            "dim": self.dim,
            "eta": self.eta,
            "lam": self.lam,
            "delta": self.delta,
            "dtype": self.dtype.name,
            "config_digest": config_digest,
            "extra": extra or {},
        })
        index = np.flatnonzero(self.weights)
        arrays = {"blob_" + name: np.frombuffer(b, dtype=np.uint8)
                  for name, b in (blobs or {}).items()}
        np.savez(path, index=index, value=self.weights[index],
                 meta=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8), **arrays)

    @classmethod
    def load(cls, path):
        """Rebuild the dense weights of a file written by ``save``; files
        that are not such a model raise ``ValueError``."""
        try:
            data = np.load(path)
            if isinstance(data, np.ndarray):
                raise ValueError(f"{path}: a single array, not a model file")
            with data:
                if "weights" in data.files:
                    raise ValueError(f"{path}: dense model file of an older "
                                     "version; train the model again")
                meta = json.loads(bytes(data["meta"]).decode("utf-8"))
                index = data["index"]
                value = data["value"]
                blobs = {name[5:]: data[name].tobytes() for name in data.files
                         if name.startswith("blob_")}
        except (zipfile.BadZipFile, EOFError, KeyError) as e:
            raise ValueError(f"{path}: not a readable model file ({e})") from e
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: model metadata is not a JSON object")
        bad = [key for key, ok in (
            ("dim", type(meta.get("dim")) is int),  # not a bool or a float
            *((key, type(meta.get(key)) in (int, float)) for key in ("eta", "lam", "delta")),
            ("dtype", meta.get("dtype") in ("float32", "float64")),
            ("extra", isinstance(meta.get("extra", {}), dict))) if not ok]
        if bad:
            raise ValueError(f"{path}: malformed model metadata {bad}")
        store = cls(meta["dim"], eta=meta["eta"], lam=meta["lam"],
                    delta=meta["delta"], dtype=np.dtype(meta["dtype"]))
        if (index.ndim != 1 or index.shape != value.shape or index.dtype.kind not in "iu"
                or index.size and (index.min() < 0 or index.max() >= store.dim)
                or np.unique(index).size != index.size):
            raise ValueError(f"{path}: weight indices malformed, out of range or repeated")
        store.weights[index] = value
        store.config_digest = meta.get("config_digest", "")
        store.extra = meta.get("extra", {})
        store.blobs = blobs
        return store
