"""Byte-level corpora: file-backed or synthetic, with a train/validation split.

Training windows are sampled strictly before the split offset (targets
included), so validation bytes never leak into training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Vocabulary used by the synthetic corpus generator; roughly Zipf-weighted
# word salad with sentence and paragraph structure, so a small model has
# unigram/bigram/word-level signal to learn.
_WORDS = (
    "the of and to in a is that it was for on are as with his they at be this from have or by one had not "
    "word but what some we can out other were all there when up use your how said an each she which do their "
    "time if will way about many then them write would like so these her long make thing see him two has look "
    "more day could go come did number sound no most people my over know water than call first who may down "
    "side been now find any new work part take get place made live where after back little only round man year "
    "came show every good me give our under name very through just form sentence great think say help low line "
    "differ turn cause much mean before move right boy old too same tell does set three want air well also play "
    "small end put home read hand port large spell add even land here must big high such follow act why ask men "
    "change went light kind off need house picture try us again animal point mother world near build self earth "
    "father head stand own page should country found answer school grow study still learn plant cover food sun "
    "four between state keep eye never last let thought city tree cross farm hard start might story saw far sea "
    "draw left late run while press close night real life few north open seem together next white children begin "
    "got walk example ease paper group always music those both mark often letter until mile river car feet care "
    "second book carry took science eat room friend began idea fish mountain stop once base hear horse cut sure "
    "watch color face wood main enough plain girl usual young ready above ever red list though feel talk bird soon "
    "body dog family direct pose leave song measure door product black short numeral class wind question happen "
    "complete ship area half rock order fire south problem piece told knew pass since top whole king space heard "
    "best hour better true during hundred five remember step early hold west ground interest reach fast verb sing "
    "listen six table travel less morning ten simple several vowel toward war lay against pattern slow center love "
    "person money serve appear road map rain rule govern pull cold notice voice unit power town fine certain fly "
    "fall lead cry dark machine note wait plan figure star box noun field rest correct able pound done beauty "
    "drive stood contain front teach week final gave green oh quick develop ocean warm free minute strong special "
    "mind behind clear tail produce fact street inch multiply nothing course stay wheel full force blue object "
    "decide surface deep moon island foot system busy test record boat common gold possible plane stead dry wonder "
    "laugh thousand ago ran check game shape equate hot miss brought heat snow tire bring yes distant fill east "
    "paint language among"
).split()


def synthetic_text(n_bytes: int, seed: int = 0) -> bytes:
    """Deterministic English-like word salad of roughly n_bytes bytes."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(_WORDS) + 1, dtype=np.float64)
    weights = 1.0 / ranks
    weights /= weights.sum()
    # the inverse-CDF draw rng.choice(len(_WORDS), size, p=weights) makes,
    # with its CDF built once instead of once per sentence
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    pieces: list[str] = []
    size = 0
    while size < n_bytes:
        sent_len = int(rng.integers(4, 13))
        words = [_WORDS[i] for i in cdf.searchsorted(rng.random(sent_len), side="right")]
        words[0] = words[0].capitalize()
        sentence = " ".join(words) + ". "
        if rng.random() < 0.08:
            sentence += "\n\n"
        pieces.append(sentence)
        size += len(sentence)
    return "".join(pieces).encode("ascii")[:n_bytes]


@dataclass
class Corpus:
    """A raw byte stream with the first `split` bytes reserved for training."""

    stream: np.ndarray  # uint8
    split: int

    def __post_init__(self):
        if self.stream.dtype != np.uint8:
            raise ValueError(f"corpus stream must be uint8, got {self.stream.dtype}")
        if not 0 < self.split <= len(self.stream):
            raise ValueError(f"split {self.split} outside stream of {len(self.stream)} bytes")

    @classmethod
    def from_bytes(cls, raw: bytes, val_fraction: float = 0.1) -> "Corpus":
        stream = np.frombuffer(raw, dtype=np.uint8).copy()
        split = int(len(stream) * (1.0 - val_fraction))
        return cls(stream=stream, split=split)

    @classmethod
    def from_file(cls, path, val_fraction: float = 0.1) -> "Corpus":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read(), val_fraction)

    @classmethod
    def synthetic(cls, n_bytes: int = 1 << 20, seed: int = 0, val_fraction: float = 0.1) -> "Corpus":
        return cls.from_bytes(synthetic_text(n_bytes, seed), val_fraction)

    def sample_windows(self, rng: np.random.Generator, batch: int, seq_len: int) -> tuple[np.ndarray, np.ndarray]:
        """Random training windows: inputs [batch, seq_len] and next-byte targets."""
        if self.split < seq_len + 1:
            raise ValueError(f"training region of {self.split} bytes too small for seq_len {seq_len}")
        starts = rng.integers(0, self.split - seq_len, size=batch)
        offsets = starts[:, None] + np.arange(seq_len)[None, :]
        x = self.stream[offsets].astype(np.int64)
        y = self.stream[offsets + 1].astype(np.int64)
        return x, y

    def val_windows(self, seq_len: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Non-overlapping validation windows covering the held-out region."""
        windows = []
        start = self.split
        while start + seq_len + 1 <= len(self.stream):
            x = self.stream[start : start + seq_len].astype(np.int64)
            y = self.stream[start + 1 : start + seq_len + 1].astype(np.int64)
            windows.append((x, y))
            start += seq_len
        return windows
