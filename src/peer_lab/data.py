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


# The Zipf 1/rank word distribution as the CDF that rng.choice(p=...) would
# build; each word draw is cdf.searchsorted(rng.random(), side="right").
_CDF = 1.0 / np.arange(1, len(_WORDS) + 1, dtype=np.float64)
_CDF /= _CDF.sum()
_CDF = _CDF.cumsum()
_CDF /= _CDF[-1]

# Token 4·w + capitalised + 2·(ends the sentence) is word w with its capital
# and its trailing " " or ". "; the last token is the paragraph break. They
# are str, not bytes: b"".join holds an 80-byte buffer record per piece.
_TOKENS = np.array(
    [
        (word.capitalize() if cap else word) + (". " if end else " ")
        for word in _WORDS
        for end in (False, True)
        for cap in (False, True)
    ]
    + ["\n\n"],
    dtype=object,
)
_TOKEN_BYTES = np.array([len(t) for t in _TOKENS], dtype=np.int64)
_PARAGRAPH = len(_TOKENS) - 1

_SENTENCE_MAX = 12  # integers(4, 13) gives 4..12 words
# text bytes per 64-bit word of the stream, rounded down from its mean of ~3.7,
# so the first draw nearly always covers n_bytes
_BYTES_PER_WORD = 3


def synthetic_text(n_bytes: int, seed: int = 0) -> bytes:
    """Deterministic English-like word salad of exactly n_bytes bytes.

    The bytes are the first n_bytes of what this loop over
    `rng = np.random.default_rng(seed)` writes, one sentence at a time:

        sent_len = rng.integers(4, 13)
        ids = _CDF.searchsorted(rng.random(sent_len), side="right")
        sentence = the words joined by " ", the first capitalised, + ". "
        if rng.random() < 0.08: sentence += "\n\n"

    `_stream_text` decodes the same PCG64 stream in bulk.
    """
    if n_bytes < 1:
        raise ValueError(f"n_bytes must be >= 1, got {n_bytes}")
    return _stream_text(np.random.PCG64(seed), n_bytes)


def _sentence_lengths(words: np.ndarray) -> bytes:
    """The sentence length `integers(4, 13)` reads from each 32-bit half of
    `words`, low half first, or 0 where Lemire's method rejects the half."""
    halves = words.astype("<u8", copy=False).view("<u4")
    m = halves.astype(np.uint64) * np.uint64(9)
    lengths = (m >> np.uint64(32)).astype(np.uint8) + np.uint8(4)
    lengths[m.astype(np.uint32) < 4] = 0  # (2^32 - 9) mod 9 = 4 values redraw
    return lengths.tobytes()


def _stream_text(bitgen: np.random.PCG64, n_bytes: int) -> bytes:
    """The first n_bytes of the sentence loop's text over `bitgen`'s stream.

    numpy's Generator decodes the 64-bit words this way: `integers(4, 13)`
    takes a 32-bit half, the buffered high half of the last word it split
    or else the low half of a fresh word (buffering the high half), and
    redraws the same way if the half is rejected; `random()` is a whole
    word, `(w >> 11) * 2**-53`, and leaves the buffer alone.
    """
    words = bitgen.random_raw(n_bytes // _BYTES_PER_WORD + 64)
    lengths = _sentence_lengths(words)
    sentences = []  # (index of the first word draw << 4) | words in the sentence
    pos, buffered = 0, -1  # the next fresh word; the buffered half, or -1
    while True:
        # a sentence starting at pos reads words up to pos + _SENTENCE_MAX + 1
        last = len(words) - _SENTENCE_MAX - 2
        while pos <= last:
            if buffered < 0:
                half, buffered = 2 * pos, 2 * pos + 1
                pos += 1
            else:
                half, buffered = buffered, -1
            n = lengths[half]
            if n:
                sentences.append(pos << 4 | n)
                pos += n + 1  # n word draws, then the paragraph draw
        first = np.array(sentences, dtype=np.int64)
        count = first & 15
        first >>= 4
        draws = (words >> np.uint64(11)) * 2.0**-53
        ends = np.cumsum(count)
        starts = ends - count
        at = np.arange(count.sum()) + np.repeat(first - starts, count)  # each word's draw
        tokens = _CDF.searchsorted(draws[at], side="right").astype(np.int32) * 4
        tokens[starts] += 1
        tokens[ends - 1] += 2
        tokens = np.insert(tokens, ends[draws[first + count] < 0.08], _PARAGRAPH)
        sizes = _TOKEN_BYTES[tokens].cumsum()
        if sizes[-1] >= n_bytes:
            break
        more = bitgen.random_raw(len(words) // 2 + 64)
        words = np.concatenate((words, more))
        lengths += _sentence_lengths(more)
    cut = int(sizes.searchsorted(n_bytes)) + 1
    return "".join(_TOKENS[tokens[:cut]].tolist())[:n_bytes].encode("ascii")


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
        """Non-overlapping validation windows covering the held-out region,
        as read-only views of one int64 copy of it."""
        held = self.stream[self.split :].astype(np.int64)
        held.flags.writeable = False
        return [(held[s : s + seq_len], held[s + 1 : s + seq_len + 1]) for s in range(0, len(held) - seq_len, seq_len)]
