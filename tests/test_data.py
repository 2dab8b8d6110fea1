"""Byte tokenizer and windowing tests."""

import numpy as np
import pytest

from spikeclm.data import (BOS_ID, VOCAB_SIZE, batch_at, decode, encode,
                           load_corpus, make_windows, split_corpus)
from spikeclm.errors import ConfigError, ValidationError


class TestTokenizer:
    def test_ascii_bytes(self):
        np.testing.assert_array_equal(encode("AB"), [65, 66])
        assert encode("AB").dtype == np.int64

    def test_roundtrip_utf8(self):
        s = "héllo wörld ✓"
        assert decode(encode(s)) == s

    def test_bytes_input(self):
        np.testing.assert_array_equal(encode(b"\x00\xff"), [0, 255])

    def test_decode_drops_bos(self):
        assert decode(np.array([BOS_ID, 104, 105])) == "hi"

    def test_vocab_constants(self):
        assert VOCAB_SIZE == 257 and BOS_ID == 256

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            encode(42)
        with pytest.raises(ValidationError):
            decode(np.array([257]))
        assert decode(np.array([], dtype=np.int64)) == ""


class TestCorpus:
    def test_load(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b"abc")
        np.testing.assert_array_equal(load_corpus(p), [97, 98, 99])

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_bytes(b"")
        with pytest.raises(ValidationError):
            load_corpus(p)

    def test_split_trailing_fraction(self):
        ids = np.arange(100)
        train, val = split_corpus(ids, 0.1)
        np.testing.assert_array_equal(train, np.arange(90))
        np.testing.assert_array_equal(val, np.arange(90, 100))

    def test_split_zero_fraction(self):
        train, val = split_corpus(np.arange(5), 0.0)
        assert len(train) == 5 and len(val) == 0

    def test_split_validation(self):
        with pytest.raises(ConfigError):
            split_corpus(np.arange(10), 1.0)
        with pytest.raises(ValidationError):
            split_corpus(np.arange(1), 0.9)


class TestWindows:
    def test_bos_prefixed_next_byte(self):
        ws = make_windows(np.arange(10), 5)
        assert len(ws) == 2
        np.testing.assert_array_equal(ws.inputs,
                                      [[BOS_ID, 0, 1, 2, 3], [BOS_ID, 5, 6, 7, 8]])
        np.testing.assert_array_equal(ws.targets, [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]])

    def test_remainder_dropped(self):
        assert len(make_windows(np.arange(11), 5)) == 2

    def test_target_is_shifted_input(self):
        """At every position after the first, target[i-1] == input[i]."""
        ws = make_windows(np.arange(24), 8)
        np.testing.assert_array_equal(ws.inputs[:, 1:], ws.targets[:, :-1])

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            make_windows(np.arange(3), 5)
        with pytest.raises(ConfigError):
            make_windows(np.arange(3), 0)


class TestBatchAt:
    def test_modular_sweep(self):
        ws = make_windows(np.arange(15), 5)  # 3 windows
        x0, _ = batch_at(ws, 0, 2)
        x1, _ = batch_at(ws, 1, 2)
        x2, _ = batch_at(ws, 2, 2)
        np.testing.assert_array_equal(x0, ws.inputs[[0, 1]])
        np.testing.assert_array_equal(x1, ws.inputs[[2, 0]])
        np.testing.assert_array_equal(x2, ws.inputs[[1, 2]])

    def test_inputs_align_with_targets(self):
        ws = make_windows(np.arange(20), 5)
        xb, yb = batch_at(ws, 3, 2)
        for x, y in zip(xb, yb):
            i = np.where((ws.inputs == x).all(axis=1))[0][0]
            np.testing.assert_array_equal(ws.targets[i], y)

    def test_deterministic(self):
        ws = make_windows(np.arange(40), 4)
        a = batch_at(ws, 7, 3)
        b = batch_at(ws, 7, 3)
        np.testing.assert_array_equal(a[0], b[0])

    def test_validation(self):
        ws = make_windows(np.arange(10), 5)
        with pytest.raises(ConfigError):
            batch_at(ws, 0, 0)
