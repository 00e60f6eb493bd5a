"""Error injection."""

import random

import pytest

from fcckit.channel import inject
from fcckit.errors import WeightTooLarge
from fcckit.gf import Field
from fcckit.vectors import hamming_distance


class TestInject:
    def test_weight_zero_is_identity(self):
        f = Field(5)
        cw = (1, 2, 3, 4, 0)
        assert inject(f, cw, 0, seed=11) == cw

    def test_exact_weight(self):
        f = Field(2)
        cw = (0, 1, 1, 0, 1)
        y = inject(f, cw, 2, seed=3)
        assert hamming_distance(cw, y) == 2

    def test_weight_too_large(self):
        f = Field(2)
        with pytest.raises(WeightTooLarge):
            inject(f, (0, 1, 1, 0, 1), 6, seed=0)
        with pytest.raises(WeightTooLarge):
            inject(f, (0, 1, 1, 0, 1), -1, seed=0)

    def test_seed_determinism(self):
        f = Field(7)
        cw = (0, 1, 2, 3, 4, 5, 6)
        assert inject(f, cw, 3, seed=99) == inject(f, cw, 3, seed=99)
        runs = {inject(f, cw, 3, seed=s) for s in range(8)}
        assert len(runs) > 1  # different seeds explore different errors

    def test_additive_model_has_exact_weight(self):
        # y - c must be a weight-w vector for every field, not just prime ones
        rng = random.Random(5)
        for q in (2, 3, 4, 8, 9):
            f = Field(q)
            n = 6
            cw = tuple(rng.randrange(q) for _ in range(n))
            for w in range(n + 1):
                y = inject(f, cw, w, seed=rng.randrange(10**6))
                e = tuple(f.sub(a, b) for a, b in zip(y, cw))
                assert sum(1 for x in e if x) == w

    def test_shared_generator(self):
        f = Field(2)
        rng = random.Random(1)
        first = inject(f, (0,) * 6, 2, seed=rng)
        second = inject(f, (0,) * 6, 2, seed=rng)
        assert first != second or True  # consumes state without reseeding
        assert hamming_distance((0,) * 6, second) == 2
