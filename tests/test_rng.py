import pytest

from supertrop.rng import GOLDEN64, MASK64, Xorshift64Star, derive_trial_seed, rejection_limit


class TestXorshift:
    def test_deterministic(self):
        a = Xorshift64Star(42)
        b = Xorshift64Star(42)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_seeds_diverge(self):
        a = Xorshift64Star(1)
        b = Xorshift64Star(2)
        assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]

    def test_word_range(self):
        rng = Xorshift64Star(7)
        for _ in range(1000):
            assert 0 <= rng.next_u64() <= MASK64

    def test_zero_seed_remapped(self):
        assert Xorshift64Star(0).state == GOLDEN64
        assert Xorshift64Star(1 << 64).state == GOLDEN64  # masked to zero

    def test_next_below(self):
        rng = Xorshift64Star(11)
        draws = [rng.next_below(7) for _ in range(2000)]
        assert set(draws) == set(range(7))
        with pytest.raises(ValueError):
            rng.next_below(0)
        assert 0 <= rng.next_below(2**64) < 2**64
        with pytest.raises(ValueError):
            rng.next_below(2**64 + 1)

    def test_rejection_limit(self):
        # The largest multiple of the bound at most 2**64: a bound just above
        # 2**63 rejects almost half of all words, a power of two none.
        assert rejection_limit(1) == rejection_limit(2**64) == 2**64
        assert rejection_limit(3) == 2**64 - 1
        assert rejection_limit(2**63 + 1) == 2**63 + 1
        for bad in (0, 2**64 + 1):
            with pytest.raises(ValueError):
                rejection_limit(bad)

    def test_next_int_inclusive(self):
        rng = Xorshift64Star(13)
        draws = [rng.next_int(-2, 2) for _ in range(2000)]
        assert set(draws) == {-2, -1, 0, 1, 2}
        assert rng.next_int(5, 5) == 5
        with pytest.raises(ValueError):
            rng.next_int(3, 2)

    def test_frozen_stream(self):
        # Pin the first few outputs so any change to the generator is loud:
        # a silent change would invalidate every recorded seed out there.
        rng = Xorshift64Star(42)
        assert [rng.next_u64() for _ in range(4)] == [
            6255019084209693600,
            14430073426741505498,
            14575455857230217846,
            17414512882241728735,
        ]


class TestTrialSeeds:
    def test_derivation(self):
        assert derive_trial_seed(42, 0) == 42
        assert derive_trial_seed(42, 1) == (42 ^ GOLDEN64) & MASK64
        assert derive_trial_seed(42, 2) == (42 ^ (2 * GOLDEN64 & MASK64)) & MASK64

    def test_distinct_across_trials(self):
        seeds = {derive_trial_seed(42, i) for i in range(10000)}
        assert len(seeds) == 10000
