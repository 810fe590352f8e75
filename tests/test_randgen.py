from __future__ import annotations

from coincide.randgen import SplitMix64, random_instance

# First outputs of the reference stream for seed 0, as produced by the
# canonical 64-bit mix constants.  Any reimplementation must match these.
SEED0_STREAM = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_reference_stream():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(5)] == SEED0_STREAM


def test_seed_is_reduced_mod_2_64():
    assert SplitMix64((1 << 64) + 7).next_u64() == SplitMix64(7).next_u64()


def test_randint_bounds_and_determinism():
    rng = SplitMix64(42)
    values = [rng.randint(1, 16) for _ in range(1000)]
    assert all(1 <= v <= 16 for v in values)
    rng2 = SplitMix64(42)
    assert values == [rng2.randint(1, 16) for _ in range(1000)]


def test_randint_matches_modulo_contract():
    rng = SplitMix64(9)
    raw = SplitMix64(9).next_u64()
    assert rng.randint(3, 12) == 3 + raw % 10


def test_instance_draw_order():
    rng = SplitMix64(7)
    x, y = random_instance(rng)
    replay = SplitMix64(7)
    len_x = replay.randint(1, 8)
    durs_x = [replay.randint(1, 16) for _ in range(len_x)]
    len_y = replay.randint(1, 8)
    durs_y = [replay.randint(1, 16) for _ in range(len_y)]
    assert list(x.durs) == durs_x
    assert list(y.durs) == durs_y
    assert 1 <= x.length <= 8 and 1 <= y.length <= 8
