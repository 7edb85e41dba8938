import numpy as np

from taskfusion.seeding import derive_seed, derive_seeds, rng_for, splitmix64

LABELS = [(), ("clip",), ("clip", 0), ("clip", 1), ("init", "enc"),
          ("shuffle", 7), (12345678901234567890,), (-1,)]


def test_derived_seeds_are_deterministic():
    for base in (0, 1, 2 ** 63, 2 ** 64 - 1, -5):
        for labels in LABELS:
            assert derive_seed(base, *labels) == derive_seed(base, *labels)
    assert derive_seed(0, "clip", 0) != derive_seed(0, "clip", 1)
    assert derive_seed(0, "clip", 0) != derive_seed(1, "clip", 0)


def test_splitmix64_matches_its_reference_values():
    # The first outputs of the splitmix64 generator seeded with 0: each
    # output is splitmix64 of the state, which steps by the golden gamma.
    state, gamma = 0, 0x9E3779B97F4A7C15
    outputs = []
    for _ in range(3):
        outputs.append(splitmix64(state))
        state = (state + gamma) % 2 ** 64
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                       0x06C45D188009454F]


def test_derived_seeds_span_64_bits():
    seeds = [derive_seed(base, *labels) for base in range(50)
             for labels in LABELS]
    assert all(0 <= s < 2 ** 64 for s in seeds)
    assert len(set(seeds)) == len(seeds)
    # the top bit is set about half the time, so the range is used
    top = sum(s >> 63 for s in seeds)
    assert 0.35 * len(seeds) < top < 0.65 * len(seeds)
    assert derive_seed(2 ** 64 + 3) == derive_seed(3)


def test_rng_for_is_pcg64_of_the_derived_seed():
    for labels in LABELS:
        want = np.random.Generator(np.random.PCG64(derive_seed(9, *labels)))
        got = rng_for(9, *labels)
        assert isinstance(got.bit_generator, np.random.PCG64)
        assert np.array_equal(got.integers(0, 2 ** 63, 16),
                              want.integers(0, 2 ** 63, 16))
        assert got.bit_generator.state == want.bit_generator.state


def test_derive_seeds_is_derive_seed_over_the_indices():
    # Ints past 2**32 and 2**64 (and negative ones) fold as labels the way
    # the index does; a count past 2**32 would not fit in memory.
    for base in (0, 7, 2 ** 64 - 1, -5):
        for labels in LABELS + [("clip", 2 ** 32 + 5), (2 ** 40, "x"),
                                ("\u00e9t\u00e9", 2 ** 64 + 3)]:
            assert derive_seeds(base, 9, *labels) == [
                derive_seed(base, *labels, i) for i in range(9)]
    assert derive_seeds(3, 0, "clip") == []
