"""Pure-Python reference of gowersim's random stream: the key fold, the words and the three
ways the samplers read them.

Word i of the stream with key K is the SplitMix64 finalizer of K + (i + 1) * GAMMA (mod
2^64): SplitMix64's output sequence from the state K.  A seed is an int >= 0 or a pair
(seed, index); each part contributes its 64-bit limbs, least significant first, then its
limb count, and each of those values v is folded as K <- mix((K ^ v) + GAMMA) from K = 0.
Everything here is plain Python integers, independent of numpy and of gowersim.
"""

GAMMA = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def mix(z):
    """The SplitMix64 finalizer of a 64-bit integer."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & MASK
    return z ^ z >> 31


def key(seed):
    k = 0
    for part in seed if isinstance(seed, tuple) else (seed,):
        limbs = [part >> at & MASK for at in range(0, max(1, part.bit_length()), 64)]
        for value in limbs + [len(limbs)]:
            k = mix((k ^ value) + GAMMA & MASK)
    return k


def words(k, start, count):
    return [mix(k + (i + 1) * GAMMA & MASK) for i in range(start, start + count)]


def draws(seed, m):
    """The m draws r = (w >> 11) / 2^53 in [0, 1) of y_bar and count_nonzero_outcomes."""
    return [(w >> 11) / 2**53 for w in words(key(seed), 0, m)]


def halves(seed, start, count):
    """uint32 halves [start, start + count) of the stream, each word's low half first."""
    ws = words(key(seed), start // 2, (start + count + 1) // 2 - start // 2)
    flat = [h for w in ws for h in (w & 0xFFFFFFFF, w >> 32)]
    return flat[start % 2 :][:count]


def table_bits(seed, size):
    """Entries of random_function's table: the top bit of each little-endian byte."""
    ws = words(key(seed), 0, max(1, (size + 7) // 8))
    return [w >> (8 * j + 7) & 1 for w in ws for j in range(8)][:size]


def blr_rejections(table, trials, seed):
    """BLR rejections on xs = top n bits of halves [0, trials), ys of [trials, 2 trials)."""
    shift = 32 - (len(table).bit_length() - 1)
    xs = [h >> shift for h in halves(seed, 0, trials)]
    ys = [h >> shift for h in halves(seed, trials, trials)]
    return sum(table[x] ^ table[y] ^ table[x ^ y] for x, y in zip(xs, ys))
