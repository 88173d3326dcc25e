"""State lists of diagrams too large for the 4^m oracle, pinned by count
and by a sha256 of the marker tuples in enumeration order, in full and per
site.  The values were recorded with the most-constrained-first search that
preceded the index-order walk, so they tie the enumeration to it beyond the
sizes brute force can reach."""

import hashlib
import random

from tanglenabla import corpus
from tanglenabla import transform as tr
from tanglenabla.diagram import serialize
from tanglenabla.states import enumerate_states
from tanglenabla.verify import random_diagram, random_knot_tangle, random_rm_sequence

from conftest import seeded_diagrams, transform_outputs

# (seed, ends, crossings, states, digest, {site: (states, digest)})
PINS = [
    (4, 6, 16, 9831, "d166487d6c1cd8105d06387adfdf2af09b5ab1d8d33977a3c04ab75379228755", {
        "a,b": (303, "4fb0628791969afd88ff47898735ed41e54417533e1ebe79ea63b0a4b54611d3"),
        "a,c": (915, "6b683bac65a4880bbf77411e5611e42331caf14a38f616c43650f0083a1721b9"),
        "a,d": (909, "4de083ee80b8e1936ed55994d70f524ac23f2ec5ffbb09ded3f2e6feb00c925f"),
        "a,e": (915, "a29cb53eabf2b7aab1adf02699a66e45165260252c3e3be358e11a27edddfa2e"),
        "a,f": (606, "45a0656048494261ad37fd7954a5628acbce1c9564042989f0e21cf1d360e1e1"),
        "b,c": (408, "095578d5d00c0661f5326b5cd1cf7ecac645a59950ff240d0c6573f321fa3100"),
        "b,d": (606, "4d6b7ec28d32f4df4e2cd2e326a9fd0b41395f064d499942d22b07e711992c35"),
        "b,e": (711, "2e6fcd2a7276680d811d7f5d9aa1ccd15ceac5f2aace3f4e395febe5c17345d9"),
        "b,f": (606, "cb143288c60b2b0f5300ba1c60a85579786e6d31a8619e7b94316d4a39c33afb"),
        "c,d": (606, "630c2d0dd6c7e249e6b5eb7b6ced873950adef742b1fa7b63c2e99647636586e"),
        "c,e": (915, "1d924e4f8c25e8cbf772c3b5ed538ec8b836dcef3b2d6a64990ff1db6ead26f9"),
        "c,f": (1014, "4a4f89689be8ee83224cc877348a90762a2a2afc477c96c496c60e7b8b888bcb"),
        "d,e": (303, "fe8f8063d09210b10c4ca34fc800536578f63e2fa6cb69f1cd67eb8119d641b3"),
        "d,f": (606, "7dd50a2c4864df2363dce0719fab4550722e151fbff17411d606c1edfef4bbc8"),
        "e,f": (408, "1f64c8b53f21ea993283816f7a988781e6be9d1c7ba4b471f2fa1ddac657b088"),
    }),
    (2, 4, 18, 3584, "7c6724a99fe3b4ec72a5e6c78c3c96ac274fdffe43ce8d8307a611668a9e4004", {
        "c": (1152, "4affcbe7ea1409fad2b64508275b4a2aecc7806c60dfea002e195b04ee8f7daa"),
        "f": (640, "fa8ac01a21d4329b59496df51f292e304d8f39c2a0f93aced60262fc1abdbd1b"),
        "g": (1152, "33d4070f09f8a292c6c76d777ad1432960bc71b1b4cb7b15682d6b8f50bef039"),
        "h": (640, "c25becc06fb4f388f48c34a96bd9782c1ee0917a765a20811c2d2c1efcce3bf0"),
    }),
    (5, 2, 18, 576, "af27a9e138afba1fecb344a708c7c3627746e63797bfb7f88470c1be2de1bf60", {
        "-": (576, "af27a9e138afba1fecb344a708c7c3627746e63797bfb7f88470c1be2de1bf60"),
    }),
    (6, 6, 20, 14144, "1dafc281b5f3b0e4c8222421aabd4233161b38154e6d8ed4c48c5f084e96208f", {
        "a,h": (384, "6174e5f4ba2515139adc4ee180694b7c98f0c912bee839b6b6616c43d9582662"),
        "a,i": (1504, "95f31277d98ca3ab8f36ae82606724a759d48ed3d2e380118d98313aaba98a0c"),
        "a,j": (1120, "3bf5a9cea614676900b566d30ba523d414db33a9fa14f518066947bd6eb8b302"),
        "a,m": (1504, "0856d34ee56f8a18b41a6ec2b4108e3d17c96532ddb50b2157d53f743b2d38e5"),
        "a,n": (736, "4f56c054f79660d0aaf7a863489d62e65fa22b7eb55e84e8e7bcc3a1da7a2c2a"),
        "h,i": (736, "79fefe7588510fb15eb73f4fa136eda9b40ef8d4edf6d1346062da62b6c7a71d"),
        "h,j": (736, "df1fa8f626ad3cc6abffb03ddbd23315392e6deb5bcf3ae8989b92465c614916"),
        "h,m": (1120, "7a5cfb124a50960c43d1f06ba6f31d24cbdc0e3e2b348e3852fc923a55b14adc"),
        "h,n": (736, "7f581bd66c803558117708e4981b29f421cfb361f0415cbc4b02ef7adc7d0712"),
        "i,j": (736, "bb551632d01139bd484251d5360be07174ae6ce06b24f8dccf9bdc0a7ffdd045"),
        "i,m": (1504, "0749f290a5e6cd7af67692ec716f6cd59dae503cd27b22f44ae7693b146f21c9"),
        "i,n": (1472, "19886447539ebe82e20e87388412fabfb21d3e47a570a837fac4f7bd1f5474b7"),
        "j,m": (384, "107b5fe1b6b39413f6053cb2480f3c9c019c93c96ffb50c7d8aa1105fcfb2481"),
        "j,n": (736, "fdcdc9aaafd4ef56d43ad1156103cc5ecfb1379a77ffdf99d4b8c0ae6b315724"),
        "m,n": (736, "07440a6ace8077b5225745ccdd04c7a79a91132f9c92efcbfcf530fb6a54127e"),
    }),
]


def _digest(states):
    text = "\n".join(",".join(map(str, x)) for x in states)
    return hashlib.sha256(text.encode()).hexdigest()


def test_large_state_lists_are_pinned():
    for seed, ends, m, count, digest, by_site in PINS:
        d = random_diagram(random.Random(seed), ends, m)
        assert len(d.crossings) == m
        full = enumerate_states(d)
        assert (len(full), _digest(full)) == (count, digest), seed
        assert {str(s) for s in d.sites()} == set(by_site), seed
        for s in d.sites():
            xs = enumerate_states(d, s)
            assert (len(xs), _digest(xs)) == by_site[str(s)], (seed, str(s))


# Generated diagrams and transform outputs, pinned by a sha256 of their
# serialize() text, the in/out flag of every edge end (which serialize()
# leaves out for crossingless strands) and, for generators, the rng's next
# draw.  Recorded before the transforms were rebuilt around one construction
# per result.
GENERATED_PINS = {
    "random_diagram":
        "2798a73cfc082434d88af047988e46d8bc9e2641a16fecb4c4acbb73de4b7237",
    "random_knot_tangle":
        "ca28b998bcfb919f1d4d224ce51227c1ebaa4eb67ad0d2e567df05d155a2d775",
    "random_rm_sequence":
        "0ed416da61cf8146a4c2b5b8b0f1273e9a29c3dc289295acee7ed604bdb04451",
    "transforms on the corpus":
        "f4d59719c18ecb434c34f61b1008e5a6f8b57ca29cc8ce21b8b9cc98516c21b5",
    "transforms on seeded diagrams":
        "9bd4b1d23c48a55eaf7b6c07b4daf057ce2adb5e54e12dd8c901e2156e056632",
}


def _fingerprint(x):
    if isinstance(x, str):
        return x + "\n"
    if isinstance(x, tr.GlueRecord):
        maps = (x.arc_map_1, x.arc_map_2, x.iota_1, x.iota_2)
        return _fingerprint(x.diagram) + repr([sorted(m.items()) for m in maps]) + "\n"
    return serialize(x) + "".join("1" if i else "0" for i in x.incoming) + "\n"


def _generated_texts():
    out = {key: [] for key in GENERATED_PINS}
    for seed in range(90):
        rng = random.Random(seed)
        d = random_diagram(rng, (2, 4, 6)[seed % 3], 1 + (seed // 3) % 12)
        out["random_diagram"] += [_fingerprint(d), repr(rng.random())]
    for seed in range(12):
        rng = random.Random(seed)
        d = random_knot_tangle(rng, 1 + seed % 8)
        out["random_knot_tangle"] += [_fingerprint(d), repr(rng.random())]
    for seed in range(15):
        rng = random.Random(seed)
        d = random_diagram(rng, (2, 4, 6)[seed % 3], 1 + seed % 6)
        moved, applied = random_rm_sequence(rng, d, 6)
        out["random_rm_sequence"] += [_fingerprint(moved), repr(applied),
                                      repr(rng.random())]
    for key, diagrams in (("transforms on the corpus", map(corpus.load, corpus.names())),
                          ("transforms on seeded diagrams", seeded_diagrams(11, 24, 7))):
        for d in diagrams:
            for label, result in transform_outputs(d):
                out[key] += [label + "\n", _fingerprint(result)]
    return out


def test_generated_diagrams_are_pinned():
    for key, texts in _generated_texts().items():
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest == GENERATED_PINS[key], key
