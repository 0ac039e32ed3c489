"""
Featurizing simplices
=====================

Each tier of the complex gets a fixed-width descriptor: vertices a 92-dim
element fingerprint, edges a 376-dim vector (distance expanded over a
radial basis of the inverse distance, plus both endpoint fingerprints),
triangles a 216-dim expansion of their three edge lengths and products.
A learned SiLU(linear) embedding takes every tier to the hidden width.
"""

import numpy as np

from qcnet import (AtomFeatureTable, CrystalStructure, ModelConfig,
                   SimplexTransformer, build_complex, edge_features,
                   neighbor_list, raw_features, vertex_features)
from qcnet.autodiff import constant

# A two-atom cell along z with the near pair at exactly 0.75 angstroms.
s = CrystalStructure(lattice=np.diag([4.0, 4.0, 3.0]),
                     species=np.array([6, 8]),
                     frac=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.25]]),
                     id="pair")
c = build_complex(neighbor_list(s, k=4))

# The table maps atomic numbers to 92-dim fingerprints.  `random` gives a
# seeded placeholder; load a curated table from JSON for real work.
table = AtomFeatureTable.random(seed=0)
fs = raw_features(c, s.species, table)
print("raw feature shapes:")
print(f"  vertices  {fs.h0_raw.shape}")
print(f"  edges     {fs.h1_raw.shape}")
print(f"  triangles {fs.h2_raw.shape}")

# Edge layout: 192 basis responses on the transformed distance, then the
# source fingerprint, then the destination fingerprint.
ef = edge_features(c.graph, vertex_features(s.species, table))
e = c.graph.edges[0]
print(f"\nedge 0: {e.src} -> {e.dst}, d = {e.dist:.4f} A")
print(f"  transformed distance -0.75/d = {-0.75 / e.dist:.4f}")
print(f"  basis block max = {ef[0, :192].max():.6f}"
      " (response peaks at 1 when -0.75/d hits a basis center)")
src_block = ef[0, 192:284]
dst_block = ef[0, 284:376]
vf = vertex_features(s.species, table)
print(f"  source block matches fingerprint: "
      f"{bool(np.array_equal(src_block, vf[e.src]))}")
print(f"  dest block matches fingerprint:   "
      f"{bool(np.array_equal(dst_block, vf[e.dst]))}")

# The model's embeddings map every tier to one hidden width so the
# attention layers can mix them.
model = SimplexTransformer.init(ModelConfig(hidden_dim=64), seed=0)
print("\nembedded shapes:",
      *(emb.apply(constant(x)).data.shape for emb, x in
        zip(model.embeds, (fs.h0_raw, fs.h1_raw, fs.h2_raw))))

# The whole pipeline is geometric: rotating the crystal changes nothing,
# because only distances enter the features.
q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
rotated = CrystalStructure(lattice=s.lattice @ q, species=s.species,
                           frac=s.frac, id="pair-rotated")
fs_rot = raw_features(build_complex(neighbor_list(rotated, k=4)),
                      rotated.species, table)
drift = max(np.abs(fs_rot.h1_raw - fs.h1_raw).max(),
            np.abs(fs_rot.h2_raw - fs.h2_raw).max())
print(f"\nmax feature drift under rotation: {drift:.2e}")
