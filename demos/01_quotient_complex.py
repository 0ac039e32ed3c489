"""
Building a quotient complex from a periodic crystal
===================================================

A periodic structure with n atoms in its unit cell becomes a directed
multigraph on n vertices: each atom receives one incoming edge from each
of its k nearest periodic neighbors, and every edge remembers the integer
lattice offset of the neighbor image it came from.  Ordered triangles are
edge triples whose offsets close exactly, o3 = o1 + o2.
"""

import numpy as np

from qcnet import (CrystalStructure, build_complex, neighbor_list,
                   triangle_image_points)

# Cubic perovskite CaTiO3: Ca at the corner, Ti at the body center, O at
# the face centers, lattice constant 3.84 angstroms.
catio3 = CrystalStructure(
    lattice=3.84 * np.eye(3),
    species=np.array([20, 22, 8, 8, 8]),
    frac=np.array([[0.0, 0.0, 0.0],
                   [0.5, 0.5, 0.5],
                   [0.5, 0.5, 0.0],
                   [0.5, 0.0, 0.5],
                   [0.0, 0.5, 0.5]]),
    id="CaTiO3")

c = build_complex(neighbor_list(catio3, k=12))
print(f"{catio3.id}: {c.n_vertices} vertices, {c.n_edges} edges, "
      f"{len(c.triangles)} triangles")

# Every vertex receives exactly k incoming edges; the multigraph absorbs
# the infinite periodic tiling into lattice offsets.  The graph is stored
# as edge columns (src, dst, offset, dist), so counting is one numpy call;
# `c.graph.edges` lists the same edges as records.
print("in-degrees:", np.bincount(c.graph.dst).tolist())

# The twelve nearest neighbors of the Ti site (vertex 1): the six oxygens
# of its octahedron at 1.92 A, then part of the tied Ca shell at 3.33 A.
# Ties at equal distance are broken deterministically (by source vertex,
# then offset), so the edge list is reproducible byte for byte.
print("\nedges into Ti (vertex 1):")
for e in c.graph.edges:
    if e.dst == 1:
        print(f"  from {e.src} offset {tuple(e.offset)}  d = {e.dist:.4f} A")

# A single atom in a unit cube only has periodic images to bond to, so
# every edge is a self-loop with a unit offset.
cube = CrystalStructure(lattice=np.eye(3), species=np.array([6]),
                        frac=np.zeros((1, 3)), id="cube")
cc = build_complex(neighbor_list(cube, k=6))
print(f"\n{cube.id}: {cc.n_edges} edges, {len(cc.triangles)} triangles")
for e in cc.graph.edges:
    print(f"  {e.src} -> {e.dst} offset {tuple(e.offset)}  d = {e.dist:.1f}")

# Triangles are rows (e1, e2, e3) of edge indices in the array c.tri.  They
# close on offsets exactly, and their three vertices can be placed as
# concrete points in space whose pairwise distances reproduce the three
# edge lengths.
edges = c.graph.edges
e1, e2, e3 = (edges[i] for i in c.tri[0])
print(f"\nfirst CaTiO3 triangle: vertices ({e1.src}, {e2.src}, {e2.dst})")
print(f"  offsets {tuple(e1.offset)} + {tuple(e2.offset)}"
      f" = {tuple(e3.offset)}")
pa, pb, pc = triangle_image_points(c, 0, catio3.frac, catio3.lattice)
print(f"  edge dists {e1.dist:.4f} {e2.dist:.4f} {e3.dist:.4f}")
print(f"  point dists {np.linalg.norm(pb - pa):.4f} "
      f"{np.linalg.norm(pc - pb):.4f} {np.linalg.norm(pc - pa):.4f}")
