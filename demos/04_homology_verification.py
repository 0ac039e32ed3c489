"""
Verifying quotient homology with exact arithmetic
=================================================

Identifying vertices of a complex (the quotient by a partition) changes
its homology in a controlled way.  Modeling the identification by coning
a fresh apex onto each class ("star" gluing) keeps the homotopy type of
the quotient, and the inclusion-induced maps satisfy: onto in degree 0,
injective in degree 1, isomorphisms in degrees 2 and 3.  Gluing pairwise
instead (one apex per pair inside a class) breaks this for classes of
three or more.  All ranks are computed exactly over the rationals, by
fraction-free elimination on integers, so every verdict below is exact,
not a float claim.
"""

from qcnet import SimplicialComplex, betti_numbers, verify_quotient_homology

# A circle built from four edges: one connected component, one loop.
circle = SimplicialComplex([[0, 1], [1, 2], [2, 3], [0, 3]])
print("circle betti:", betti_numbers(circle))

# Filling the square with two triangles kills the loop.
disk = SimplicialComplex([[0, 1, 2], [0, 2, 3]])
print("filled square betti:", betti_numbers(disk))

# Identify the two ends of a path of three edges.  The quotient is a
# circle, and the star construction sees it.
path3 = SimplicialComplex([[0, 1], [1, 2], [2, 3]])
rep = verify_quotient_homology(path3, [[0, 3]], construction="star")
print("\n3-path, ends identified (star):")
print("  betti base  ", rep.betti_base)
print("  betti glued ", rep.betti_glued)
print("  H0 onto", rep.h0_onto, "| H1 injective", rep.h1_injective,
      "| H2 iso", rep.h2_isomorphism, "| H3 iso", rep.h3_isomorphism)

# One class of three vertices: star and pairwise gluing disagree.  The
# three pair apexes form an extra loop, so pairwise over-counts H1.
star = verify_quotient_homology(path3, [[0, 1, 3]], construction="star")
pair = verify_quotient_homology(path3, [[0, 1, 3]], construction="pairwise")
print("\n3-path, one class of three vertices:")
print(f"  star     b1 = {star.betti_glued[1]}")
print(f"  pairwise b1 = {pair.betti_glued[1]}  (one spurious loop)")

# Collapse all five vertices of a 4-edge path into one point: each edge
# becomes a loop, and a tree with 4 edges gives a wedge of 4 circles.
path5 = SimplicialComplex([[i, i + 1] for i in range(4)])
rep = verify_quotient_homology(path5, [list(range(5))], construction="star")
print("\npath on 5 vertices, all identified:")
print("  betti glued", rep.betti_glued[:2],
      "(one component, four independent loops)")
print("  all degree checks pass:",
      rep.h0_onto and rep.h1_injective and rep.h2_isomorphism
      and rep.h3_isomorphism)
