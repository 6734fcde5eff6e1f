"""Field contexts, Frobenius maps, traces, and subfield embeddings.

Every computation in this package happens relative to a FieldCtx: a prime,
an extension degree, and a monic irreducible modulus.  Moduli are chosen
deterministically, so everything below prints the same on every run.
"""

from quadsums import build_field_ctx, embed_element, embedding_roots

# The default modulus is the irreducible with the smallest integer encoding.
f9 = build_field_ctx(3, 2)
f81 = build_field_ctx(3, 4)
print("GF(9)  modulus:", f9.modulus, "  (x^2 + 1)")
print("GF(81) modulus:", f81.modulus)

# The power-basis generator r of GF(9) satisfies r^2 = -1.
r = f9.gen()
print("\nr * r =", r * r, " (= -1 mod 3)")
print("r^(-1) =", r.inverse())

# Frobenius is the p-power map; applying it d times is the identity.
print("\nFrobenius orbit of r:", [str(r.frobenius(j)) for j in range(3)])

# The trace sums the Frobenius conjugates down to GF(p).
print("trace of r:", r.trace(), " (r + r^3 = r - r = 0)")
print("trace of 1 in GF(81):", f81.one().trace(), " (4 * 1 mod 3)")

# GF(9) embeds in GF(81) by sending r to a root of x^2 + 1 there; the
# smallest-encoding root is used so the embedding is canonical.
roots = embedding_roots(f9, f81)
print("\nroots of x^2+1 inside GF(81):", [str(x) for x in roots])
img = embed_element(f9, f81, r)
print("image of r:", img, " squares to", img * img)

# Embeddings are ring homomorphisms; traces scale by the relative degree,
# here [GF(81) : GF(9)] = 2.
x = f9.from_encoding(7)
t9 = x.trace()
t81 = embed_element(f9, f81, x).trace()
print(f"\nTr_9(x) = {t9};  Tr_81(embed(x)) = {t81}  (= 2 * {t9} mod 3)")
