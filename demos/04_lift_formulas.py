"""The lift formulas, applied by hand to the worked GF(3) example.

f = x^2 + 2x^4 + 2x^10 + 2x^28 + x^82 over GF(3).  Its base type is -1;
the two-power lift needs the twist companion, whose base data differ, and
odd primes then enter through the quadratic character.
"""

from quadsums import (
    QuadFunc,
    brute_force_sum,
    ExpSumValue,
    legendre,
    lift_odd_prime,
    lift_two,
    nullity_at,
    nullity_profile,
    twist,
    type_direct,
)

f = QuadFunc.from_dense(3, [1, 2, 2, 2, 1])
prof = nullity_profile(f)
t1, l1 = type_direct(f, 1)
print("f =", f)
print(f"base: t_1 = {t1:+d}, l_1 = {l1}")

ft = twist(f)
tt, lt = type_direct(ft, 1)
print("twist(f) =", ft)
print(f"twist base: t~_1 = {tt:+d}, l~_1 = {lt}   (parities of l and l~ differ)")

# Two-power heights: t alternates because (p^2-1)/8 = 1 is odd for p = 3.
for a in (1, 2, 3):
    st = lift_two(ExpSumValue(3, 1, l1, t1), ExpSumValue(3, 1, lt, tt), a, prof.nullity(2**a))
    print(f"t at 2^{a} = {st.t:+d}   l = {st.l}")

# Odd primes multiply the type by (q/3)^(l at the current base).
print()
for a in (1, 2):
    base = ExpSumValue(3, 2**a, prof.nullity(2**a), (-1) ** (a + 1))
    for q in (5, 7):
        st = lift_odd_prime(base, q, 1, prof.nullity(2**a * q))
        print(f"t at 2^{a} * {q} = {st.t:+d}   (equals (-1)^{a+1} * ({q}/3) = {(-1)**(a+1) * legendre(q, 3):+d})")

# Everything above is brute-checkable while 3^m stays enumerable.  The
# closed form for this f: t = -1 for odd m, else (-1)^(a+1) * (m*/3) with
# m = 2^a * m*.
def closed_type(m):
    a = 0
    while m % 2 == 0:
        a += 1
        m //= 2
    return -1 if a == 0 else (-1) ** (a + 1) * legendre(m, 3)


print()
for m in (2, 4, 10, 14):
    v = ExpSumValue(3, m, prof.nullity(m), closed_type(m))
    print(f"brute check m={m}:", brute_force_sum(f, m) == v.to_cyclotomic())
