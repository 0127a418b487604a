"""Build the dimension-two certificate and replay its containment degreewise.

For I = m^ell in two variables with Q = (x^ell, y^ell) and J = Q : I,
the elements f = x, g = x^ell, h = y^(ell-1) satisfy two finite identities

    m J = f J + m h      and      I J = g J + I h

which force M * JR(I) inside (f, gt) JR(I) + R(I) h in every degree.
"""

from reesag.certificates import build_certificate_2dim, verify_claim_containment


def main():
    ell = 3
    cert = build_certificate_2dim(ell)
    print(f"ell = {ell}")
    print(f"  J = Q : I computed by the engine: {', '.join(str(m) for m in cert.J.gens)}")
    print(f"  f = {cert.f}, g = {cert.g}, h = {cert.h}")
    print(f"  identity A  (mJ = fJ + mh): {cert.identity_a}")
    print(f"  identity B  (IJ = gJ + Ih): {cert.identity_b}")
    print(f"  degreewise containment through degree 12: {verify_claim_containment(cert, 12)}")
    print()

    print("The same construction works for every ell >= 2:")
    for ell in range(2, 11):
        cert = build_certificate_2dim(ell)
        assert cert.valid
        print(f"  ell = {ell:2d}: f = {cert.f}, g = {cert.g}, h = {cert.h}  -> both identities hold")


if __name__ == "__main__":
    main()
