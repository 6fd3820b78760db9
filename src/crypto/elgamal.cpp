#include "crypto/elgamal.hpp"

#include <array>

#include "util/error.hpp"

namespace ddemos::crypto {

namespace {

ElGamalCipher eg_commit_raw(const Point& key, const Fn& m, const Fn& r) {
  ElGamalCipher c;
  c.a = ec_mul_g(r);
  c.b = ec_mul2(r, key, m);  // m*G + r*K as one Strauss double-mul
  return c;
}

}  // namespace

ElGamalCipher eg_commit(const Point& key, const Fn& m, const Fn& r) {
  ElGamalCipher c = eg_commit_raw(key, m, r);
  // Both components share one inversion, so the later ec_encode calls on
  // the published ciphertext skip their per-point inversion entirely.
  std::array<Point, 2> pts{c.a, c.b};
  ec_normalize_batch(pts);
  return ElGamalCipher{pts[0], pts[1]};
}

ElGamalCipher eg_add(const ElGamalCipher& x, const ElGamalCipher& y) {
  return ElGamalCipher{ec_add(x.a, y.a), ec_add(x.b, y.b)};
}

bool eg_eq(const ElGamalCipher& x, const ElGamalCipher& y) {
  return ec_eq(x.a, y.a) && ec_eq(x.b, y.b);
}

bool eg_open_check(const Point& key, const ElGamalCipher& c, const Fn& m,
                   const Fn& r) {
  // Recompute without the output normalization: ec_eq cross-multiplies, so
  // the comparison needs no inversion at all.
  return eg_eq(c, eg_commit_raw(key, m, r));
}

Bytes eg_encode(const ElGamalCipher& c) {
  Bytes out = ec_encode(c.a);
  append(out, ec_encode(c.b));
  return out;
}

ElGamalCipher eg_decode(BytesView b) {
  if (b.size() != 66) throw CryptoError("eg_decode: need 66 bytes");
  return ElGamalCipher{ec_decode(b.subspan(0, 33)), ec_decode(b.subspan(33))};
}

std::vector<ElGamalCipher> eg_commit_unit_vector(const FixedBaseComb& key,
                                                 std::size_t m,
                                                 std::size_t index,
                                                 std::span<const Fn> rs) {
  if (index >= m || rs.size() != m) {
    throw CryptoError("eg_commit_unit_vector: bad arguments");
  }
  // Commit on the G and K combs, then normalize all 2m component points
  // with ONE shared field inversion before they are encoded onto ballots.
  std::vector<Point> pts;
  pts.reserve(2 * m);
  for (std::size_t i = 0; i < m; ++i) {
    pts.push_back(ec_mul_g(rs[i]));
    Point b = key.mul(rs[i]);
    if (i == index) b = ec_add(b, ec_generator());
    pts.push_back(b);
  }
  ec_normalize_batch(pts);
  std::vector<ElGamalCipher> out;
  out.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    out.push_back(ElGamalCipher{pts[2 * i], pts[2 * i + 1]});
  }
  return out;
}

}  // namespace ddemos::crypto
