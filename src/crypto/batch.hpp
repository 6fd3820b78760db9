// Random-linear-combination batch verification. N instances collapse into
// one large multi-scalar product: a cheat in any single instance survives
// only if it cancels against the random 128-bit weights, which happens
// with probability ~2^-128. Weights are derived Fiat-Shamir style from the
// full instance set (the canonical encodings of every point and scalar),
// so a prover committed to its instances cannot steer them.
//
// A batch passes only if every instance is valid, so a caller that needs
// to know which instance failed re-checks them one by one. Empty batches
// verify trivially. The three audit verifiers (bit, sum, opening) also
// have a chunked parallel form: pass a ThreadPool and the instance set
// splits into fixed-size chunks (boundaries independent of the worker
// count, so results are reproducible at any thread count), each chunk
// deriving its own Fiat-Shamir weights and running its own MSM on the
// pool.
#pragma once

#include <span>
#include <vector>

#include "crypto/pedersen.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/zkp.hpp"

namespace ddemos::util {
class ThreadPool;
}

namespace ddemos::crypto {

// Folds every signature into one MSM, decoding each pk. For keys without a
// comb: a node key (decode_schnorr_keys) is cheaper to check one signature
// at a time with schnorr_verify (schnorr.hpp).
struct SchnorrInstance {
  Bytes pk, msg, sig;
};
bool schnorr_verify_batch(std::span<const SchnorrInstance> xs);

struct BitProofInstance {
  ElGamalCipher cipher;
  BitProofFirstMove fm;
  Fn challenge;
  BitProofResponse resp;
};
// All instances must share the commitment key; 4 Sigma-OR equations per
// instance fold into a single MSM of 6N+2 terms.
bool verify_bit_batch(const Point& key, std::span<const BitProofInstance> xs,
                      util::ThreadPool* pool = nullptr);

struct SumProofInstance {
  ElGamalCipher sum;
  Fn total;
  SumProofFirstMove fm;
  Fn challenge;
  Fn z;
};
bool verify_sum_batch(const Point& key, std::span<const SumProofInstance> xs,
                      util::ThreadPool* pool = nullptr);

struct EgOpenInstance {
  ElGamalCipher cipher;
  Fn m, r;
};
// Batched eg_open_check: both opening equations per ciphertext fold into
// an MSM of 2N+2 terms (the weights themselves are the only full-size
// scalars multiplied per instance).
bool eg_open_check_batch(const Point& key, std::span<const EgOpenInstance> xs,
                         util::ThreadPool* pool = nullptr);

struct PedersenVssInstance {
  PedersenShare share;
  std::vector<Point> comms;  // coefficient commitments for this share
};
// Batched pedersen_vss_verify: all N share checks
//   f_i*G + g_i*H - sum_j x_i^j C_ij == 0
// fold into one MSM with a single combined G and H term plus one
// w_i*x_i^j term per coefficient commitment. Matches the per-instance
// verifier's rejection of an empty commitment vector (whole batch fails).
// Used by the BB nodes' trustee-message verification.
bool pedersen_vss_verify_batch(std::span<const PedersenVssInstance> xs);

// A commitment polynomial that several share holders' shares are checked
// against: coefficient t commits as u[t] + c*v[t], with c the scalar
// passed to pedersen_vss_verify_folded. An empty v means u[t] alone.
struct VssSlot {
  std::span<const Point> u;
  std::span<const Point> v;  // empty, or as long as u
};
// One share holder's shares at a single evaluation point: shares[q] lies
// on slot q, and every share's x must equal x.
struct VssDataset {
  std::uint32_t x = 0;
  std::span<const PedersenShare> shares;
};
// Checks every dataset against every slot in one MSM:
//   sum_d sum_q w_dq*(f_dq*G + g_dq*H - sum_t x_d^t (u_qt + c*v_qt)) == 0.
// The scalars of one point are summed across datasets, so the MSM has
// one term per slot point plus G and H, however many datasets there are.
// The weights are seeded by `context` (the caller binds what the check is
// about, e.g. election id and serial), c, every slot point and every
// dataset's x and shares. Fails on a share count other than the slot
// count, a share with another x, an empty u or a v of another length, as
// the per-share verifier would. Check one dataset at a time to assign
// blame. No datasets verify trivially.
bool pedersen_vss_verify_folded(BytesView context, const Fn& c,
                                std::span<const VssSlot> slots,
                                std::span<const VssDataset> datasets);

}  // namespace ddemos::crypto
