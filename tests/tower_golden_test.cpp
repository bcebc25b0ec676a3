// Golden towers: every byte a tower build produces, pinned.
//
// A full level is pinned by its complex_fingerprint (vertex keys, colors,
// carriers, facets) and an FNV-1a of its arena blob (which adds base
// carriers, coordinates and the face table, i.e. what ChainStore writes).
// A model-restricted level is pinned by the same two hashes of the pruned
// complex, a hash of to_base, and its run and facet counts.  The inputs are
// every input complex and model the benchmark's cold corpus solves over,
// plus wait_free, an affine model, SDS^2 of the 4-processor simplex and an
// iterated barycentric subdivision.  The values were dumped from the
// string-keyed build that preceded the current one; a build that changes
// any of them changes the store's file contents or a solver input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "model/model.hpp"
#include "model/restrict.hpp"
#include "protocol/sds_chain.hpp"
#include "tasks/canonical.hpp"
#include "topology/arena.hpp"
#include "topology/hash.hpp"
#include "topology/subdivision.hpp"

namespace wfc {
namespace {

std::uint64_t hash_bytes(std::span<const std::byte> bytes) {
  return topo::fnv1a(
      topo::kFnvOffset,
      std::string_view(reinterpret_cast<const char*>(bytes.data()),
                       bytes.size()));
}

std::uint64_t hash_ids(const std::vector<topo::VertexId>& ids) {
  return hash_bytes(std::as_bytes(std::span<const topo::VertexId>(ids)));
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

struct GoldenLevel {
  const char* what;
  std::uint64_t fingerprint;
  std::uint64_t arena;
};

struct GoldenRestriction {
  const char* what;
  std::uint64_t fingerprint;
  std::uint64_t arena;
  std::uint64_t to_base;
  std::uint64_t runs_admitted;
  std::uint64_t runs_rejected;
  std::uint64_t facets_kept;
  std::uint64_t facets_dropped;
};

/// A named input complex and the tower depth the cold corpus reaches on it.
struct Input {
  std::string name;
  topo::ChromaticComplex complex;
  int depth;
};

std::vector<Input> inputs() {
  std::vector<Input> out;
  const auto add = [&out](std::string name, const task::Task& t, int depth) {
    out.push_back(Input{std::move(name), t.input(), depth});
  };
  add("consensus(2,2)", task::ConsensusTask(2, 2), 3);
  add("consensus(2,3)", task::ConsensusTask(2, 3), 3);
  add("consensus(3,2)", task::ConsensusTask(3, 2), 2);
  add("set-consensus(2,1)", task::KSetConsensusTask(2, 1), 3);
  add("set-consensus(3,2)", task::KSetConsensusTask(3, 2), 2);
  add("renaming(2,3)", task::RenamingTask(2, 3), 3);
  add("renaming(3,5)", task::RenamingTask(3, 5), 2);
  add("approx(2,9)", task::ApproxAgreementTask(2, 9), 3);
  add("approx(2,27)", task::ApproxAgreementTask(2, 27), 3);
  out.push_back(Input{"base_simplex(2)", topo::base_simplex(2), 4});
  out.push_back(Input{"base_simplex(3)", topo::base_simplex(3), 2});
  out.push_back(Input{"base_simplex(4)", topo::base_simplex(4), 2});
  return out;
}

constexpr GoldenLevel kLevels[] = {
    {"consensus(2,2) L0", 0x99fd6ad584ded327ull, 0x191fe80b29fc2f59ull},
    {"consensus(2,2) L1", 0x55d7960722365a33ull, 0x46f070eca768a29bull},
    {"consensus(2,2) L2", 0x9a907db140d963d9ull, 0xf768f55e521e9e1full},
    {"consensus(2,2) L3", 0x3570d555b79c2df7ull, 0x3d4a6a259298997eull},
    {"consensus(2,3) L0", 0x5c41d6222093ec41ull, 0xe5d7e1e878ef1d47ull},
    {"consensus(2,3) L1", 0xa3712629d59f5a42ull, 0x45478f46bb052926ull},
    {"consensus(2,3) L2", 0xc251bd5fd6fe4026ull, 0xdb11b8693653f3c1ull},
    {"consensus(2,3) L3", 0xcef4f6ebb99640acull, 0xde307f9dfd1a3916ull},
    {"consensus(3,2) L0", 0xae62e55ace43b81dull, 0xc879739cef380b3bull},
    {"consensus(3,2) L1", 0x36d6cf00aac955c9ull, 0x195a04c2826735b5ull},
    {"consensus(3,2) L2", 0x6426b4094f3c7e6bull, 0x39356b0c835732d6ull},
    {"set-consensus(2,1) L0", 0xd30ded2ba6273619ull, 0xb0488b46d7c969b9ull},
    {"set-consensus(2,1) L1", 0x7409d80a41789ae0ull, 0x1176832a837e6064ull},
    {"set-consensus(2,1) L2", 0x66b7a68891b317ffull, 0xaadabb21c65ed835ull},
    {"set-consensus(2,1) L3", 0xd9b649ce1f68d07dull, 0xa5fa2c0216a56a34ull},
    {"set-consensus(3,2) L0", 0xa4505df9d608eba2ull, 0x7049461e83052932ull},
    {"set-consensus(3,2) L1", 0xa95b9212bfcde89eull, 0xf72d0d1783a7b9b3ull},
    {"set-consensus(3,2) L2", 0x018e834c5e351bb9ull, 0xccaad779a0e00525ull},
    {"renaming(2,3) L0", 0xd30ded2ba6273619ull, 0xb0488b46d7c969b9ull},
    {"renaming(2,3) L1", 0x7409d80a41789ae0ull, 0x1176832a837e6064ull},
    {"renaming(2,3) L2", 0x66b7a68891b317ffull, 0xaadabb21c65ed835ull},
    {"renaming(2,3) L3", 0xd9b649ce1f68d07dull, 0xa5fa2c0216a56a34ull},
    {"renaming(3,5) L0", 0xa4505df9d608eba2ull, 0x7049461e83052932ull},
    {"renaming(3,5) L1", 0xa95b9212bfcde89eull, 0xf72d0d1783a7b9b3ull},
    {"renaming(3,5) L2", 0x018e834c5e351bb9ull, 0xccaad779a0e00525ull},
    {"approx(2,9) L0", 0x06c31fea46d33bb7ull, 0x4784d7b96ee8ccd9ull},
    {"approx(2,9) L1", 0x55d7960722365a33ull, 0x46f070eca768a29bull},
    {"approx(2,9) L2", 0x9a907db140d963d9ull, 0xf768f55e521e9e1full},
    {"approx(2,9) L3", 0x3570d555b79c2df7ull, 0x3d4a6a259298997eull},
    {"approx(2,27) L0", 0x3e5b6958d08bab53ull, 0xefead7541ce6ea4bull},
    {"approx(2,27) L1", 0x55d7960722365a33ull, 0x46f070eca768a29bull},
    {"approx(2,27) L2", 0x9a907db140d963d9ull, 0xf768f55e521e9e1full},
    {"approx(2,27) L3", 0x3570d555b79c2df7ull, 0x3d4a6a259298997eull},
    {"base_simplex(2) L0", 0xd30ded2ba6273619ull, 0xcbb3471fa2fa202bull},
    {"base_simplex(2) L1", 0x7409d80a41789ae0ull, 0x91e9a7bde4749d9dull},
    {"base_simplex(2) L2", 0x66b7a68891b317ffull, 0xa2ee4e6d1cc8826full},
    {"base_simplex(2) L3", 0xd9b649ce1f68d07dull, 0x5e9c241d0c2633d6ull},
    {"base_simplex(2) L4", 0x0b0aa03761dfe122ull, 0x1d5d7b6a70768b6full},
    {"base_simplex(3) L0", 0xa4505df9d608eba2ull, 0xab7154f46917d84full},
    {"base_simplex(3) L1", 0xa95b9212bfcde89eull, 0x4f6f3e0594fd4af5ull},
    {"base_simplex(3) L2", 0x018e834c5e351bb9ull, 0x144528523d15e9eaull},
    {"base_simplex(4) L0", 0xdd700c871ebcafbcull, 0xad5debc84cc5b9a6ull},
    {"base_simplex(4) L1", 0x2e9042b2bc5ef916ull, 0x1f399af11dd1aec0ull},
    {"base_simplex(4) L2", 0xa3d3db6ba4aac342ull, 0xb18151f7ea6d74e9ull},
    {"bsd^1(base_simplex(3))", 0xb70598a41f4ee27bull, 0x323f5e34d09d9018ull},
    {"bsd^2(base_simplex(3))", 0x521a51bbfc1668c0ull, 0x5da9455943c111d6ull},
};

constexpr GoldenRestriction kRestrictions[] = {
    {"consensus(2,2) L0 wait_free", 0x7c5f105cf764d6f7ull,
     0xb7ca26856be274b9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"consensus(2,2) L1 wait_free", 0x48d3ccf58fa3455bull,
     0xabf5f153d6e95a5bull, 0xe554888727308865ull, 5, 0, 12, 0},
    {"consensus(2,2) L2 wait_free", 0x27cd715402ef6747ull,
     0xfd421ed2672b625full, 0x2599706ba8b4f7a5ull, 17, 0, 36, 0},
    {"consensus(2,2) L0 t_resilient(0)", 0x7c5f105cf764d6f7ull,
     0xb7ca26856be274b9ull, 0x30d77e22c5da0365ull, 1, 2, 4, 0},
    {"consensus(2,2) L1 t_resilient(0)", 0x724589b9aa349ed1ull,
     0x70c7a21d11bf2205ull, 0xed1d8bfdd7ef5cfbull, 1, 4, 4, 8},
    {"consensus(2,2) L2 t_resilient(0)", 0x285a5a28c12f0909ull,
     0x3ce017ba0d05cbdfull, 0xde51d716635447f3ull, 1, 16, 4, 32},
    {"consensus(2,2) L0 t_resilient(1)", 0x7c5f105cf764d6f7ull,
     0xb7ca26856be274b9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"consensus(2,2) L1 t_resilient(1)", 0x48d3ccf58fa3455bull,
     0xabf5f153d6e95a5bull, 0xe554888727308865ull, 5, 0, 12, 0},
    {"consensus(2,2) L2 t_resilient(1)", 0x27cd715402ef6747ull,
     0xfd421ed2672b625full, 0x2599706ba8b4f7a5ull, 17, 0, 36, 0},
    {"consensus(2,2) L0 k_concurrency(1)", 0x7c5f105cf764d6f7ull,
     0xb7ca26856be274b9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"consensus(2,2) L1 k_concurrency(1)", 0xc0f428977f930d5bull,
     0x1079532697851a85ull, 0xe554888727308865ull, 4, 1, 8, 4},
    {"consensus(2,2) L2 k_concurrency(1)", 0x0eaf5cf2bb899c93ull,
     0x622bc57d99459992ull, 0x697c0a48fcb6a991ull, 8, 9, 16, 28},
    {"consensus(2,2) L0 k_concurrency(2)", 0x7c5f105cf764d6f7ull,
     0xb7ca26856be274b9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"consensus(2,2) L1 k_concurrency(2)", 0x48d3ccf58fa3455bull,
     0xabf5f153d6e95a5bull, 0xe554888727308865ull, 5, 0, 12, 0},
    {"consensus(2,2) L2 k_concurrency(2)", 0x27cd715402ef6747ull,
     0xfd421ed2672b625full, 0x2599706ba8b4f7a5ull, 17, 0, 36, 0},
    {"consensus(2,2) L0 k_concurrency(3)", 0x7c5f105cf764d6f7ull,
     0xb7ca26856be274b9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"consensus(2,2) L1 k_concurrency(3)", 0x48d3ccf58fa3455bull,
     0xabf5f153d6e95a5bull, 0xe554888727308865ull, 5, 0, 12, 0},
    {"consensus(2,2) L2 k_concurrency(3)", 0x27cd715402ef6747ull,
     0xfd421ed2672b625full, 0x2599706ba8b4f7a5ull, 17, 0, 36, 0},
    {"consensus(2,2) L0 k_obstruction_free(1)", 0x7c5f105cf764d6f7ull,
     0xb7ca26856be274b9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"consensus(2,2) L1 k_obstruction_free(1)", 0xc0f428977f930d5bull,
     0x1079532697851a85ull, 0xe554888727308865ull, 4, 1, 8, 4},
    {"consensus(2,2) L2 k_obstruction_free(1)", 0xbd8ee150f74efe86ull,
     0x942c3ac050e72d5eull, 0x2599706ba8b4f7a5ull, 14, 3, 24, 12},
    {"consensus(2,2) L0 k_obstruction_free(2)", 0x7c5f105cf764d6f7ull,
     0xb7ca26856be274b9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"consensus(2,2) L1 k_obstruction_free(2)", 0x48d3ccf58fa3455bull,
     0xabf5f153d6e95a5bull, 0xe554888727308865ull, 5, 0, 12, 0},
    {"consensus(2,2) L2 k_obstruction_free(2)", 0x27cd715402ef6747ull,
     0xfd421ed2672b625full, 0x2599706ba8b4f7a5ull, 17, 0, 36, 0},
    {"consensus(2,2) L0 affine(2;k_concurrency(2))", 0x7c5f105cf764d6f7ull,
     0xb7ca26856be274b9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"consensus(2,2) L1 affine(2;k_concurrency(2))", 0xcb2f987f5b25b7d9ull,
     0x747d5619a7351fccull, 0xcbf29ce484222325ull, 0, 5, 0, 12},
    {"consensus(2,2) L2 affine(2;k_concurrency(2))", 0x27cd715402ef6747ull,
     0xfd421ed2672b625full, 0x2599706ba8b4f7a5ull, 17, 0, 36, 0},
    {"set-consensus(3,2) L0 wait_free", 0xa4505df9d608eba2ull,
     0x7049461e83052932ull, 0x756241e1be8c9396ull, 7, 0, 1, 0},
    {"set-consensus(3,2) L1 wait_free", 0xf40b73b9952b90bcull,
     0x77463368025db163ull, 0xe554888727308865ull, 25, 0, 13, 0},
    {"set-consensus(3,2) L2 wait_free", 0xe040b17c3a46fd4full,
     0xd6483e5891a48fa4ull, 0xa3b18ee3ecf0e6b6ull, 373, 0, 169, 0},
    {"set-consensus(3,2) L0 t_resilient(0)", 0xa4505df9d608eba2ull,
     0x7049461e83052932ull, 0x756241e1be8c9396ull, 1, 6, 1, 0},
    {"set-consensus(3,2) L1 t_resilient(0)", 0x093433e2735dc9a3ull,
     0x60ee4e89e24ed705ull, 0x756241e1be8c9396ull, 1, 24, 1, 12},
    {"set-consensus(3,2) L2 t_resilient(0)", 0x093433e2735dc9a3ull,
     0x60ee4e89e24ed705ull, 0x756241e1be8c9396ull, 1, 372, 1, 168},
    {"set-consensus(3,2) L0 t_resilient(1)", 0xa4505df9d608eba2ull,
     0x7049461e83052932ull, 0x756241e1be8c9396ull, 4, 3, 1, 0},
    {"set-consensus(3,2) L1 t_resilient(1)", 0xc4ce6c77c9f8380bull,
     0xfe8d063304ec6d81ull, 0x277a6e471a0e3aa3ull, 7, 18, 4, 9},
    {"set-consensus(3,2) L2 t_resilient(1)", 0xe0eb5c1da91884a5ull,
     0xbd17569b1ea8ba0dull, 0x23e3fc4ddd960b82ull, 31, 342, 16, 153},
    {"set-consensus(3,2) L0 k_concurrency(1)", 0xa4505df9d608eba2ull,
     0x7049461e83052932ull, 0x756241e1be8c9396ull, 7, 0, 1, 0},
    {"set-consensus(3,2) L1 k_concurrency(1)", 0xb2ceb6c51fac9a67ull,
     0x37b7e2ee47543716ull, 0xe554888727308865ull, 15, 10, 6, 7},
    {"set-consensus(3,2) L2 k_concurrency(1)", 0x7085bbdbb511123dull,
     0xda133da2444995b1ull, 0xb7c431fb6dbec060ull, 63, 310, 21, 163},
    {"set-consensus(3,2) L0 k_concurrency(2)", 0xa4505df9d608eba2ull,
     0x7049461e83052932ull, 0x756241e1be8c9396ull, 7, 0, 1, 0},
    {"set-consensus(3,2) L1 k_concurrency(2)", 0xfd25ef6de37550c1ull,
     0x7caff8e2f79e5a22ull, 0xe554888727308865ull, 24, 1, 12, 1},
    {"set-consensus(3,2) L2 k_concurrency(2)", 0x5978327f7ade64bfull,
     0xda824eeca9a132f2ull, 0xe182c9d0ab1ba7d3ull, 252, 121, 105, 97},
    {"set-consensus(3,2) L0 k_concurrency(3)", 0xa4505df9d608eba2ull,
     0x7049461e83052932ull, 0x756241e1be8c9396ull, 7, 0, 1, 0},
    {"set-consensus(3,2) L1 k_concurrency(3)", 0xf40b73b9952b90bcull,
     0x77463368025db163ull, 0xe554888727308865ull, 25, 0, 13, 0},
    {"set-consensus(3,2) L2 k_concurrency(3)", 0xe040b17c3a46fd4full,
     0xd6483e5891a48fa4ull, 0xa3b18ee3ecf0e6b6ull, 373, 0, 169, 0},
    {"set-consensus(3,2) L0 k_obstruction_free(1)", 0xa4505df9d608eba2ull,
     0x7049461e83052932ull, 0x756241e1be8c9396ull, 7, 0, 1, 0},
    {"set-consensus(3,2) L1 k_obstruction_free(1)", 0xb2ceb6c51fac9a67ull,
     0x37b7e2ee47543716ull, 0xe554888727308865ull, 15, 10, 6, 7},
    {"set-consensus(3,2) L2 k_obstruction_free(1)", 0xef3b7cb6c4939907ull,
     0x2a5bd08bc11b236bull, 0xa3b18ee3ecf0e6b6ull, 234, 139, 78, 91},
    {"set-consensus(3,2) L0 k_obstruction_free(2)", 0xa4505df9d608eba2ull,
     0x7049461e83052932ull, 0x756241e1be8c9396ull, 7, 0, 1, 0},
    {"set-consensus(3,2) L1 k_obstruction_free(2)", 0xfd25ef6de37550c1ull,
     0x7caff8e2f79e5a22ull, 0xe554888727308865ull, 24, 1, 12, 1},
    {"set-consensus(3,2) L2 k_obstruction_free(2)", 0x774e8a5695a5da88ull,
     0xb9932023342c288dull, 0xa3b18ee3ecf0e6b6ull, 360, 13, 156, 13},
    {"set-consensus(3,2) L0 affine(2;k_concurrency(2))", 0xa4505df9d608eba2ull,
     0x7049461e83052932ull, 0x756241e1be8c9396ull, 7, 0, 1, 0},
    {"set-consensus(3,2) L1 affine(2;k_concurrency(2))", 0xcb2f977f5b25b626ull,
     0x5a7017b47803e4cdull, 0xcbf29ce484222325ull, 0, 25, 0, 13},
    {"set-consensus(3,2) L2 affine(2;k_concurrency(2))", 0x5978327f7ade64bfull,
     0xda824eeca9a132f2ull, 0xe182c9d0ab1ba7d3ull, 252, 121, 105, 97},
    {"approx(2,9) L0 wait_free", 0xb4482122318cdd47ull,
     0x766b2278380c9ab9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"approx(2,9) L1 wait_free", 0x48d3ccf58fa3455bull,
     0xabf5f153d6e95a5bull, 0xe554888727308865ull, 5, 0, 12, 0},
    {"approx(2,9) L2 wait_free", 0x27cd715402ef6747ull,
     0xfd421ed2672b625full, 0x2599706ba8b4f7a5ull, 17, 0, 36, 0},
    {"approx(2,9) L0 t_resilient(0)", 0xb4482122318cdd47ull,
     0x766b2278380c9ab9ull, 0x30d77e22c5da0365ull, 1, 2, 4, 0},
    {"approx(2,9) L1 t_resilient(0)", 0x724589b9aa349ed1ull,
     0x70c7a21d11bf2205ull, 0xed1d8bfdd7ef5cfbull, 1, 4, 4, 8},
    {"approx(2,9) L2 t_resilient(0)", 0x285a5a28c12f0909ull,
     0x3ce017ba0d05cbdfull, 0xde51d716635447f3ull, 1, 16, 4, 32},
    {"approx(2,9) L0 t_resilient(1)", 0xb4482122318cdd47ull,
     0x766b2278380c9ab9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"approx(2,9) L1 t_resilient(1)", 0x48d3ccf58fa3455bull,
     0xabf5f153d6e95a5bull, 0xe554888727308865ull, 5, 0, 12, 0},
    {"approx(2,9) L2 t_resilient(1)", 0x27cd715402ef6747ull,
     0xfd421ed2672b625full, 0x2599706ba8b4f7a5ull, 17, 0, 36, 0},
    {"approx(2,9) L0 k_concurrency(1)", 0xb4482122318cdd47ull,
     0x766b2278380c9ab9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"approx(2,9) L1 k_concurrency(1)", 0xc0f428977f930d5bull,
     0x1079532697851a85ull, 0xe554888727308865ull, 4, 1, 8, 4},
    {"approx(2,9) L2 k_concurrency(1)", 0x0eaf5cf2bb899c93ull,
     0x622bc57d99459992ull, 0x697c0a48fcb6a991ull, 8, 9, 16, 28},
    {"approx(2,9) L0 k_concurrency(2)", 0xb4482122318cdd47ull,
     0x766b2278380c9ab9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"approx(2,9) L1 k_concurrency(2)", 0x48d3ccf58fa3455bull,
     0xabf5f153d6e95a5bull, 0xe554888727308865ull, 5, 0, 12, 0},
    {"approx(2,9) L2 k_concurrency(2)", 0x27cd715402ef6747ull,
     0xfd421ed2672b625full, 0x2599706ba8b4f7a5ull, 17, 0, 36, 0},
    {"approx(2,9) L0 k_concurrency(3)", 0xb4482122318cdd47ull,
     0x766b2278380c9ab9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"approx(2,9) L1 k_concurrency(3)", 0x48d3ccf58fa3455bull,
     0xabf5f153d6e95a5bull, 0xe554888727308865ull, 5, 0, 12, 0},
    {"approx(2,9) L2 k_concurrency(3)", 0x27cd715402ef6747ull,
     0xfd421ed2672b625full, 0x2599706ba8b4f7a5ull, 17, 0, 36, 0},
    {"approx(2,9) L0 k_obstruction_free(1)", 0xb4482122318cdd47ull,
     0x766b2278380c9ab9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"approx(2,9) L1 k_obstruction_free(1)", 0xc0f428977f930d5bull,
     0x1079532697851a85ull, 0xe554888727308865ull, 4, 1, 8, 4},
    {"approx(2,9) L2 k_obstruction_free(1)", 0xbd8ee150f74efe86ull,
     0x942c3ac050e72d5eull, 0x2599706ba8b4f7a5ull, 14, 3, 24, 12},
    {"approx(2,9) L0 k_obstruction_free(2)", 0xb4482122318cdd47ull,
     0x766b2278380c9ab9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"approx(2,9) L1 k_obstruction_free(2)", 0x48d3ccf58fa3455bull,
     0xabf5f153d6e95a5bull, 0xe554888727308865ull, 5, 0, 12, 0},
    {"approx(2,9) L2 k_obstruction_free(2)", 0x27cd715402ef6747ull,
     0xfd421ed2672b625full, 0x2599706ba8b4f7a5ull, 17, 0, 36, 0},
    {"approx(2,9) L0 affine(2;k_concurrency(2))", 0xb4482122318cdd47ull,
     0x766b2278380c9ab9ull, 0x30d77e22c5da0365ull, 3, 0, 4, 0},
    {"approx(2,9) L1 affine(2;k_concurrency(2))", 0xcb2f987f5b25b7d9ull,
     0x747d5619a7351fccull, 0xcbf29ce484222325ull, 0, 5, 0, 12},
    {"approx(2,9) L2 affine(2;k_concurrency(2))", 0x27cd715402ef6747ull,
     0xfd421ed2672b625full, 0x2599706ba8b4f7a5ull, 17, 0, 36, 0},
    {"base_simplex(2) L0 wait_free", 0xd30ded2ba6273619ull,
     0xcbb3471fa2fa202bull, 0x08cd4c29d1e47d34ull, 3, 0, 1, 0},
    {"base_simplex(2) L1 wait_free", 0x7409d80a41789ae0ull,
     0x91e9a7bde4749d9dull, 0x30d77e22c5da0365ull, 5, 0, 3, 0},
    {"base_simplex(2) L2 wait_free", 0xfbca64cff62d8039ull,
     0x8e791d773b69426full, 0x43633e3ff0f885b4ull, 17, 0, 9, 0},
    {"base_simplex(2) L0 t_resilient(0)", 0xd30ded2ba6273619ull,
     0xcbb3471fa2fa202bull, 0x08cd4c29d1e47d34ull, 1, 2, 1, 0},
    {"base_simplex(2) L1 t_resilient(0)", 0xd3d9bbee4fd280f0ull,
     0x6dc2a28c2312d594ull, 0x08cd4c29d1e47d34ull, 1, 4, 1, 2},
    {"base_simplex(2) L2 t_resilient(0)", 0xd3d9bbee4fd280f0ull,
     0x69106d5a87119554ull, 0x08cd4c29d1e47d34ull, 1, 16, 1, 8},
    {"base_simplex(2) L0 t_resilient(1)", 0xd30ded2ba6273619ull,
     0xcbb3471fa2fa202bull, 0x08cd4c29d1e47d34ull, 3, 0, 1, 0},
    {"base_simplex(2) L1 t_resilient(1)", 0x7409d80a41789ae0ull,
     0x91e9a7bde4749d9dull, 0x30d77e22c5da0365ull, 5, 0, 3, 0},
    {"base_simplex(2) L2 t_resilient(1)", 0xfbca64cff62d8039ull,
     0x8e791d773b69426full, 0x43633e3ff0f885b4ull, 17, 0, 9, 0},
    {"base_simplex(2) L0 k_concurrency(1)", 0xd30ded2ba6273619ull,
     0xcbb3471fa2fa202bull, 0x08cd4c29d1e47d34ull, 3, 0, 1, 0},
    {"base_simplex(2) L1 k_concurrency(1)", 0xb1e66f2460444a6dull,
     0xf40d7a13d139a67dull, 0x30d77e22c5da0365ull, 4, 1, 2, 1},
    {"base_simplex(2) L2 k_concurrency(1)", 0xd4b92b2b94349877ull,
     0x54278073fd2e7494ull, 0x712cee56fbb635c8ull, 8, 9, 4, 7},
    {"base_simplex(2) L0 k_concurrency(2)", 0xd30ded2ba6273619ull,
     0xcbb3471fa2fa202bull, 0x08cd4c29d1e47d34ull, 3, 0, 1, 0},
    {"base_simplex(2) L1 k_concurrency(2)", 0x7409d80a41789ae0ull,
     0x91e9a7bde4749d9dull, 0x30d77e22c5da0365ull, 5, 0, 3, 0},
    {"base_simplex(2) L2 k_concurrency(2)", 0xfbca64cff62d8039ull,
     0x8e791d773b69426full, 0x43633e3ff0f885b4ull, 17, 0, 9, 0},
    {"base_simplex(2) L0 k_concurrency(3)", 0xd30ded2ba6273619ull,
     0xcbb3471fa2fa202bull, 0x08cd4c29d1e47d34ull, 3, 0, 1, 0},
    {"base_simplex(2) L1 k_concurrency(3)", 0x7409d80a41789ae0ull,
     0x91e9a7bde4749d9dull, 0x30d77e22c5da0365ull, 5, 0, 3, 0},
    {"base_simplex(2) L2 k_concurrency(3)", 0xfbca64cff62d8039ull,
     0x8e791d773b69426full, 0x43633e3ff0f885b4ull, 17, 0, 9, 0},
    {"base_simplex(2) L0 k_obstruction_free(1)", 0xd30ded2ba6273619ull,
     0xcbb3471fa2fa202bull, 0x08cd4c29d1e47d34ull, 3, 0, 1, 0},
    {"base_simplex(2) L1 k_obstruction_free(1)", 0xb1e66f2460444a6dull,
     0xf40d7a13d139a67dull, 0x30d77e22c5da0365ull, 4, 1, 2, 1},
    {"base_simplex(2) L2 k_obstruction_free(1)", 0x99c03db04c4d0594ull,
     0x1184105a4adcff3dull, 0x43633e3ff0f885b4ull, 14, 3, 6, 3},
    {"base_simplex(2) L0 k_obstruction_free(2)", 0xd30ded2ba6273619ull,
     0xcbb3471fa2fa202bull, 0x08cd4c29d1e47d34ull, 3, 0, 1, 0},
    {"base_simplex(2) L1 k_obstruction_free(2)", 0x7409d80a41789ae0ull,
     0x91e9a7bde4749d9dull, 0x30d77e22c5da0365ull, 5, 0, 3, 0},
    {"base_simplex(2) L2 k_obstruction_free(2)", 0xfbca64cff62d8039ull,
     0x8e791d773b69426full, 0x43633e3ff0f885b4ull, 17, 0, 9, 0},
    {"base_simplex(2) L0 affine(2;k_concurrency(2))", 0xd30ded2ba6273619ull,
     0xcbb3471fa2fa202bull, 0x08cd4c29d1e47d34ull, 3, 0, 1, 0},
    {"base_simplex(2) L1 affine(2;k_concurrency(2))", 0xcb2f987f5b25b7d9ull,
     0x747d5619a7351fccull, 0xcbf29ce484222325ull, 0, 5, 0, 3},
    {"base_simplex(2) L2 affine(2;k_concurrency(2))", 0xfbca64cff62d8039ull,
     0x8e791d773b69426full, 0x43633e3ff0f885b4ull, 17, 0, 9, 0},
};

std::string level_row(const std::string& what, std::uint64_t fingerprint,
                      std::span<const std::byte> arena) {
  return "{\"" + what + "\", " + hex(fingerprint) + ", " +
         hex(hash_bytes(arena)) + "},";
}

TEST(GoldenTowers, FullLevelsAreByteIdentical) {
  std::vector<std::string> rows;
  for (const Input& in : inputs()) {
    const proto::SdsChain chain(in.complex, in.depth);
    for (int r = 0; r <= in.depth; ++r) {
      rows.push_back(level_row(in.name + " L" + std::to_string(r),
                               topo::complex_fingerprint(chain.level(r)),
                               chain.arena(r).bytes()));
    }
  }
  for (int r = 1; r <= 2; ++r) {
    const topo::ChromaticComplex bsd =
        topo::iterated_bsd(topo::base_simplex(3), r);
    rows.push_back(level_row(
        "bsd^" + std::to_string(r) + "(base_simplex(3))",
        topo::complex_fingerprint(bsd), topo::Arena::build(bsd).bytes()));
  }
  ASSERT_EQ(rows.size(), std::size(kLevels));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GoldenLevel& want = kLevels[i];
    EXPECT_EQ(rows[i], "{\"" + std::string(want.what) + "\", " +
                           hex(want.fingerprint) + ", " + hex(want.arena) +
                           "},");
  }
}

TEST(GoldenTowers, RestrictedLevelsAreByteIdentical) {
  // The inputs and models the cold corpus restricts, at the levels it
  // restricts them, plus wait_free and an affine model.
  const char* const restricted[] = {"consensus(2,2)", "set-consensus(3,2)",
                                    "approx(2,9)", "base_simplex(2)"};
  const char* const models[] = {
      "wait_free",        "t_resilient(0)",        "t_resilient(1)",
      "k_concurrency(1)", "k_concurrency(2)",      "k_concurrency(3)",
      "k_obstruction_free(1)", "k_obstruction_free(2)",
      "affine(2;k_concurrency(2))"};
  constexpr int kDepth = 2;
  const auto row = [](const std::string& what, std::uint64_t fingerprint,
                      std::uint64_t arena, std::uint64_t to_base,
                      std::uint64_t admitted, std::uint64_t rejected,
                      std::uint64_t kept, std::uint64_t dropped) {
    return "{\"" + what + "\", " + hex(fingerprint) + ", " + hex(arena) +
           ", " + hex(to_base) + ", " + std::to_string(admitted) + ", " +
           std::to_string(rejected) + ", " + std::to_string(kept) + ", " +
           std::to_string(dropped) + "},";
  };
  std::vector<std::string> rows;
  for (const Input& in : inputs()) {
    if (std::find(std::begin(restricted), std::end(restricted), in.name) ==
        std::end(restricted)) {
      continue;
    }
    const proto::SdsChain chain(in.complex, kDepth);
    for (const char* name : models) {
      const auto m = model::Model::parse(name);
      for (int level = 0; level <= kDepth; ++level) {
        const model::Restriction res = model::restrict_level(chain, level, *m);
        rows.push_back(row(in.name + " L" + std::to_string(level) + " " + name,
                           topo::complex_fingerprint(*res.complex),
                           hash_bytes(res.arena.bytes()),
                           hash_ids(res.to_base), res.runs_admitted,
                           res.runs_rejected, res.facets_kept,
                           res.facets_dropped));
      }
    }
  }
  ASSERT_EQ(rows.size(), std::size(kRestrictions));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GoldenRestriction& want = kRestrictions[i];
    EXPECT_EQ(rows[i], row(want.what, want.fingerprint, want.arena,
                           want.to_base, want.runs_admitted,
                           want.runs_rejected, want.facets_kept,
                           want.facets_dropped));
  }
}

}  // namespace
}  // namespace wfc
