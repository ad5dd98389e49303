#include "codec/decoder_spec.h"

#include <stdexcept>
#include <utility>

namespace nc::codec {

std::vector<CodeLeaf> leaves_for_table(const CodewordTable& table) {
  std::vector<CodeLeaf> leaves;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<BlockClass>(c);
    const auto plans = half_plans(cls);
    leaves.push_back({table.at(cls), plans[0], plans[1]});
  }
  return leaves;
}

DecoderSpec::DecoderSpec(std::vector<CodeLeaf> leaves, std::size_t left,
                         std::size_t right)
    : leaves_(std::move(leaves)), left_(left), right_(right), edges_(1) {
  using Kind = Edge::Kind;
  for (std::uint32_t leaf = 0; leaf < leaves_.size(); ++leaf) {
    const Codeword& w = leaves_[leaf].word;
    std::uint32_t at = 0;
    for (unsigned i = w.length; i-- > 0;) {
      const unsigned bit = (w.bits >> i) & 1u;
      // A copy, not a reference: the emplace_back below reallocates.
      const Edge slot = edges_[at][bit];
      if (slot.kind == Kind::kLeaf || (i == 0 && slot.kind != Kind::kAbsent))
        throw std::invalid_argument("codeword set is not prefix-free");
      if (i == 0) {
        edges_[at][bit] = {Kind::kLeaf, leaf};
      } else if (slot.kind == Kind::kState) {
        at = slot.index;
      } else {
        const auto fresh = static_cast<std::uint32_t>(edges_.size());
        edges_[at][bit] = {Kind::kState, fresh};
        edges_.emplace_back();
        at = fresh;
      }
    }
  }
}

DecoderSpec::DecoderSpec(const CodewordTable& table, std::size_t k,
                         std::size_t split)
    : DecoderSpec(leaves_for_table(table), split, k - split) {
  if (split == 0 || split >= k)
    throw std::invalid_argument("decoder split must be in [1, K-1]");
}

DecoderSpec::Step DecoderSpec::step(std::uint32_t state, bool data_bit,
                                    bool done) const noexcept {
  Step out;
  if (state < half_a()) {
    const Edge& edge = edges_[state][data_bit ? 1 : 0];
    switch (edge.kind) {
      case Edge::Kind::kState:
        out.next = edge.index;
        break;
      case Edge::Kind::kLeaf:
        out.next = half_a();
        out.leaf = edge.index;
        break;
      case Edge::Kind::kAbsent:
        out.invalid = true;
        break;
    }
  } else if (state == half_a()) {
    out.next = done ? half_b() : half_a();
  } else if (state == half_b()) {
    out.next = done ? ack() : half_b();
  } else {
    out.ack = true;
  }
  return out;
}

}  // namespace nc::codec
