#include "tune/genome.h"

#include <cctype>
#include <limits>

#include "power/fill.h"
#include "report/json.h"

namespace nc::tune {

namespace {

constexpr const char* kFormatTag = "nc9-tune-genome";

}  // namespace

const char* fill_policy_name(FillPolicy p) noexcept {
  switch (p) {
    case FillPolicy::kNone: return "none";
    case FillPolicy::kZero: return "zero";
    case FillPolicy::kOne: return "one";
    case FillPolicy::kRandom: return "random";
    case FillPolicy::kMinTransition: return "min-transition";
  }
  return "?";
}

FillPolicy fill_policy_from_name(const std::string& name) {
  for (unsigned i = 0; i < kNumFillPolicies; ++i) {
    const auto p = static_cast<FillPolicy>(i);
    if (name == fill_policy_name(p)) return p;
  }
  throw std::invalid_argument("unknown fill policy: " + name);
}

TuneGenome TuneGenome::standard(std::size_t k) {
  TuneGenome g;
  g.k = k;
  return g;
}

bool TuneGenome::is_standard_shape() const noexcept {
  return split == 0 && fill == FillPolicy::kNone;
}

codec::NineCoded TuneGenome::make_coder() const {
  return codec::NineCoded(k, codec::CodewordTable::from_lengths(lengths),
                          split);
}

bits::TestSet TuneGenome::apply_fill(const bits::TestSet& td) const {
  switch (fill) {
    case FillPolicy::kNone:
      return td;
    case FillPolicy::kZero:
      return power::fill(td, power::FillStrategy::kZero, fill_seed);
    case FillPolicy::kOne:
      return power::fill(td, power::FillStrategy::kOne, fill_seed);
    case FillPolicy::kRandom:
      return power::fill(td, power::FillStrategy::kRandom, fill_seed);
    case FillPolicy::kMinTransition:
      return power::fill(td, power::FillStrategy::kMinTransition, fill_seed);
  }
  return td;
}

std::string TuneGenome::to_json() const {
  report::Json j = report::Json::object();
  j["format"] = kFormatTag;
  j["k"] = static_cast<std::uint64_t>(k);
  j["split"] = static_cast<std::uint64_t>(split);
  report::Json lens = report::Json::array();
  for (unsigned len : lengths) lens.push_back(len);
  j["lengths"] = std::move(lens);
  j["fill"] = fill_policy_name(fill);
  j["fill_seed"] = fill_seed;
  return j.dump() + "\n";
}

// ----------------------------------------------------------- JSON parsing
// report::Json is write-only by design, so the genome file gets its own
// minimal recursive-descent reader: objects, arrays, strings and unsigned
// integers -- exactly the subset to_json emits. Unknown keys are skipped
// (their values parsed and discarded) so the format can gain fields without
// breaking old readers.

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  TuneGenome parse() {
    TuneGenome g;
    bool saw_format = false, saw_k = false, saw_lengths = false;
    skip_ws();
    expect('{');
    skip_ws();
    if (!eat('}')) {
      do {
        skip_ws();
        const std::string key = parse_string();
        skip_ws();
        expect(':');
        skip_ws();
        if (key == "format") {
          if (parse_string() != kFormatTag)
            throw GenomeParseError("unrecognized format tag");
          saw_format = true;
        } else if (key == "k") {
          g.k = parse_uint();
          saw_k = true;
        } else if (key == "split") {
          g.split = parse_uint();
        } else if (key == "lengths") {
          parse_lengths(g.lengths);
          saw_lengths = true;
        } else if (key == "fill") {
          try {
            g.fill = fill_policy_from_name(parse_string());
          } catch (const std::invalid_argument& e) {
            throw GenomeParseError(e.what());
          }
        } else if (key == "fill_seed") {
          g.fill_seed = parse_uint();
        } else {
          skip_value();
        }
        skip_ws();
      } while (eat(','));
      expect('}');
    }
    skip_ws();
    if (at_ < s_.size()) throw GenomeParseError("trailing characters");
    if (!saw_format) throw GenomeParseError("missing \"format\" tag");
    if (!saw_k) throw GenomeParseError("missing \"k\"");
    if (!saw_lengths) throw GenomeParseError("missing \"lengths\"");
    return g;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw GenomeParseError(what + " at offset " + std::to_string(at_));
  }

  void skip_ws() {
    while (at_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[at_])))
      ++at_;
  }

  bool eat(char c) {
    if (at_ < s_.size() && s_[at_] == c) {
      ++at_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!eat(c)) fail(std::string("expected '") + c + "'");
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (at_ < s_.size() && s_[at_] != '"') {
      if (s_[at_] == '\\') fail("escape sequences unsupported");
      out += s_[at_++];
    }
    expect('"');
    return out;
  }

  std::uint64_t parse_uint() {
    if (at_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[at_])))
      fail("expected unsigned integer");
    std::uint64_t v = 0;
    while (at_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[at_]))) {
      const std::uint64_t digit = static_cast<std::uint64_t>(s_[at_] - '0');
      if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
        fail("integer overflow");
      v = v * 10 + digit;
      ++at_;
    }
    return v;
  }

  void parse_lengths(std::array<unsigned, codec::kNumClasses>& out) {
    expect('[');
    for (std::size_t i = 0; i < codec::kNumClasses; ++i) {
      skip_ws();
      const std::uint64_t v = parse_uint();
      if (v == 0 || v > 31) fail("codeword length out of range [1, 31]");
      out[i] = static_cast<unsigned>(v);
      skip_ws();
      if (i + 1 < codec::kNumClasses) expect(',');
    }
    expect(']');
  }

  /// Parses and discards any value (for unknown keys).
  void skip_value() {
    skip_ws();
    if (at_ >= s_.size()) fail("unexpected end of input");
    const char c = s_[at_];
    if (c == '"') {
      parse_string();
    } else if (c == '{') {
      ++at_;
      skip_ws();
      if (eat('}')) return;
      do {
        skip_ws();
        parse_string();
        skip_ws();
        expect(':');
        skip_value();
        skip_ws();
      } while (eat(','));
      expect('}');
    } else if (c == '[') {
      ++at_;
      skip_ws();
      if (eat(']')) return;
      do {
        skip_value();
        skip_ws();
      } while (eat(','));
      expect(']');
    } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      if (c == '-') ++at_;
      parse_uint();
      // Fractions/exponents never appear in genome files; reject them
      // rather than mis-read them.
      if (at_ < s_.size() && (s_[at_] == '.' || s_[at_] == 'e' || s_[at_] == 'E'))
        fail("non-integer numbers unsupported");
    } else if (s_.compare(at_, 4, "true") == 0) {
      at_ += 4;
    } else if (s_.compare(at_, 5, "false") == 0) {
      at_ += 5;
    } else if (s_.compare(at_, 4, "null") == 0) {
      at_ += 4;
    } else {
      fail("unexpected character");
    }
  }

  const std::string& s_;
  std::size_t at_ = 0;
};

}  // namespace

TuneGenome TuneGenome::from_json(const std::string& text) {
  TuneGenome g = Parser(text).parse();
  // Structural sanity here; full coding validity (Kraft etc.) surfaces from
  // make_coder so the caller sees one error path for "bad genome".
  if (g.k < 2) throw GenomeParseError("k must be >= 2");
  if (g.split >= g.k) throw GenomeParseError("split must be in [0, k-1]");
  if (g.split == 0 && g.k % 2 != 0)
    throw GenomeParseError("split 0 (symmetric) requires even k");
  return g;
}

// ------------------------------------------------------------- byte form

namespace {

void put_le64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t get_le64(const std::vector<std::uint8_t>& bytes,
                       std::size_t& off) {
  if (bytes.size() - off < 8) throw GenomeParseError("byte form truncated");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(bytes[off++]) << (8 * i);
  return v;
}

}  // namespace

void TuneGenome::append_bytes(std::vector<std::uint8_t>& out) const {
  put_le64(out, k);
  put_le64(out, split);
  for (unsigned len : lengths) out.push_back(static_cast<std::uint8_t>(len));
  out.push_back(static_cast<std::uint8_t>(fill));
  put_le64(out, fill_seed);
}

TuneGenome TuneGenome::from_bytes(const std::vector<std::uint8_t>& bytes,
                                  std::size_t& off) {
  TuneGenome g;
  g.k = get_le64(bytes, off);
  g.split = get_le64(bytes, off);
  if (bytes.size() - off < codec::kNumClasses + 1 + 8)
    throw GenomeParseError("byte form truncated");
  for (auto& len : g.lengths) len = bytes[off++];
  const std::uint8_t fill = bytes[off++];
  if (fill >= kNumFillPolicies)
    throw GenomeParseError("fill policy out of range");
  g.fill = static_cast<FillPolicy>(fill);
  g.fill_seed = get_le64(bytes, off);
  return g;
}

}  // namespace nc::tune
