#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>

namespace bitgb {

namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

/// The characters `std::istream >>` skips before a field in the classic
/// locale.  A line never holds the '\n' that ends it.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// The input split as `std::getline` splits it: at each '\n', with a
/// last line only if bytes follow the last '\n'.
class Lines {
 public:
  explicit Lines(std::string_view text) : text_(text) {}

  bool next(std::string_view& line) {
    if (pos_ >= text_.size()) return false;
    const char* begin = text_.data() + pos_;
    const auto* nl = static_cast<const char*>(
        std::memchr(begin, '\n', text_.size() - pos_));
    const std::size_t len =
        nl != nullptr ? static_cast<std::size_t>(nl - begin) : text_.size() - pos_;
    line = text_.substr(pos_, len);
    pos_ += len + (nl != nullptr ? 1 : 0);
    return true;
  }

  [[nodiscard]] std::size_t remaining() const { return text_.size() - pos_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Reads the fields of one line left to right under the rules of
/// `std::istream >>` on the same text: skip whitespace, take the longest
/// prefix that forms the field, and ignore whatever follows the last
/// field read.
class Fields {
 public:
  explicit Fields(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  std::string_view word() {
    skip_space();
    const char* begin = p_;
    while (p_ != end_ && !is_space(*p_)) ++p_;
    return {begin, static_cast<std::size_t>(p_ - begin)};
  }

  bool integer(long long& v) {
    const char* first = number_start(false);
    if (first == nullptr) return false;
    const auto [ptr, ec] = std::from_chars(first, end_, v);
    if (ec != std::errc{}) return false;
    p_ = ptr;
    return true;
  }

  bool real(double& v) {
    const char* first = number_start(true);
    if (first == nullptr) return false;
    const auto [ptr, ec] = std::from_chars(first, end_, v);
    if (ec == std::errc::result_out_of_range) {
      // Beyond double's range.  `>>` parses with strtod (C locale) and
      // fails an overflow to infinity but keeps an underflow's rounded
      // value.
      v = std::strtod(std::string(first, ptr).c_str(), nullptr);
      if (std::isinf(v)) return false;
    } else if (ec != std::errc{}) {
      return false;
    }
    // `>>` takes an exponent mark even with no digits after it, and
    // then fails; std::from_chars stops before such a mark.
    const auto is_exp = [](char c) { return c == 'e' || c == 'E'; };
    if (ptr != end_ && is_exp(*ptr) && std::none_of(first, ptr, is_exp)) {
      return false;
    }
    p_ = ptr;
    return true;
  }

 private:
  void skip_space() {
    while (p_ != end_ && is_space(*p_)) ++p_;
  }

  /// Moves to the next field and returns where std::from_chars should
  /// parse it, or nullptr where `>>` would fail.  `>>` takes one '+' or
  /// '-' and then needs a digit (or, in a real, a point), so inf, nan
  /// and a doubled sign fail; std::from_chars takes no '+'.
  const char* number_start(bool point_ok) {
    skip_space();
    const char* first = p_;
    if (first != end_ && *first == '+') ++first;
    const char* lead =
        (first == p_ && first != end_ && *first == '-') ? first + 1 : first;
    if (lead == end_ || !(is_digit(*lead) || (point_ok && *lead == '.'))) {
      return nullptr;
    }
    return first;
  }

  const char* p_;
  const char* end_;
};

struct Header {
  bool pattern = false;
  bool symmetric = false;
  bool skew = false;
};

Header parse_banner(std::string_view line) {
  Fields words(line);
  const std::string_view tag = words.word();
  const std::string_view object = words.word();
  const std::string_view fmt = words.word();
  const std::string_view field = words.word();
  const std::string_view sym = words.word();
  if (tag != "%%MatrixMarket") {
    throw MatrixMarketError("missing %%MatrixMarket banner");
  }
  if (to_lower(object) != "matrix" || to_lower(fmt) != "coordinate") {
    throw MatrixMarketError("only 'matrix coordinate' inputs are supported");
  }
  Header h;
  const std::string f = to_lower(field);
  if (f == "pattern") {
    h.pattern = true;
  } else if (f != "real" && f != "integer" && f != "double") {
    throw MatrixMarketError("unsupported field type: " + std::string(field));
  }
  const std::string s = to_lower(sym);
  if (s == "symmetric") {
    h.symmetric = true;
  } else if (s == "skew-symmetric") {
    h.symmetric = true;
    h.skew = true;
  } else if (s != "general") {
    throw MatrixMarketError("unsupported symmetry: " + std::string(sym));
  }
  return h;
}

/// Appends the rest of `in` to `buf`.
void append_all(std::istream& in, std::string& buf) {
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    buf.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
}

Coo parse_matrix_market(std::string_view text) {
  Lines lines(text);
  std::string_view line;
  if (!lines.next(line)) throw MatrixMarketError("empty input");
  const Header h = parse_banner(line);

  // Skip comments and empty lines, find the size line.
  bool found = false;
  while (!found && lines.next(line)) found = !line.empty() && line[0] != '%';
  if (!found) line = {};
  long long nr = 0;
  long long nc = 0;
  long long nz = 0;
  {
    Fields size(line);
    if (!(size.integer(nr) && size.integer(nc) && size.integer(nz))) {
      throw MatrixMarketError("malformed size line: " + std::string(line));
    }
  }
  if (nr < 0 || nc < 0 || nz < 0) throw MatrixMarketError("negative size");
  // Mirroring entry (r, c) to (c, r) only makes sense in a square
  // matrix; in a rectangular one the mirror falls outside the shape.
  if (h.symmetric && nr != nc) {
    throw MatrixMarketError((h.skew ? "skew-symmetric" : "symmetric") +
                            std::string(" matrix must be square, got ") +
                            std::to_string(nr) + " x " + std::to_string(nc));
  }
  // Range-check the header against the library's index types before the
  // narrowing casts: a dimension beyond vidx_t would otherwise truncate
  // silently and mis-index every entry, and symmetric inputs store up
  // to two entries per declared nonzero.
  constexpr long long kMaxDim = std::numeric_limits<vidx_t>::max();
  if (nr > kMaxDim || nc > kMaxDim) {
    throw MatrixMarketError("matrix dimensions " + std::to_string(nr) + " x " +
                            std::to_string(nc) + " exceed the 32-bit index "
                            "limit (" + std::to_string(kMaxDim) + ")");
  }
  const long long stored_factor = h.symmetric ? 2 : 1;
  if (nz > std::numeric_limits<eidx_t>::max() / stored_factor) {
    throw MatrixMarketError("declared nonzero count " + std::to_string(nz) +
                            (h.symmetric ? " (x2 symmetric mirroring)" : "") +
                            " exceeds the 64-bit nonzero limit");
  }

  Coo out;
  out.nrows = static_cast<vidx_t>(nr);
  out.ncols = static_cast<vidx_t>(nc);
  // Reserve for the declared entries, but no more than the rest of the
  // input can hold (an entry line takes at least 4 bytes, "1 1\n"): a
  // size line that overstates the count then fails below as "fewer
  // entries than declared", not as an allocation failure.  Symmetric
  // inputs mirror every off-diagonal entry, so they reserve twice that.
  const auto fit = static_cast<long long>(lines.remaining() / 4 + 1);
  const auto stored_cap =
      static_cast<std::size_t>(std::min(nz, fit) * stored_factor);
  out.row.reserve(stored_cap);
  out.col.reserve(stored_cap);
  if (!h.pattern) out.val.reserve(stored_cap);

  long long seen = 0;
  while (seen < nz && lines.next(line)) {
    if (line.empty() || line[0] == '%') continue;
    Fields entry(line);
    long long r1 = 0;
    long long c1 = 0;
    double v = 1.0;
    if (!entry.integer(r1) || !entry.integer(c1)) {
      throw MatrixMarketError("malformed entry: " + std::string(line));
    }
    if (!h.pattern && !entry.real(v)) {
      throw MatrixMarketError("missing value: " + std::string(line));
    }
    if (r1 < 1 || r1 > nr || c1 < 1 || c1 > nc) {
      throw MatrixMarketError("index out of range: " + std::string(line));
    }
    const vidx_t r = static_cast<vidx_t>(r1 - 1);
    const vidx_t c = static_cast<vidx_t>(c1 - 1);
    if (h.pattern) {
      out.push(r, c);
      if (h.symmetric && r != c) out.push(c, r);
    } else {
      out.push(r, c, static_cast<value_t>(v));
      if (h.symmetric && r != c) {
        out.push(c, r, static_cast<value_t>(h.skew ? -v : v));
      }
    }
    ++seen;
  }
  if (seen != nz) throw MatrixMarketError("fewer entries than declared");
  // The declared count is a contract in both directions: extra
  // non-comment data after the last declared entry means the size line
  // and the body disagree, and silently dropping the tail would hand
  // back a graph missing edges the file plainly contains.
  while (lines.next(line)) {
    const auto pos = line.find_first_not_of(" \t\r");
    if (pos == std::string_view::npos || line[pos] == '%') continue;
    throw MatrixMarketError("trailing data after the " + std::to_string(nz) +
                            " declared entries: " + std::string(line));
  }
  out.sort_and_dedup();
  return out;
}

}  // namespace

Coo read_matrix_market(std::istream& in) {
  std::string text;
  append_all(in, text);
  return parse_matrix_market(text);
}

Coo read_matrix_market_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw MatrixMarketError("cannot open " + path);
  std::string text;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec) text.reserve(static_cast<std::size_t>(size));
  append_all(f, text);
  return parse_matrix_market(text);
}

void write_matrix_market(std::ostream& out, const Coo& a) {
  const bool pattern = a.is_binary();
  out << "%%MatrixMarket matrix coordinate "
      << (pattern ? "pattern" : "real") << " general\n";
  out << a.nrows << ' ' << a.ncols << ' ' << a.nnz() << '\n';
  for (eidx_t i = 0; i < a.nnz(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    out << (a.row[k] + 1) << ' ' << (a.col[k] + 1);
    if (!pattern) {
      // The shortest form that reads back to the same float; the
      // stream's default six digits would round most values.
      char buf[32];
      const char* end = std::to_chars(buf, buf + sizeof buf, a.val[k]).ptr;
      out << ' ';
      out.write(buf, end - buf);
    }
    out << '\n';
  }
}

void write_matrix_market_file(const std::string& path, const Coo& a) {
  std::ofstream f(path);
  if (!f) throw MatrixMarketError("cannot open " + path + " for writing");
  write_matrix_market(f, a);
  // A full disk fails the buffered writes only as they reach the file;
  // close() flushes the rest, so check after it.
  f.close();
  if (!f) throw MatrixMarketError("failed writing " + path);
}

}  // namespace bitgb
