#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace bitgb {

namespace {

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

struct Header {
  bool pattern = false;
  bool symmetric = false;
  bool skew = false;
};

Header parse_banner(const std::string& line) {
  std::istringstream ss(line);
  std::string tag, object, fmt, field, sym;
  ss >> tag >> object >> fmt >> field >> sym;
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
    throw MatrixMarketError("unsupported field type: " + field);
  }
  const std::string s = to_lower(sym);
  if (s == "symmetric") {
    h.symmetric = true;
  } else if (s == "skew-symmetric") {
    h.symmetric = true;
    h.skew = true;
  } else if (s != "general") {
    throw MatrixMarketError("unsupported symmetry: " + sym);
  }
  return h;
}

}  // namespace

Coo read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw MatrixMarketError("empty input");
  const Header h = parse_banner(line);

  // Skip comments, find the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  long long nr = 0;
  long long nc = 0;
  long long nz = 0;
  {
    std::istringstream ss(line);
    if (!(ss >> nr >> nc >> nz)) {
      throw MatrixMarketError("malformed size line: " + line);
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
  // Symmetric inputs mirror every off-diagonal entry, so reserving only
  // nz would force a reallocation mid-parse; 2*nz covers the worst case.
  const auto stored_cap = static_cast<std::size_t>(nz * stored_factor);
  out.row.reserve(stored_cap);
  out.col.reserve(stored_cap);
  if (!h.pattern) out.val.reserve(stored_cap);

  long long seen = 0;
  while (seen < nz && std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream ss(line);
    long long r1 = 0;
    long long c1 = 0;
    double v = 1.0;
    if (!(ss >> r1 >> c1)) {
      throw MatrixMarketError("malformed entry: " + line);
    }
    if (!h.pattern && !(ss >> v)) {
      throw MatrixMarketError("missing value: " + line);
    }
    if (r1 < 1 || r1 > nr || c1 < 1 || c1 > nc) {
      throw MatrixMarketError("index out of range: " + line);
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
  while (std::getline(in, line)) {
    const auto pos = line.find_first_not_of(" \t\r");
    if (pos == std::string::npos || line[pos] == '%') continue;
    throw MatrixMarketError("trailing data after the " + std::to_string(nz) +
                            " declared entries: " + line);
  }
  out.sort_and_dedup();
  return out;
}

Coo read_matrix_market_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw MatrixMarketError("cannot open " + path);
  return read_matrix_market(f);
}

void write_matrix_market(std::ostream& out, const Coo& a) {
  const bool pattern = a.is_binary();
  out << "%%MatrixMarket matrix coordinate "
      << (pattern ? "pattern" : "real") << " general\n";
  out << a.nrows << ' ' << a.ncols << ' ' << a.nnz() << '\n';
  for (eidx_t i = 0; i < a.nnz(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    out << (a.row[k] + 1) << ' ' << (a.col[k] + 1);
    if (!pattern) out << ' ' << a.val[k];
    out << '\n';
  }
}

void write_matrix_market_file(const std::string& path, const Coo& a) {
  std::ofstream f(path);
  if (!f) throw MatrixMarketError("cannot open " + path + " for writing");
  write_matrix_market(f, a);
}

}  // namespace bitgb
