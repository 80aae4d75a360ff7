#include "chem/molecule.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <tuple>

#include "support/error.hpp"

namespace bstc {
namespace {

/// 1-D projection of the C-C bond length at tetrahedral geometry.
constexpr double kCCProjected = 1.26;

}  // namespace

Molecule Molecule::alkane(int n_carbons) {
  BSTC_REQUIRE(n_carbons >= 1, "alkane needs at least one carbon");
  Molecule m;
  for (int i = 0; i < n_carbons; ++i) {
    const double x = kCCProjected * static_cast<double>(i);
    m.atoms_.push_back({Element::kC, x});
    // Each carbon binds 4 - (number of carbon neighbours) hydrogens.
    const int carbon_neighbours =
        (i > 0 ? 1 : 0) + (i < n_carbons - 1 ? 1 : 0);
    const int hydrogens = 4 - carbon_neighbours;
    for (int h = 0; h < hydrogens; ++h) {
      m.atoms_.push_back({Element::kH, x});
    }
  }
  return m;
}

Molecule Molecule::ring(int n_carbons) {
  BSTC_REQUIRE(n_carbons >= 3, "a ring needs at least three carbons");
  Molecule m;
  // Circumference = n * projected bond length -> radius.
  const double radius =
      kCCProjected * static_cast<double>(n_carbons) / (2.0 * 3.14159265358979);
  for (int i = 0; i < n_carbons; ++i) {
    const double angle =
        2.0 * 3.14159265358979 * static_cast<double>(i) /
        static_cast<double>(n_carbons);
    const double x = radius * std::cos(angle);
    const double y = radius * std::sin(angle);
    m.atoms_.push_back({Element::kC, x, y, 0.0});
    // Every ring carbon binds exactly two hydrogens.
    m.atoms_.push_back({Element::kH, x, y, 0.0});
    m.atoms_.push_back({Element::kH, x, y, 0.0});
  }
  return m;
}

Molecule Molecule::helix(int n_carbons, double pitch, double radius,
                         double turn_step) {
  BSTC_REQUIRE(n_carbons >= 1, "helix needs at least one carbon");
  Molecule m;
  for (int i = 0; i < n_carbons; ++i) {
    const double t = turn_step * static_cast<double>(i);
    const double x = pitch * static_cast<double>(i);
    const double y = radius * std::cos(t);
    const double z = radius * std::sin(t);
    m.atoms_.push_back({Element::kC, x, y, z});
    const int carbon_neighbours =
        (i > 0 ? 1 : 0) + (i < n_carbons - 1 ? 1 : 0);
    for (int h = 0; h < 4 - carbon_neighbours; ++h) {
      m.atoms_.push_back({Element::kH, x, y, z});
    }
  }
  return m;
}

Molecule Molecule::compact(int n_carbons, double lattice) {
  BSTC_REQUIRE(n_carbons >= 1, "compact cluster needs at least one carbon");
  BSTC_REQUIRE(lattice > 0.0, "lattice constant must be positive");
  // Cubic lattice sites sorted by distance from the origin: filling them
  // in order grows a ball.
  struct Site {
    int i, j, k;
    double r2;
  };
  std::vector<Site> sites;
  const int span = static_cast<int>(std::ceil(std::cbrt(n_carbons))) + 2;
  for (int i = -span; i <= span; ++i) {
    for (int j = -span; j <= span; ++j) {
      for (int k = -span; k <= span; ++k) {
        sites.push_back({i, j, k, static_cast<double>(i * i + j * j + k * k)});
      }
    }
  }
  std::sort(sites.begin(), sites.end(), [](const Site& a, const Site& b) {
    if (a.r2 != b.r2) return a.r2 < b.r2;
    return std::tie(a.i, a.j, a.k) < std::tie(b.i, b.j, b.k);
  });
  Molecule m;
  for (int c = 0; c < n_carbons; ++c) {
    const Site& s = sites[static_cast<std::size_t>(c)];
    const double x = lattice * s.i, y = lattice * s.j, z = lattice * s.k;
    m.atoms_.push_back({Element::kC, x, y, z});
    m.atoms_.push_back({Element::kH, x, y, z});
    m.atoms_.push_back({Element::kH, x, y, z});
  }
  return m;
}

Molecule Molecule::from_xyz(const std::string& text) {
  std::istringstream in(text);
  long long count = 0;
  in >> count;
  BSTC_REQUIRE(!in.fail() && count > 0, "malformed XYZ: bad atom count");
  std::string comment;
  std::getline(in, comment);  // rest of the count line
  std::getline(in, comment);  // comment line

  Molecule m;
  for (long long i = 0; i < count; ++i) {
    std::string element;
    double x = 0.0, y = 0.0, z = 0.0;
    in >> element >> x >> y >> z;
    BSTC_REQUIRE(!in.fail(), "malformed XYZ: truncated atom record " +
                                 std::to_string(i));
    if (element == "C" || element == "c") {
      m.atoms_.push_back({Element::kC, x, y, z});
    } else if (element == "H" || element == "h") {
      m.atoms_.push_back({Element::kH, x, y, z});
    } else {
      throw Error("unsupported element '" + element +
                  "' in XYZ (only C and H)");
    }
  }
  return m;
}

Molecule Molecule::load_xyz(const std::string& path) {
  std::ifstream in(path);
  BSTC_REQUIRE(in.good(), "cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return from_xyz(buffer.str());
}

int Molecule::count(Element e) const {
  return static_cast<int>(
      std::count_if(atoms_.begin(), atoms_.end(),
                    [e](const Atom& a) { return a.element == e; }));
}

int Molecule::electrons() const {
  int n = 0;
  for (const Atom& a : atoms_) n += a.element == Element::kC ? 6 : 1;
  return n;
}

double Molecule::length() const {
  if (atoms_.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(
      atoms_.begin(), atoms_.end(),
      [](const Atom& a, const Atom& b) { return a.x < b.x; });
  return hi->x - lo->x;
}

Aabb Molecule::extent() const {
  Aabb box;
  for (const Atom& a : atoms_) box.expand(a.position());
  return box;
}

std::string Molecule::formula() const {
  std::string out;
  const int c = count(Element::kC);
  const int h = count(Element::kH);
  if (c > 0) out.append("C").append(std::to_string(c));
  if (h > 0) out.append("H").append(std::to_string(h));
  return out;
}

}  // namespace bstc
