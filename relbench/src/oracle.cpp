#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>

namespace relbench::oracle {

std::vector<double> pool_distribution(int n, double lambda, double mu) {
  std::vector<double> w(static_cast<std::size_t>(n) + 1);
  w[0] = 1.0;
  double total = 1.0;
  for (int i = 1; i <= n; ++i) {
    w[static_cast<std::size_t>(i)] =
        w[static_cast<std::size_t>(i) - 1] * (n - i + 1) * lambda / mu;
    total += w[static_cast<std::size_t>(i)];
  }
  for (double& x : w) x /= total;
  return w;
}

double pool_unavailability(int n, int k, double lambda, double mu) {
  const std::vector<double> pi = pool_distribution(n, lambda, mu);
  double down = 0.0;
  for (int i = n; i > n - k; --i) down += pi[static_cast<std::size_t>(i)];
  return down;
}

double pool_availability(int n, int k, double lambda, double mu) {
  return 1.0 - pool_unavailability(n, k, lambda, mu);
}

std::vector<double> pool_transient(int n, double lambda, double mu, double t) {
  const std::size_t m = static_cast<std::size_t>(n) + 1;
  double alpha = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double out = static_cast<double>(n - static_cast<int>(i)) * lambda +
                       (i > 0 ? mu : 0.0);
    alpha = std::max(alpha, out);
  }
  // tau = t / 2^s with alpha tau <= 1/2.
  int squarings = 0;
  double tau = t;
  while (alpha * tau > 0.5) {
    tau *= 0.5;
    ++squarings;
  }
  // B = (Q + alpha I) tau >= 0; exp(Q tau) = e^{-alpha tau} sum B^k / k!.
  std::vector<double> b(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double up = static_cast<double>(n - static_cast<int>(i)) * lambda;
    const double down = i > 0 ? mu : 0.0;
    b[i * m + i] = (alpha - up - down) * tau;
    if (i + 1 < m) b[i * m + i + 1] = up * tau;
    if (i > 0) b[i * m + i - 1] = down * tau;
  }
  const auto multiply = [m](const std::vector<double>& x,
                            const std::vector<double>& y) {
    std::vector<double> z(m * m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t k = 0; k < m; ++k) {
        const double xik = x[i * m + k];
        if (xik == 0.0) continue;
        for (std::size_t j = 0; j < m; ++j) z[i * m + j] += xik * y[k * m + j];
      }
    }
    return z;
  };
  std::vector<double> p(m * m, 0.0), term(m * m, 0.0);
  for (std::size_t i = 0; i < m; ++i) term[i * m + i] = 1.0;
  for (int k = 0; k <= 30; ++k) {  // (alpha tau)^k / k! < 1e-40 by k = 30
    for (std::size_t i = 0; i < m * m; ++i) p[i] += term[i];
    term = multiply(term, b);
    for (double& x : term) x /= static_cast<double>(k + 1);
  }
  const double damp = std::exp(-alpha * tau);
  for (double& x : p) x *= damp;
  for (int s = 0; s < squarings; ++s) p = multiply(p, p);
  return std::vector<double>(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(m));
}

std::vector<double> pair_cumulative(int n1, double lambda1, double mu1, int n2,
                                    double lambda2, double mu2,
                                    const std::vector<double>& pi_t, double t) {
  const std::size_t m2 = static_cast<std::size_t>(n2) + 1;
  const std::size_t m = (static_cast<std::size_t>(n1) + 1) * m2;
  // a = Q^T, so that a L^T = (pi(t) - pi(0))^T; row 0 becomes sum L = t.
  std::vector<double> a(m * m, 0.0), rhs(pi_t);
  rhs[0] -= 1.0;
  const auto rate = [&](std::size_t from, std::size_t to, double r) {
    a[to * m + from] += r;
    a[from * m + from] -= r;
  };
  for (int i = 0; i <= n1; ++i) {
    for (int j = 0; j <= n2; ++j) {
      const std::size_t s = static_cast<std::size_t>(i) * m2 +
                            static_cast<std::size_t>(j);
      if (i < n1) rate(s, s + m2, (n1 - i) * lambda1);
      if (i > 0) rate(s, s - m2, mu1);
      if (j < n2) rate(s, s + 1, (n2 - j) * lambda2);
      if (j > 0) rate(s, s - 1, mu2);
    }
  }
  for (std::size_t k = 0; k < m; ++k) a[k] = 1.0;
  rhs[0] = t;
  for (std::size_t c = 0; c < m; ++c) {
    std::size_t pivot = c;
    for (std::size_t r = c + 1; r < m; ++r) {
      if (std::fabs(a[r * m + c]) > std::fabs(a[pivot * m + c])) pivot = r;
    }
    if (pivot != c) {
      for (std::size_t k = 0; k < m; ++k) std::swap(a[c * m + k], a[pivot * m + k]);
      std::swap(rhs[c], rhs[pivot]);
    }
    for (std::size_t r = c + 1; r < m; ++r) {
      const double f = a[r * m + c] / a[c * m + c];
      if (f == 0.0) continue;
      for (std::size_t k = c; k < m; ++k) a[r * m + k] -= f * a[c * m + k];
      rhs[r] -= f * rhs[c];
    }
  }
  std::vector<double> l(m, 0.0);
  for (std::size_t c = m; c-- > 0;) {
    double v = rhs[c];
    for (std::size_t k = c + 1; k < m; ++k) v -= a[c * m + k] * l[k];
    l[c] = v / a[c * m + c];
  }
  return l;
}

double at_least_k(const std::vector<double>& on, int k) {
  // dist[j] = P(exactly j of the items seen so far are on).
  std::vector<double> dist(on.size() + 1, 0.0);
  dist[0] = 1.0;
  for (std::size_t i = 0; i < on.size(); ++i) {
    for (std::size_t j = i + 1; j > 0; --j) {
      dist[j] = dist[j] * (1.0 - on[i]) + dist[j - 1] * on[i];
    }
    dist[0] *= 1.0 - on[i];
  }
  double p = 0.0;
  for (std::size_t j = static_cast<std::size_t>(k); j < dist.size(); ++j) {
    p += dist[j];
  }
  return p;
}

double bridge_reliability(double a, double b, double c, double d, double e) {
  const double with_e = (1.0 - (1.0 - a) * (1.0 - c)) *
                        (1.0 - (1.0 - b) * (1.0 - d));
  const double without_e = 1.0 - (1.0 - a * b) * (1.0 - c * d);
  return e * with_e + (1.0 - e) * without_e;
}

namespace {

struct Component {
  double up = 0.0;    ///< steady-state P(up)
  double down = 1.0;  ///< 1 - up, computed without cancellation
};

struct Gate {
  std::string kind;
  int k = 0;
  std::vector<std::string> children;
};

struct Edge {
  std::string component;
  int u = 0, v = 0;
  bool undirected = false;
};

double number(const std::string& tok, bool* ok) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') *ok = false;
  return v;
}

}  // namespace

double steady_value(const std::string& text, std::string* error) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::string kind, top;
  std::map<std::string, Component> events;
  std::map<std::string, Gate> gates;
  std::vector<Edge> edges;
  int source = 0, sink = 0;
  bool ok = true;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream words(line);
    std::vector<std::string> t;
    for (std::string w; words >> w;) t.push_back(w);
    if (t.empty()) continue;
    if (t[0] == "model" && t.size() == 3) {
      kind = t[1];
    } else if (t[0] == "event" && t.size() >= 4) {
      Component c;
      if (t[2] == "prob") {
        c.up = number(t[3], &ok);
        c.down = 1.0 - c.up;
      } else if (t[2] == "rate" && t.size() == 6 && t[4] == "repair") {
        const double l = number(t[3], &ok), m = number(t[5], &ok);
        c.up = m / (l + m);
        c.down = l / (l + m);
      } else if (t[2] == "rate" || t[2] == "weibull" || t[2] == "lognormal") {
        c.up = 0.0;  // non-repairable: never up in the limit
        c.down = 1.0;
      } else if (t[2] == "markov" && t.size() == 7) {
        const int n = static_cast<int>(number(t[3], &ok));
        const int k = static_cast<int>(number(t[4], &ok));
        const double l = number(t[5], &ok), m = number(t[6], &ok);
        c.down = pool_unavailability(n, k, l, m);
        c.up = 1.0 - c.down;
      } else {
        ok = false;
      }
      events[t[1]] = c;
    } else if (t[0] == "gate" && t.size() >= 4) {
      Gate g;
      g.kind = t[2];
      std::size_t first = 3;
      if (g.kind == "kofn") {
        g.k = static_cast<int>(number(t[3], &ok));
        first = 4;
      }
      g.children.assign(t.begin() + static_cast<long>(first), t.end());
      gates[t[1]] = g;
    } else if (t[0] == "top" && t.size() == 2) {
      top = t[1];
    } else if (t[0] == "vertices") {
    } else if (t[0] == "terminals" && t.size() == 3) {
      source = static_cast<int>(number(t[1], &ok));
      sink = static_cast<int>(number(t[2], &ok));
    } else if (t[0] == "edge" && t.size() >= 4) {
      Edge e;
      e.component = t[1];
      e.u = static_cast<int>(number(t[2], &ok));
      e.v = static_cast<int>(number(t[3], &ok));
      e.undirected = t.size() == 5 && t[4] == "undirected";
      edges.push_back(e);
    } else {
      ok = false;
    }
  }
  if (!ok || kind.empty()) {
    *error = "unreadable model text";
    return nan;
  }

  if (kind == "relgraph") {
    // Enumerate the states of the distinct components carried by edges.
    std::vector<std::string> names;
    for (const Edge& e : edges) {
      bool seen = false;
      for (const std::string& n : names) seen = seen || n == e.component;
      if (!seen) names.push_back(e.component);
    }
    if (names.size() > 20) {
      *error = "relgraph too large to enumerate";
      return nan;
    }
    double reliability = 0.0;
    for (std::uint32_t mask = 0; mask < (1u << names.size()); ++mask) {
      double p = 1.0;
      std::set<std::string> up;
      for (std::size_t i = 0; i < names.size(); ++i) {
        const Component& c = events[names[i]];
        if (mask & (1u << i)) {
          p *= c.up;
          up.insert(names[i]);
        } else {
          p *= c.down;
        }
      }
      std::set<int> reached{source};
      for (bool grew = true; grew;) {
        grew = false;
        for (const Edge& e : edges) {
          if (!up.count(e.component)) continue;
          if (reached.count(e.u) && !reached.count(e.v)) {
            reached.insert(e.v);
            grew = true;
          }
          if (e.undirected && reached.count(e.v) && !reached.count(e.u)) {
            reached.insert(e.u);
            grew = true;
          }
        }
      }
      if (reached.count(sink)) reliability += p;
    }
    return reliability;
  }

  // Combinatorial tree: RBD blocks work on P(up), fault-tree gates on
  // P(failed). Both are evaluated as products of complements so that tiny
  // probabilities keep their relative accuracy.
  const bool ftree = kind == "ftree";
  std::function<double(const std::string&)> eval =
      [&](const std::string& name) -> double {
    if (events.count(name)) {
      const Component& c = events[name];
      return ftree ? c.down : c.up;
    }
    const auto it = gates.find(name);
    if (it == gates.end()) {
      ok = false;
      return nan;
    }
    const Gate& g = it->second;
    std::vector<double> p;
    for (const std::string& child : g.children) p.push_back(eval(child));
    if (g.kind == "and") {
      double prod = 1.0;
      for (const double x : p) prod *= x;
      return prod;
    }
    if (g.kind == "or") {
      double none = 1.0;
      for (const double x : p) none *= 1.0 - x;
      return 1.0 - none;
    }
    if (g.kind == "kofn") return at_least_k(p, g.k);
    if (g.kind == "not" && p.size() == 1) return 1.0 - p[0];
    ok = false;
    return nan;
  };
  const double value = eval(top);
  if (!ok) {
    *error = "unknown gate or event in model text";
    return nan;
  }
  return value;
}

double rejuvenation_availability(double interval, double aging, double crash,
                                 double repair_mean, double rejuv_mean) {
  // Time to crash T = Exp(aging) + Exp(crash), survival
  //   S(u) = (crash e^{-aging u} - aging e^{-crash u}) / (crash - aging).
  const double a = aging, b = crash, d = interval;
  const double up = (b * -std::expm1(-a * d) / a - a * -std::expm1(-b * d) / b) /
                    (b - a);
  const double survive = (b * std::exp(-a * d) - a * std::exp(-b * d)) / (b - a);
  const double cycle =
      up + (1.0 - survive) * repair_mean + survive * rejuv_mean;
  return up / cycle;
}

double mean_square_ratio_uniform(double a, double b, double mu) {
  // With y = x + mu: (x / y)^2 = 1 - 2 mu / y + mu^2 / y^2.
  const auto antiderivative = [mu](double x) {
    const double y = x + mu;
    return y - 2.0 * mu * std::log(y) - mu * mu / y;
  };
  return (antiderivative(b) - antiderivative(a)) / (b - a);
}

}  // namespace relbench::oracle
