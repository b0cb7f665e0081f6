// Reference computations made apart from the library: closed-form
// birth-death pools, Poisson-binomial k-of-n, an independent reader and
// evaluator of the model text format, and the closed-form renewal
// availability of the two-phase rejuvenation MRGP. Nothing here calls into
// relkit, so a fault in the library cannot hide in its own oracle.
#pragma once

#include <string>
#include <vector>

namespace relbench::oracle {

/// Stationary distribution of the k-of-n pool's birth-death chain over the
/// number of failed units i = 0..n (failure rate (n - i) lambda, one
/// repairer of rate mu), in closed form.
std::vector<double> pool_distribution(int n, double lambda, double mu);

/// Transient law at time t of the pool's birth-death chain started with
/// every unit up: row 0 of exp(Q t), by scaling and squaring. With
/// alpha >= every exit rate, exp(Q tau) = e^{-alpha tau} exp((Q + alpha I)
/// tau), a series of nonnegative matrices, and squaring keeps it
/// nonnegative, so every entry, however small, is accurate to a relative
/// few hundred ulps.
std::vector<double> pool_transient(int n, double lambda, double mu, double t);

/// Two independent pools (n1, lambda1, mu1) and (n2, lambda2, mu2), state
/// (i, j) at index i * (n2 + 1) + j. Expected sojourn times L(t) from the
/// all-up state, given the law pi(t): integrating d pi / dt = pi Q over
/// [0, t] gives L Q = pi(t) - pi(0), which with sum L = t fixes L; solved
/// by Gaussian elimination with partial pivoting on the dense generator.
std::vector<double> pair_cumulative(int n1, double lambda1, double mu1, int n2,
                                    double lambda2, double mu2,
                                    const std::vector<double>& pi_t, double t);

/// P(at least k of n units up) from the closed form, summed over the down
/// states and subtracted once (accurate for tiny unavailabilities).
double pool_availability(int n, int k, double lambda, double mu);
double pool_unavailability(int n, int k, double lambda, double mu);

/// P(at least k of the independent items are "on"), by dynamic programming
/// over the Poisson-binomial distribution.
double at_least_k(const std::vector<double>& on, int k);

/// The "steady" figure relkit reports for a model text: availability for
/// `model rbd`, top-event probability for `model ftree`, s-t reliability
/// for `model relgraph`. Sets *error (and returns NaN) on text this reader
/// does not understand.
double steady_value(const std::string& text, std::string* error);

/// Two-terminal reliability of the bridge network (edges A: s-1, C: s-2,
/// B: 1-t, D: 2-t, E: 1-2 undirected) by conditioning on E.
double bridge_reliability(double a, double b, double c, double d, double e);

/// Long-run availability of the two-phase aging server under a
/// deterministic rejuvenation timer of period `interval`: robust -> fragile
/// at `aging`, fragile -> crash at `crash`; a crash costs a repair of mean
/// `repair_mean`, a timer expiry a rejuvenation of mean `rejuv_mean`.
/// Renewal-reward closed form (hypoexponential time to crash).
double rejuvenation_availability(double interval, double aging, double crash,
                                 double repair_mean, double rejuv_mean);

/// E[(x / (x + mu))^2] for x ~ Uniform(a, b), in closed form.
double mean_square_ratio_uniform(double a, double b, double mu);

}  // namespace relbench::oracle
