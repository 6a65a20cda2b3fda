//! Numerical (analytic) solution of Markovian SANs.
//!
//! The paper's background section notes that "once constructed, a model
//! can be solved either analytically/numerically or by simulation, as
//! provided by the Mobius tool". This module supplies the numerical side
//! for the class of models where it is sound: every timed activity is
//! **exponential**, making the SAN a continuous-time Markov chain (CTMC)
//! over its reachable markings.
//!
//! Pipeline:
//!
//! 1. **State-space generation** — breadth-first exploration of reachable
//!    markings. Each firing follows the simulator's completion rule:
//!    input arcs are consumed, the case weights are evaluated on the
//!    marking that results, and every case of positive weight is one
//!    branch. *Vanishing* markings (where an instantaneous activity is
//!    enabled) are eliminated on the fly: the highest-priority enabled
//!    instantaneous activity fires immediately, its cases splitting the
//!    probability mass, until a *tangible* marking is reached.
//! 2. **Steady state** — the CTMC generator is uniformized and solved by
//!    power iteration (`π P = π`, `P = I + Q/Λ`), which converges for
//!    ergodic chains.
//! 3. **Rewards** — the steady-state expectation of any rate reward is
//!    `Σ_s π(s)·f(s)`.
//!
//! # Determinism requirement
//!
//! Output gates receive an RNG stream for simulation; for numerical
//! solution they **must not use it** — each firing must be a deterministic
//! function of the marking. The solver passes a fixed-seed stream, so a
//! stochastic gate silently degrades the result; keep gates deterministic
//! (sample in case weights instead, which the solver handles exactly).

use std::collections::HashMap;

use vsched_des::{Dist, Xoshiro256StarStar};

use crate::activity::Timing;
use crate::builder::Model;
use crate::error::SanError;
use crate::marking::Marking;

/// Configuration for [`solve_steady_state`].
#[derive(Debug, Clone, Copy)]
pub struct CtmcOptions {
    /// Abort exploration past this many tangible states.
    pub max_states: usize,
    /// Power-iteration convergence tolerance (L1 distance per sweep).
    pub tolerance: f64,
    /// Power-iteration cap.
    pub max_iterations: usize,
    /// Recursion cap when eliminating chains of vanishing markings.
    pub max_vanishing_depth: usize,
}

impl Default for CtmcOptions {
    fn default() -> Self {
        CtmcOptions {
            max_states: 100_000,
            tolerance: 1e-12,
            max_iterations: 200_000,
            max_vanishing_depth: 1_000,
        }
    }
}

/// Steady-state solution of a Markovian SAN.
#[derive(Debug)]
pub struct CtmcSolution {
    states: Vec<Marking>,
    pi: Vec<f64>,
    converged: bool,
    iterations: usize,
}

impl CtmcSolution {
    /// Number of tangible states explored.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Whether power iteration met the tolerance (a `false` here usually
    /// means the chain is reducible or periodic — treat results with
    /// suspicion).
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Power-iteration sweeps performed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Steady-state probability vector, aligned with the explored states.
    #[must_use]
    pub fn probabilities(&self) -> &[f64] {
        &self.pi
    }

    /// The explored tangible markings.
    #[must_use]
    pub fn states(&self) -> &[Marking] {
        &self.states
    }

    /// Steady-state expectation of a rate reward: `Σ π(s) f(s)`.
    pub fn expected_reward(&self, f: impl Fn(&Marking) -> f64) -> f64 {
        self.states
            .iter()
            .zip(&self.pi)
            .map(|(m, &p)| p * f(m))
            .sum()
    }

    /// Total steady-state probability of markings satisfying `pred`.
    pub fn probability_where(&self, pred: impl Fn(&Marking) -> bool) -> f64 {
        self.expected_reward(|m| f64::from(pred(m)))
    }
}

/// The explored CTMC: tangible markings, rate transitions, and the
/// probability distribution over initial tangible states.
struct Chain {
    states: Vec<Marking>,
    transitions: Vec<Vec<(usize, f64)>>,
    initial: Vec<f64>,
}

/// Generates the tangible state space and rate matrix of a Markovian SAN.
fn build_chain(model: &Model, options: CtmcOptions) -> Result<Chain, SanError> {
    // Validate: every timed activity exponential; collect rates.
    let mut rates = vec![0.0f64; model.activities.len()];
    for (i, act) in model.activities.iter().enumerate() {
        match &act.timing {
            Timing::Timed(Dist::Exponential { mean }) => rates[i] = 1.0 / mean,
            Timing::Timed(_) => {
                return Err(SanError::NotMarkovian {
                    activity: act.name().to_string(),
                })
            }
            Timing::Instantaneous { .. } => {}
        }
    }

    let mut explorer = Explorer {
        model,
        options,
        rng: Xoshiro256StarStar::seed_from(0),
    };

    // Resolve the initial marking (it may be vanishing).
    let initial_marking = explorer.model.initial_marking();
    let initial_tangibles = explorer.resolve_vanishing(initial_marking, 0)?;

    // BFS over tangible markings.
    let mut index: HashMap<Vec<i64>, usize> = HashMap::new();
    let mut states: Vec<Marking> = Vec::new();
    let mut transitions: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut frontier: Vec<usize> = Vec::new();
    let intern = |m: Marking,
                  index: &mut HashMap<Vec<i64>, usize>,
                  states: &mut Vec<Marking>,
                  transitions: &mut Vec<Vec<(usize, f64)>>,
                  frontier: &mut Vec<usize>|
     -> Result<usize, SanError> {
        let key = m.as_slice().to_vec();
        if let Some(&i) = index.get(&key) {
            return Ok(i);
        }
        if states.len() >= options.max_states {
            return Err(SanError::StateSpaceExceeded {
                limit: options.max_states,
            });
        }
        let i = states.len();
        index.insert(key, i);
        states.push(m);
        transitions.push(Vec::new());
        frontier.push(i);
        Ok(i)
    };
    let mut initial = Vec::new();
    for (m, p) in initial_tangibles {
        let i = intern(m, &mut index, &mut states, &mut transitions, &mut frontier)?;
        if initial.len() <= i {
            initial.resize(i + 1, 0.0);
        }
        initial[i] += p;
    }

    while let Some(s) = frontier.pop() {
        let marking = states[s].clone();
        for (act_idx, act) in model.activities.iter().enumerate() {
            if !matches!(act.timing, Timing::Timed(_)) || !act.enabled(&marking) {
                continue;
            }
            let rate = rates[act_idx] * act.rate_multiplier(&marking);
            for (succ, prob) in explorer.fire_all_cases(&marking, act_idx)? {
                let tangibles = explorer.resolve_vanishing(succ, 0)?;
                for (t_marking, t_prob) in tangibles {
                    let t = intern(
                        t_marking,
                        &mut index,
                        &mut states,
                        &mut transitions,
                        &mut frontier,
                    )?;
                    if t != s {
                        transitions[s].push((t, rate * prob * t_prob));
                    }
                }
            }
        }
    }
    initial.resize(states.len(), 0.0);
    Ok(Chain {
        states,
        transitions,
        initial,
    })
}

impl Chain {
    /// Total exit rate of each state and the uniformization constant.
    fn uniformize(&self) -> (Vec<f64>, f64) {
        let exit: Vec<f64> = self
            .transitions
            .iter()
            .map(|ts| ts.iter().map(|&(_, r)| r).sum())
            .collect();
        let lambda = exit.iter().cloned().fold(0.0, f64::max).max(1e-12) * 1.1;
        (exit, lambda)
    }

    /// One step of the uniformized DTMC: `next = pi · P`.
    fn step(&self, pi: &[f64], next: &mut [f64], exit: &[f64], lambda: f64) {
        for x in next.iter_mut() {
            *x = 0.0;
        }
        for s in 0..self.states.len() {
            next[s] += pi[s] * (1.0 - exit[s] / lambda);
            for &(t, r) in &self.transitions[s] {
                next[t] += pi[s] * r / lambda;
            }
        }
    }
}

/// Solves the steady state of a Markovian SAN. See the module docs.
///
/// # Errors
///
/// * [`SanError::NotMarkovian`] if any timed activity is non-exponential;
/// * [`SanError::StateSpaceExceeded`] past `options.max_states`;
/// * [`SanError::InstantaneousLoop`] if vanishing markings chain beyond
///   `options.max_vanishing_depth`;
/// * [`SanError::InvalidCaseWeight`] if dynamic case weights on a
///   reachable marking have the wrong count or no positive finite total.
pub fn solve_steady_state(model: &Model, options: CtmcOptions) -> Result<CtmcSolution, SanError> {
    let chain = build_chain(model, options)?;
    let Chain {
        states,
        transitions: _,
        initial: _,
    } = &chain;
    let n = states.len();
    let (exit, lambda) = chain.uniformize();
    let mut pi = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut converged = false;
    let mut iterations = 0;
    for it in 0..options.max_iterations {
        iterations = it + 1;
        chain.step(&pi, &mut next, &exit, lambda);
        let diff: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut next);
        if diff < options.tolerance {
            converged = true;
            break;
        }
    }
    // Normalize against drift.
    let total: f64 = pi.iter().sum();
    if total > 0.0 {
        for p in &mut pi {
            *p /= total;
        }
    }
    Ok(CtmcSolution {
        states: chain.states,
        pi,
        converged,
        iterations,
    })
}

/// Transient solution: the state distribution at virtual time `t`, by
/// uniformization — `π(t) = Σ_k Poisson(Λt; k) · π(0) Pᵏ`, truncated when
/// the remaining Poisson mass falls below the tolerance. A `t` of zero or
/// less (or NaN) gives the initial distribution.
///
/// # Errors
///
/// The same as [`solve_steady_state`]; `t` itself is never an error.
pub fn solve_transient(
    model: &Model,
    t: f64,
    options: CtmcOptions,
) -> Result<CtmcSolution, SanError> {
    let chain = build_chain(model, options)?;
    let n = chain.states.len();
    let (exit, lambda) = chain.uniformize();
    let mut pk = chain.initial.clone(); // π(0) Pᵏ for k = 0
    let mut result = vec![0.0f64; n];
    let mut next = vec![0.0f64; n];
    let lt = (lambda * t.max(0.0)).min(1e9);
    // Poisson(Λt) weights, computed iteratively to avoid overflow.
    let mut weight = (-lt).exp();
    let mut accumulated = 0.0;
    let mut k = 0usize;
    let mut iterations = 0;
    while accumulated < 1.0 - options.tolerance && k < options.max_iterations {
        if weight > 0.0 {
            for (r, &p) in result.iter_mut().zip(&pk) {
                *r += weight * p;
            }
            accumulated += weight;
        }
        chain.step(&pk, &mut next, &exit, lambda);
        std::mem::swap(&mut pk, &mut next);
        k += 1;
        iterations = k;
        weight *= lt / k as f64;
        // Guard against underflowed leading weights for large Λt: once the
        // weight rises above the tolerance the accumulation is meaningful.
        if weight.is_nan() {
            break;
        }
    }
    // Normalize the truncated distribution.
    let total: f64 = result.iter().sum();
    let converged = accumulated >= 1.0 - options.tolerance.max(1e-9) || total > 0.999;
    if total > 0.0 {
        for p in &mut result {
            *p /= total;
        }
    }
    Ok(CtmcSolution {
        states: chain.states,
        pi: result,
        converged,
        iterations,
    })
}

struct Explorer<'a> {
    model: &'a Model,
    options: CtmcOptions,
    /// Fixed-seed stream handed to output gates (which must ignore it).
    rng: Xoshiro256StarStar,
}

impl Explorer<'_> {
    /// Fires activity `act_idx` in `marking` once per case of positive
    /// weight, returning the successor markings with their case
    /// probabilities.
    fn fire_all_cases(
        &mut self,
        marking: &Marking,
        act_idx: usize,
    ) -> Result<Vec<(Marking, f64)>, SanError> {
        let act = &self.model.activities[act_idx];
        let invalid = || SanError::InvalidCaseWeight {
            activity: act.name().to_string(),
        };
        let mut consumed = marking.clone();
        let mut scratch = Vec::new();
        let weights = act
            .consume_inputs(&mut consumed, &mut scratch)
            .ok_or_else(invalid)?;
        let total: f64 = weights.iter().sum();
        if !(total > 0.0 && total.is_finite()) {
            return Err(invalid());
        }
        let mut result = Vec::with_capacity(weights.len());
        for (case, weight) in weights.iter().enumerate() {
            let prob = weight / total;
            if prob <= 0.0 {
                continue;
            }
            let mut succ = consumed.clone();
            act.produce_outputs(case, &mut succ, &mut self.rng);
            result.push((succ, prob));
        }
        Ok(result)
    }

    /// Eliminates vanishing markings: returns the tangible markings
    /// reachable through instantaneous firings, with probabilities.
    fn resolve_vanishing(
        &mut self,
        marking: Marking,
        depth: usize,
    ) -> Result<Vec<(Marking, f64)>, SanError> {
        if depth > self.options.max_vanishing_depth {
            return Err(SanError::InstantaneousLoop {
                at_time: f64::NAN,
                limit: self.options.max_vanishing_depth as u64,
            });
        }
        // Highest-priority enabled instantaneous activity fires first;
        // ties resolve by activity index (the simulator's FIFO order).
        let mut chosen: Option<(usize, i32)> = None;
        for (i, act) in self.model.activities.iter().enumerate() {
            if let Timing::Instantaneous { priority } = act.timing {
                if act.enabled(&marking) {
                    let better = match chosen {
                        None => true,
                        Some((_, best)) => priority > best,
                    };
                    if better {
                        chosen = Some((i, priority));
                    }
                }
            }
        }
        let Some((act_idx, _)) = chosen else {
            return Ok(vec![(marking, 1.0)]);
        };
        let mut result = Vec::new();
        for (succ, prob) in self.fire_all_cases(&marking, act_idx)? {
            for (t, p) in self.resolve_vanishing(succ, depth + 1)? {
                result.push((t, prob * p));
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::sim::Simulator;

    /// M/M/1/K queue: arrivals rate λ, service rate μ, capacity K.
    fn mm1k(lambda: f64, mu: f64, k: i64) -> Model {
        let mut mb = ModelBuilder::new();
        let queue = mb.place("queue", 0).unwrap();
        mb.activity("arrive")
            .unwrap()
            .timed(Dist::exponential(1.0 / lambda).unwrap())
            .guard("capacity", move |m| m.tokens(queue) < k)
            .output_arc(queue, 1)
            .done()
            .unwrap();
        mb.activity("serve")
            .unwrap()
            .timed(Dist::exponential(1.0 / mu).unwrap())
            .input_arc(queue, 1)
            .done()
            .unwrap();
        mb.build().unwrap()
    }

    #[test]
    fn mm1k_matches_closed_form() {
        // λ=1, μ=2, K=5: π_i ∝ ρ^i with ρ = 0.5.
        let model = mm1k(1.0, 2.0, 5);
        let queue = model.place_by_name("queue").unwrap();
        let sol = solve_steady_state(&model, CtmcOptions::default()).unwrap();
        assert!(sol.converged());
        assert_eq!(sol.num_states(), 6);
        let rho: f64 = 0.5;
        let norm: f64 = (0..=5).map(|i| rho.powi(i)).sum();
        for (m, &p) in sol.states().iter().zip(sol.probabilities()) {
            let i = m.tokens(queue) as i32;
            let expected = rho.powi(i) / norm;
            assert!(
                (p - expected).abs() < 1e-9,
                "π({i}) = {p}, expected {expected}"
            );
        }
        // Mean queue length.
        let expected_l: f64 = (0i32..=5).map(|i| f64::from(i) * rho.powi(i) / norm).sum();
        let l = sol.expected_reward(|m| m.tokens(queue) as f64);
        assert!((l - expected_l).abs() < 1e-9);
    }

    #[test]
    fn two_state_availability() {
        // up --(fail, rate 1/10)--> down --(repair, rate 1/2)--> up:
        // availability = MTTF / (MTTF + MTTR) = 10 / 12.
        let mut mb = ModelBuilder::new();
        let up = mb.place("up", 1).unwrap();
        let down = mb.place("down", 0).unwrap();
        mb.activity("fail")
            .unwrap()
            .timed(Dist::exponential(10.0).unwrap())
            .input_arc(up, 1)
            .output_arc(down, 1)
            .done()
            .unwrap();
        mb.activity("repair")
            .unwrap()
            .timed(Dist::exponential(2.0).unwrap())
            .input_arc(down, 1)
            .output_arc(up, 1)
            .done()
            .unwrap();
        let model = mb.build().unwrap();
        let up_place = model.place_by_name("up").unwrap();
        let sol = solve_steady_state(&model, CtmcOptions::default()).unwrap();
        let avail = sol.probability_where(|m| m.tokens(up_place) == 1);
        assert!((avail - 10.0 / 12.0).abs() < 1e-9, "availability {avail}");
    }

    #[test]
    fn vanishing_markings_split_by_case_probability() {
        // A single token cycles: idle --exp(1)--> pending, which an
        // instantaneous router sends to a (p=0.3) or b (p=0.7); both
        // return to idle at rate 0.5. Closed form (flow balance):
        // π_a = 0.6 π_idle, π_b = 1.4 π_idle → π = (1, 0.6, 1.4) / 3.
        let mut mb = ModelBuilder::new();
        let idle = mb.place("idle", 1).unwrap();
        let pending = mb.place("pending", 0).unwrap();
        let a = mb.place("a", 0).unwrap();
        let b = mb.place("b", 0).unwrap();
        mb.activity("source")
            .unwrap()
            .timed(Dist::exponential(1.0).unwrap())
            .input_arc(idle, 1)
            .output_arc(pending, 1)
            .done()
            .unwrap();
        mb.activity("route")
            .unwrap()
            .instantaneous(0)
            .input_arc(pending, 1)
            .case(0.3)
            .output_arc(a, 1)
            .case(0.7)
            .output_arc(b, 1)
            .done()
            .unwrap();
        mb.activity("drain_a")
            .unwrap()
            .timed(Dist::exponential(2.0).unwrap())
            .input_arc(a, 1)
            .output_arc(idle, 1)
            .done()
            .unwrap();
        mb.activity("drain_b")
            .unwrap()
            .timed(Dist::exponential(2.0).unwrap())
            .input_arc(b, 1)
            .output_arc(idle, 1)
            .done()
            .unwrap();
        let model = mb.build().unwrap();
        let sol = solve_steady_state(&model, CtmcOptions::default()).unwrap();
        assert!(sol.converged());
        assert_eq!(sol.num_states(), 3, "pending is always vanishing");
        for m in sol.states() {
            assert_eq!(m.tokens(pending), 0, "vanishing marking survived");
        }
        let pi_idle = sol.probability_where(|m| m.tokens(idle) == 1);
        let pi_a = sol.probability_where(|m| m.tokens(a) == 1);
        let pi_b = sol.probability_where(|m| m.tokens(b) == 1);
        assert!((pi_idle - 1.0 / 3.0).abs() < 1e-9, "π_idle = {pi_idle}");
        assert!((pi_a - 0.2).abs() < 1e-9, "π_a = {pi_a}");
        assert!((pi_b - 7.0 / 15.0).abs() < 1e-9, "π_b = {pi_b}");
    }

    #[test]
    fn non_exponential_rejected() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 1).unwrap();
        mb.activity("det")
            .unwrap()
            .timed(Dist::deterministic(1.0).unwrap())
            .input_arc(p, 1)
            .done()
            .unwrap();
        let model = mb.build().unwrap();
        let err = solve_steady_state(&model, CtmcOptions::default()).unwrap_err();
        assert!(matches!(err, SanError::NotMarkovian { .. }));
    }

    #[test]
    fn state_space_cap_enforced() {
        // Unbounded birth process.
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 0).unwrap();
        mb.activity("birth")
            .unwrap()
            .timed(Dist::exponential(1.0).unwrap())
            .output_arc(p, 1)
            .done()
            .unwrap();
        let model = mb.build().unwrap();
        let err = solve_steady_state(
            &model,
            CtmcOptions {
                max_states: 50,
                ..CtmcOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SanError::StateSpaceExceeded { limit: 50 }));
    }

    #[test]
    fn instantaneous_loop_detected() {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 1).unwrap();
        let q = mb.place("q", 0).unwrap();
        mb.activity("pq")
            .unwrap()
            .instantaneous(0)
            .input_arc(p, 1)
            .output_arc(q, 1)
            .done()
            .unwrap();
        mb.activity("qp")
            .unwrap()
            .instantaneous(0)
            .input_arc(q, 1)
            .output_arc(p, 1)
            .done()
            .unwrap();
        let model = mb.build().unwrap();
        let err = solve_steady_state(&model, CtmcOptions::default()).unwrap_err();
        assert!(matches!(err, SanError::InstantaneousLoop { .. }));
    }

    #[test]
    fn simulation_agrees_with_numerical() {
        // Cross-validation: the same M/M/1/K model, solved both ways.
        let model = mm1k(1.0, 1.5, 4);
        let queue = model.place_by_name("queue").unwrap();
        let sol = solve_steady_state(&model, CtmcOptions::default()).unwrap();
        let numerical_l = sol.expected_reward(|m| m.tokens(queue) as f64);

        let mut sim = Simulator::new(mm1k(1.0, 1.5, 4), 99);
        let l = sim.add_rate_reward("L", move |m| m.tokens(queue) as f64);
        sim.run_until(2_000.0).unwrap();
        sim.reset_rewards();
        sim.run_until(300_000.0).unwrap();
        let simulated_l = sim.rate_reward_average(l);
        assert!(
            (numerical_l - simulated_l).abs() < 0.05,
            "numerical {numerical_l} vs simulated {simulated_l}"
        );
    }

    #[test]
    fn transient_two_state_matches_closed_form() {
        // up --(rate a=0.1)--> down --(rate b=0.5)--> up, starting up:
        // p_up(t) = b/(a+b) + a/(a+b) · e^{-(a+b)t}.
        let build = || {
            let mut mb = ModelBuilder::new();
            let up = mb.place("up", 1).unwrap();
            let down = mb.place("down", 0).unwrap();
            mb.activity("fail")
                .unwrap()
                .timed(Dist::exponential(10.0).unwrap())
                .input_arc(up, 1)
                .output_arc(down, 1)
                .done()
                .unwrap();
            mb.activity("repair")
                .unwrap()
                .timed(Dist::exponential(2.0).unwrap())
                .input_arc(down, 1)
                .output_arc(up, 1)
                .done()
                .unwrap();
            mb.build().unwrap()
        };
        let (a, b) = (0.1, 0.5);
        for &t in &[0.0, 0.5, 2.0, 5.0, 20.0] {
            let model = build();
            let up = model.place_by_name("up").unwrap();
            let sol = solve_transient(&model, t, CtmcOptions::default()).unwrap();
            let p_up = sol.probability_where(|m| m.tokens(up) == 1);
            let expected = b / (a + b) + a / (a + b) * (-(a + b) * t).exp();
            assert!(
                (p_up - expected).abs() < 1e-6,
                "t={t}: p_up {p_up}, expected {expected}"
            );
        }
    }

    #[test]
    fn transient_at_zero_is_initial_distribution() {
        let model = mm1k(1.0, 2.0, 5);
        let queue = model.place_by_name("queue").unwrap();
        let sol = solve_transient(&model, 0.0, CtmcOptions::default()).unwrap();
        assert!((sol.probability_where(|m| m.tokens(queue) == 0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let model = mm1k(1.0, 2.0, 5);
        let queue = model.place_by_name("queue").unwrap();
        let steady = solve_steady_state(&model, CtmcOptions::default()).unwrap();
        let model2 = mm1k(1.0, 2.0, 5);
        let late = solve_transient(&model2, 200.0, CtmcOptions::default()).unwrap();
        let l_steady = steady.expected_reward(|m| m.tokens(queue) as f64);
        let l_late = late.expected_reward(|m| m.tokens(queue) as f64);
        assert!(
            (l_steady - l_late).abs() < 1e-6,
            "steady {l_steady} vs transient(200) {l_late}"
        );
    }

    /// M/M/c/K with marking-dependent service rate: service activity rate
    /// = μ · min(n, c).
    fn mmck(lambda: f64, mu: f64, c: i64, k: i64) -> Model {
        let mut mb = ModelBuilder::new();
        let queue = mb.place("queue", 0).unwrap();
        mb.activity("arrive")
            .unwrap()
            .timed(Dist::exponential(1.0 / lambda).unwrap())
            .guard("capacity", move |m| m.tokens(queue) < k)
            .output_arc(queue, 1)
            .done()
            .unwrap();
        mb.activity("serve")
            .unwrap()
            .timed(Dist::exponential(1.0 / mu).unwrap())
            .rate_multiplier(move |m| m.tokens(queue).min(c) as f64)
            .input_arc(queue, 1)
            .done()
            .unwrap();
        mb.build().unwrap()
    }

    #[test]
    fn mmck_matches_closed_form() {
        // M/M/2/6, λ=1.5, μ=1: π_n = π_0 a^n / n! (n ≤ c),
        // π_n = π_0 a^n / (c! c^{n-c}) (n > c), a = λ/μ.
        let (lambda, mu, c, k) = (1.5, 1.0, 2i64, 6i64);
        let a: f64 = lambda / mu;
        let unnorm: Vec<f64> = (0..=k)
            .map(|n| {
                let n = n as u32;
                if i64::from(n) <= c {
                    a.powi(n as i32) / (1..=n).map(f64::from).product::<f64>()
                } else {
                    let cf: f64 = (1..=c as u32).map(f64::from).product();
                    a.powi(n as i32) / (cf * (c as f64).powi(n as i32 - c as i32))
                }
            })
            .collect();
        let norm: f64 = unnorm.iter().sum();

        let model = mmck(lambda, mu, c, k);
        let queue = model.place_by_name("queue").unwrap();
        let sol = solve_steady_state(&model, CtmcOptions::default()).unwrap();
        for (m, &p) in sol.states().iter().zip(sol.probabilities()) {
            let n = m.tokens(queue) as usize;
            let expected = unnorm[n] / norm;
            assert!(
                (p - expected).abs() < 1e-9,
                "π({n}) = {p}, expected {expected}"
            );
        }
    }

    #[test]
    fn mmck_simulation_agrees_with_numerical() {
        let model = mmck(1.5, 1.0, 2, 6);
        let queue = model.place_by_name("queue").unwrap();
        let sol = solve_steady_state(&model, CtmcOptions::default()).unwrap();
        let exact_l = sol.expected_reward(|m| m.tokens(queue) as f64);

        let mut sim = Simulator::new(mmck(1.5, 1.0, 2, 6), 31);
        let l = sim.add_rate_reward("L", move |m| m.tokens(queue) as f64);
        sim.run_until(2_000.0).unwrap();
        sim.reset_rewards();
        sim.run_until(300_000.0).unwrap();
        let measured = sim.rate_reward_average(l);
        assert!(
            (measured - exact_l).abs() < 0.05,
            "numerical {exact_l} vs simulated {measured}"
        );
    }

    #[test]
    fn zero_rate_multiplier_disables() {
        // Service rate multiplier is 0 when the gatekeeper place is empty:
        // the activity must not fire at all.
        let mut mb = ModelBuilder::new();
        let gate = mb.place("gate", 0).unwrap();
        let q = mb.place("q", 5).unwrap();
        mb.activity("serve")
            .unwrap()
            .timed(Dist::exponential(0.1).unwrap())
            .rate_multiplier(move |m| m.tokens(gate) as f64)
            .input_arc(q, 1)
            .done()
            .unwrap();
        let model = mb.build().unwrap();
        let mut sim = Simulator::new(model, 3);
        sim.run_until(1_000.0).unwrap();
        assert_eq!(sim.marking().tokens(q), 5, "gated activity never fired");
    }

    /// Three places, one token: `go` moves it out of `p` into `a` or `b`
    /// with dynamic weights `[p + 1, 1]`, and `ra`/`rb` move it back. Every
    /// activity is exponential with mean 1. The weights read `p`, which
    /// `go`'s own input arc consumes.
    fn weights_read_a_consumed_place() -> Model {
        let mut mb = ModelBuilder::new();
        let p = mb.place("p", 1).unwrap();
        let a = mb.place("a", 0).unwrap();
        let b = mb.place("b", 0).unwrap();
        let exp1 = || Dist::exponential(1.0).unwrap();
        mb.activity("go")
            .unwrap()
            .timed(exp1())
            .input_arc(p, 1)
            .case(1.0)
            .output_arc(a, 1)
            .case(1.0)
            .output_arc(b, 1)
            .dynamic_case_weights(move |m| vec![m.tokens(p) as f64 + 1.0, 1.0])
            .reads([p])
            .done()
            .unwrap();
        for (name, from) in [("ra", a), ("rb", b)] {
            mb.activity(name)
                .unwrap()
                .timed(exp1())
                .input_arc(from, 1)
                .output_arc(p, 1)
                .done()
                .unwrap();
        }
        mb.build().unwrap()
    }

    #[test]
    fn ctmc_reads_case_weights_after_the_input_arcs_like_the_simulator() {
        // After `go` consumes the token, p = 0 and the weights are [1, 1]:
        // π(p) = 1/2 and π(a) = π(b) = 1/4. Weights read before the input
        // arc would be [2, 1] and give π(a) = 1/3.
        let model = weights_read_a_consumed_place();
        let a = model.place_by_name("a").unwrap();
        let sol = solve_steady_state(&model, CtmcOptions::default()).unwrap();
        let exact = sol.probability_where(|m| m.tokens(a) == 1);
        assert!((exact - 0.25).abs() < 1e-9, "CTMC π(a) = {exact}");

        let mut sim = Simulator::new(weights_read_a_consumed_place(), 7);
        let r = sim.add_rate_reward_with_reads("a", [a], move |m| m.tokens(a) as f64);
        sim.run_until(200_000.0).unwrap();
        let simulated = sim.rate_reward_average(r);
        assert!(
            (simulated - exact).abs() < 0.01,
            "simulated π(a) = {simulated}, CTMC {exact}"
        );
    }

    #[test]
    fn invalid_dynamic_weights_are_a_typed_error() {
        let build = |weights: Vec<f64>| {
            let mut mb = ModelBuilder::new();
            let p = mb.place("p", 1).unwrap();
            mb.activity("split")
                .unwrap()
                .timed(Dist::exponential(1.0).unwrap())
                .input_arc(p, 1)
                .case(1.0)
                .output_arc(p, 1)
                .case(1.0)
                .output_arc(p, 1)
                .dynamic_case_weights(move |_| weights.clone())
                .done()
                .unwrap();
            mb.build().unwrap()
        };
        for weights in [vec![0.0, 0.0], vec![1.0], vec![1.0, f64::INFINITY]] {
            let err = solve_steady_state(&build(weights.clone()), CtmcOptions::default());
            assert_eq!(
                err.unwrap_err(),
                SanError::InvalidCaseWeight {
                    activity: "split".into()
                },
                "{weights:?}"
            );
        }
    }

    #[test]
    fn solution_accessors() {
        let model = mm1k(1.0, 2.0, 2);
        let sol = solve_steady_state(&model, CtmcOptions::default()).unwrap();
        assert_eq!(sol.states().len(), sol.probabilities().len());
        assert!(sol.iterations() > 0);
        let total: f64 = sol.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
