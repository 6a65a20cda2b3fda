//! Mobius parity: "a model can be solved either analytically/numerically
//! or by simulation" (paper §II.A).
//!
//! This example exercises both solution paths of the SAN engine on a
//! Markovian model — an M/M/1/K queue — and cross-checks them against
//! each other and against the closed-form solution. The same machinery
//! validates the simulator that runs the (non-Markovian, clock-driven)
//! VCPU model.
//!
//! ```sh
//! cargo run --release --example markov_validation
//! ```

use vsched_des::Dist;
use vsched_san::{
    solve_steady_state, solve_transient, CtmcOptions, Model, ModelBuilder, Simulator,
};

/// M/M/1/K queue as a SAN: λ arrivals, μ services, capacity K.
fn mm1k(lambda: f64, mu: f64, k: i64) -> Model {
    let mut mb = ModelBuilder::new();
    let queue = mb.place("queue", 0).expect("fresh model");
    mb.activity("arrive")
        .expect("fresh model")
        .timed(Dist::exponential(1.0 / lambda).expect("positive mean"))
        .guard("capacity", move |m| m.tokens(queue) < k)
        .output_arc(queue, 1)
        .done()
        .expect("valid activity");
    mb.activity("serve")
        .expect("fresh model")
        .timed(Dist::exponential(1.0 / mu).expect("positive mean"))
        .input_arc(queue, 1)
        .done()
        .expect("valid activity");
    mb.build().expect("valid model")
}

fn main() {
    let (lambda, mu, k) = (1.0, 1.4, 8);
    let rho: f64 = lambda / mu;

    // Closed form: π_i ∝ ρ^i, L = Σ i π_i.
    let norm: f64 = (0..=k).map(|i| rho.powi(i as i32)).sum();
    let closed_l: f64 = (0..=k).map(|i| i as f64 * rho.powi(i as i32) / norm).sum();
    let closed_p_full = rho.powi(k as i32) / norm;

    // Numerical: CTMC steady state by uniformized power iteration.
    let model = mm1k(lambda, mu, k);
    let queue = model.place_by_name("queue").expect("place exists");
    let sol = solve_steady_state(&model, CtmcOptions::default()).expect("Markovian model");
    let numerical_l = sol.expected_reward(|m| m.tokens(queue) as f64);
    let numerical_p_full = sol.probability_where(|m| m.tokens(queue) == k);

    // Simulation: the same model on the discrete-event simulator.
    let mut sim = Simulator::new(mm1k(lambda, mu, k), 2024);
    let l_reward = sim.add_rate_reward("L", move |m| m.tokens(queue) as f64);
    let full_reward = sim.add_rate_reward("full", move |m| f64::from(m.tokens(queue) == k));
    sim.run_until(5_000.0).expect("warmup");
    sim.reset_rewards();
    sim.run_until(500_000.0).expect("measurement");
    let simulated_l = sim.rate_reward_average(l_reward);
    let simulated_p_full = sim.rate_reward_average(full_reward);

    println!("M/M/1/{k} queue, λ = {lambda}, μ = {mu} (ρ = {rho:.3})\n");
    println!(
        "{:<28} {:>12} {:>12} {:>12}",
        "", "closed form", "numerical", "simulation"
    );
    println!(
        "{:<28} {:>12.5} {:>12.5} {:>12.5}",
        "mean number in system L", closed_l, numerical_l, simulated_l
    );
    println!(
        "{:<28} {:>12.5} {:>12.5} {:>12.5}",
        "blocking probability P(K)", closed_p_full, numerical_p_full, simulated_p_full
    );
    println!(
        "\nstate space: {} tangible states, {} power iterations (converged: {})",
        sol.num_states(),
        sol.iterations(),
        sol.converged()
    );

    // Transient: approach to steady state.
    println!("\ntransient E[N(t)] by uniformization:");
    for &t in &[1.0, 5.0, 20.0, 100.0] {
        let m = mm1k(lambda, mu, k);
        let tr = solve_transient(&m, t, CtmcOptions::default()).expect("Markovian model");
        println!(
            "  t = {t:>5}: {:.5}",
            tr.expected_reward(|mk| mk.tokens(queue) as f64)
        );
    }
    println!("  t →   ∞: {numerical_l:.5}");
}
