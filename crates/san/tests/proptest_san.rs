//! Property-based tests of the SAN engine and the CTMC solver.

use proptest::prelude::*;
use vsched_des::Dist;
use vsched_san::{solve_steady_state, CtmcOptions, Model, ModelBuilder, PlaceId, Simulator};

/// A random birth-death chain on 0..=k with per-level rates.
fn birth_death(k: usize, births: &[f64], deaths: &[f64]) -> Model {
    let mut mb = ModelBuilder::new();
    let level = mb.place("level", 0).unwrap();
    for (i, &rate) in births.iter().enumerate() {
        let at = i as i64;
        mb.activity(&format!("birth{i}"))
            .unwrap()
            .timed(Dist::exponential(1.0 / rate).unwrap())
            .guard("at_level", move |m| m.tokens(level) == at)
            .output_arc(level, 1)
            .done()
            .unwrap();
    }
    for (i, &rate) in deaths.iter().enumerate() {
        let at = (i + 1) as i64;
        mb.activity(&format!("death{i}"))
            .unwrap()
            .timed(Dist::exponential(1.0 / rate).unwrap())
            .guard("at_level", move |m| m.tokens(level) == at)
            .input_arc(level, 1)
            .done()
            .unwrap();
    }
    let _ = k;
    mb.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random birth-death chains: the numerical solution satisfies
    /// detailed balance (π_i λ_i = π_{i+1} μ_{i+1}) and sums to one.
    #[test]
    fn numerical_satisfies_detailed_balance(
        k in 1usize..6,
        rates in proptest::collection::vec(0.2f64..5.0, 12),
    ) {
        let births: Vec<f64> = rates[..k].to_vec();
        let deaths: Vec<f64> = rates[6..6 + k].to_vec();
        let model = birth_death(k, &births, &deaths);
        let level = model.place_by_name("level").unwrap();
        let sol = solve_steady_state(&model, CtmcOptions::default()).unwrap();
        prop_assert!(sol.converged());
        prop_assert_eq!(sol.num_states(), k + 1);
        let total: f64 = sol.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let pi_at = |lvl: i64| sol.probability_where(|m| m.tokens(level) == lvl);
        for i in 0..k {
            let lhs = pi_at(i as i64) * births[i];
            let rhs = pi_at(i as i64 + 1) * deaths[i];
            prop_assert!(
                (lhs - rhs).abs() < 1e-6,
                "detailed balance at level {}: {} vs {}", i, lhs, rhs
            );
        }
    }

    /// The simulator conserves tokens in a random closed ring: one token
    /// circulates forever, never duplicated or lost.
    #[test]
    fn simulator_conserves_ring_token(
        n in 2usize..6,
        means in proptest::collection::vec(0.5f64..4.0, 6),
        seed in 0u64..1000,
        horizon in 10.0f64..500.0,
    ) {
        let mut mb = ModelBuilder::new();
        let places: Vec<_> = (0..n)
            .map(|i| mb.place(&format!("p{i}"), i64::from(i == 0)).unwrap())
            .collect();
        for i in 0..n {
            mb.activity(&format!("move{i}"))
                .unwrap()
                .timed(Dist::exponential(means[i]).unwrap())
                .input_arc(places[i], 1)
                .output_arc(places[(i + 1) % n], 1)
                .done()
                .unwrap();
        }
        let model = mb.build().unwrap();
        let mut sim = Simulator::new(model, seed);
        sim.run_until(horizon).unwrap();
        let total: i64 = places.iter().map(|&p| sim.marking().tokens(p)).sum();
        prop_assert_eq!(total, 1, "ring token duplicated or lost");
    }

    /// The headline claim of the incremental reevaluation core: on random
    /// gated models — mixed declared and undeclared read-sets, test and
    /// inhibitor arcs, rate multipliers, dynamic case weights, and timed,
    /// zero-delay timed and instantaneous activities — the incremental
    /// mode's run is **bit-identical** to the full-rescan reference mode:
    /// same final marking, same completion/abort counts, same reward bit
    /// patterns. So is a run paused at a breakpoint on a drawn activity
    /// (`run_until_break`) and then resumed to the horizon, and one that
    /// switches to the full rescan at that breakpoint and back to the
    /// counted conditions later. Every run applies one external mutation
    /// (`apply_external`) halfway through the horizon.
    ///
    /// The drawn 8-activity block is replicated `blocks` times, each copy
    /// over its own `n` places and feeding the next copy's, with three
    /// rate rewards per place (declared, undeclared, and declared with a
    /// duplicate). At 16 blocks the activity and reward indices pass 128,
    /// so the candidate sets span three 64-bit words.
    ///
    /// Zero-delay work spends one `fuel` token per completion, and only a
    /// timed `refuel` activity adds fuel, so no cascade runs forever. The
    /// instantaneous priorities straddle `-1_000_000`, where they tie with
    /// timed activities at the same instant.
    ///
    /// Each block also has a timed source that feeds its head place while
    /// that place holds at most 2 tokens, so tokens keep flowing. A drawn
    /// wiring can still jam every block, but `refuel` has no inputs and
    /// no guard: over a horizon of at least 60 it expects 300 completions
    /// on its own, so every case runs at least 200.
    #[test]
    fn incremental_is_bit_identical_to_full_rescan(
        n in 2usize..5,
        blocks in 1usize..17,
        init in proptest::collection::vec(0i64..4, 5),
        means in proptest::collection::vec(0.3f64..3.0, 8),
        wiring in proptest::collection::vec(0usize..10_000, 8),
        declare in proptest::collection::vec(any::<bool>(), 8),
        timing in proptest::collection::vec(0u8..6, 8),
        seed in 0u64..200,
        horizon in 60.0f64..200.0,
        stop in 0usize..128,
        poke in (0usize..10_000, 0i64..5),
    ) {
        const PRIORITIES: [i32; 5] = [-1_000_001, -1_000_000, -999_999, 0, 7];
        let build = || {
            let mut mb = ModelBuilder::new();
            let places: Vec<PlaceId> = (0..n * blocks)
                .map(|j| mb.place(&format!("p{j}"), init[j % n]).unwrap())
                .collect();
            let fuel = mb.place("fuel", init[4]).unwrap();
            for b in 0..blocks {
                let own = |x: usize| places[b * n + x % n];
                let next = |x: usize| places[(b + 1) % blocks * n + x % n];
                for (i, &mean) in means.iter().enumerate() {
                    let src = own(wiring[i]);
                    let dst = next(wiring[i] / n);
                    let gp = own(wiring[i] / (n * n));
                    let wp = own(wiring[i] / 7);
                    let a = mb.activity(&format!("b{b}a{i}")).unwrap();
                    let mut a = match timing[i] {
                        0..=2 => a.timed(Dist::exponential(mean).unwrap()),
                        3 => a.timed(Dist::deterministic(0.0).unwrap()).input_arc(fuel, 1),
                        _ => a
                            .instantaneous(PRIORITIES[wiring[i] % PRIORITIES.len()])
                            .input_arc(fuel, 1),
                    };
                    a = a.input_arc(src, 1);
                    a = if (wiring[i] / 5).is_multiple_of(2) {
                        a.test_arc(wp, 1 + (wiring[i] / 10 % 2) as i64)
                    } else {
                        a.inhibitor_arc(wp, 2 + (wiring[i] / 10 % 3) as i64)
                    };
                    a = a.guard("below_cap", move |m| m.tokens(gp) <= 2);
                    if declare[i] {
                        a = a.reads([gp]);
                    }
                    if timing[i] <= 3 && wiring[i].is_multiple_of(3) {
                        a = a.rate_multiplier(move |m| 1.0 + m.tokens(gp) as f64);
                        if declare[i] {
                            a = a.reads([gp]);
                        }
                    }
                    if wiring[i] % 4 == 1 {
                        // Two cases under dynamic weights; the second case
                        // routes through an output gate instead of an arc.
                        a = a
                            .case(1.0)
                            .output_arc(dst, 1)
                            .case(1.0)
                            .output_gate("stash", move |m, _rng| {
                                let t = m.tokens(gp);
                                m.set(gp, t); // read-modify-write, no net change
                                m.add(dst, 1);
                            })
                            .dynamic_case_weights_into(move |m, out| {
                                out.push(1.0 + m.tokens(wp) as f64);
                                out.push(1.0);
                            });
                    } else {
                        a = a.output_arc(dst, 1);
                    }
                    a.done().unwrap();
                }
                let head = own(0);
                mb.activity(&format!("b{b}src"))
                    .unwrap()
                    .timed(Dist::exponential(1.0).unwrap())
                    .guard("head_below_cap", move |m| m.tokens(head) <= 2)
                    .reads([head])
                    .output_arc(head, 1)
                    .done()
                    .unwrap();
            }
            mb.activity("refuel")
                .unwrap()
                .timed(Dist::exponential(0.2).unwrap())
                .output_arc(fuel, 1)
                .done()
                .unwrap();
            mb.build().unwrap()
        };
        // `stop` pauses the run at a breakpoint within the first half;
        // `toggle` then runs on the full rescan until three quarters of
        // the horizon, across the external mutation. Every run stops at
        // half and three quarters of the horizon, so the reward
        // accumulators integrate over the same intervals.
        let run = |full: bool, stop: Option<usize>, toggle: bool| {
            let model = build();
            let ps: Vec<PlaceId> = (0..n * blocks)
                .map(|j| model.place_by_name(&format!("p{j}")).unwrap())
                .collect();
            let fuel = model.place_by_name("fuel").unwrap();
            let mut sim = Simulator::new(model, seed);
            let mut rids = Vec::new();
            for (j, &p) in ps.iter().enumerate() {
                let q = ps[(j + 1) % ps.len()];
                rids.push(sim.add_rate_reward_with_reads(format!("r{j}"), [p], move |m| {
                    m.tokens(p) as f64
                }));
                rids.push(sim.add_rate_reward(format!("r{j}_all"), move |m| m.tokens(p) as f64));
                rids.push(sim.add_rate_reward_with_reads(
                    format!("r{j}_pair"),
                    [q, p, q],
                    move |m| (m.tokens(p) * m.tokens(q)) as f64,
                ));
            }
            sim.set_full_rescan(full);
            let half = horizon / 2.0;
            if let Some(k) = stop {
                let name = format!("b{}a{}", k / 8 % blocks, k % 8);
                let act = sim.model().activity_by_name(&name).unwrap();
                if sim.run_until_break(half, act).unwrap() {
                    assert!(sim.time().as_f64() <= half, "paused inside the window");
                }
                if toggle {
                    sim.set_full_rescan(true);
                }
            }
            sim.run_until(half).unwrap();
            let (poked, level) = (ps[poke.0 % ps.len()], poke.1);
            sim.apply_external(|m| {
                m.set(poked, level);
                m.add(fuel, 2);
            });
            sim.run_until(half * 1.5).unwrap();
            sim.set_full_rescan(full);
            sim.run_until(horizon).unwrap();
            let rewards: Vec<u64> = rids
                .iter()
                .map(|&r| sim.rate_reward_average(r).to_bits())
                .collect();
            // Visits differ between the modes by design; the work done
            // (completions and aborts) must not.
            let stats = sim.stats();
            (
                sim.marking().as_slice().to_vec(),
                (stats.completions, stats.aborts),
                rewards,
            )
        };
        let reference = run(true, None, false);
        let (_, (completions, _), _) = &reference;
        prop_assert!(
            *completions >= 200,
            "only {} completions: the run checks too little", completions
        );
        prop_assert_eq!(&reference, &run(false, None, false));
        prop_assert_eq!(&reference, &run(false, Some(stop), false));
        prop_assert_eq!(&reference, &run(false, Some(stop), true));
    }

    /// Simulation and numerical solution agree on the two-state chain for
    /// random rates (loose tolerance: simulation noise).
    #[test]
    fn simulation_tracks_numerical_two_state(
        fail_mean in 1.0f64..20.0,
        repair_mean in 1.0f64..20.0,
        seed in 0u64..50,
    ) {
        let build = || {
            let mut mb = ModelBuilder::new();
            let up = mb.place("up", 1).unwrap();
            let down = mb.place("down", 0).unwrap();
            mb.activity("fail")
                .unwrap()
                .timed(Dist::exponential(fail_mean).unwrap())
                .input_arc(up, 1)
                .output_arc(down, 1)
                .done()
                .unwrap();
            mb.activity("repair")
                .unwrap()
                .timed(Dist::exponential(repair_mean).unwrap())
                .input_arc(down, 1)
                .output_arc(up, 1)
                .done()
                .unwrap();
            mb.build().unwrap()
        };
        let model = build();
        let up = model.place_by_name("up").unwrap();
        let sol = solve_steady_state(&model, CtmcOptions::default()).unwrap();
        let exact = sol.probability_where(|m| m.tokens(up) == 1);

        let mut sim = Simulator::new(build(), seed);
        let avail = sim.add_rate_reward("up", move |m| m.tokens(up) as f64);
        let horizon = (fail_mean + repair_mean) * 2_000.0;
        sim.run_until(horizon).unwrap();
        let measured = sim.rate_reward_average(avail);
        prop_assert!(
            (measured - exact).abs() < 0.05,
            "exact {} vs simulated {}", exact, measured
        );
    }
}
