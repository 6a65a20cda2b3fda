//! Tick-level timelines: *watching* each scheduling algorithm work.
//!
//! Aggregate metrics say who wins; the Gantt view shows why. This example
//! observes 60 ticks of the oversubscribed Figure 10 setup (2+4 VCPUs on 4
//! PCPUs, sync 1:3) under each of the paper's algorithms and renders the
//! per-VCPU lanes from the end-of-tick snapshots.
//!
//! Legend: `.` descheduled · `r` READY (scheduled, idle — the wasted time
//! Figure 10 measures) · `#` BUSY · `S` BUSY on a synchronization job.
//!
//! ```sh
//! cargo run --release --example timeline
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use vsched_core::{direct::DirectSim, observe::Timeline, PolicyKind, SystemConfig};

fn main() {
    let cfg = || {
        SystemConfig::builder()
            .pcpus(4)
            .vm(2)
            .vm(4)
            .sync_ratio(1, 3)
            .timeslice(12)
            .build()
            .expect("valid config")
    };
    println!("2+4 VCPUs on 4 PCPUs, sync 1:3, timeslice 12 — ticks 200..260\n");
    println!("legend: . descheduled   r ready/idle   # busy   S busy on sync job\n");
    for kind in PolicyKind::paper_trio() {
        let mut sim = DirectSim::new(cfg(), kind.create(), 404);
        // Draw only the steady-state window.
        let timeline = Rc::new(RefCell::new(Timeline::new(200, 260)));
        sim.attach_observer(Box::new(Rc::clone(&timeline)));
        sim.run(260).expect("observed run");
        println!("--- {} ---", kind.label());
        // VCPUs 0-1 form the 2-VCPU VM; 2-5 the 4-VCPU VM.
        print!("{}", timeline.borrow().render());
        let m = sim.metrics();
        println!(
            "(window metrics: VCPU util {:.3}, PCPU util {:.3})\n",
            m.avg_vcpu_utilization(),
            m.avg_pcpu_utilization()
        );
    }
    println!(
        "Things to look for: under RRS, 'r' runs appear behind descheduled \
         sync jobs\n(siblings idling at a barrier while the holder waits for \
         its turn); under SCS,\nVMs occupy PCPUs in solid blocks (and VM 2's \
         four lanes move in lockstep);\nunder RCS, leaders get cut short \
         ('#' runs ending before the slice) so laggards\ncatch up."
    );
}
