//! Mapping explorer: how the physical core sequence of each strategy looks
//! on a real platform, and what it costs for each class of communication.
//!
//! Prints the sequences of the paper's Fig. 9–11, then measures (with the
//! cost model) a global allgather, concurrent group allgathers and the
//! orthogonal exchange under every strategy on all three modelled clusters.
//!
//! ```text
//! cargo run --release --example mapping_explorer
//! ```

use parallel_tasks::core::MappingStrategy;
use parallel_tasks::cost::{CommContext, CostModel};
use parallel_tasks::machine::{platforms, CoreId};

fn main() {
    // --- The sequences of Fig. 9–11 on the 4-node example platform -------
    let fig = platforms::example_4x2x2();
    println!(
        "Physical core sequences on {} (labels nid.pid.cid):",
        fig.name
    );
    for s in [
        MappingStrategy::Consecutive,
        MappingStrategy::Scattered,
        MappingStrategy::Mixed(2),
    ] {
        let seq = s.core_sequence(&fig);
        let labels: Vec<String> = seq
            .iter()
            .take(8)
            .map(|&c| fig.label(c).to_string())
            .collect();
        println!("  {:<12} {} ...", s.name(), labels.join(" "));
    }

    // --- Communication costs per strategy on the evaluation platforms ----
    for machine in [platforms::chic(), platforms::altix(), platforms::juropa()] {
        let cores = 128.min(machine.total_cores());
        let spec = machine.with_cores(cores / machine.cores_per_node() * machine.cores_per_node());
        let model = CostModel::new(&spec);
        let ctx = CommContext::uniform(&spec);
        let bytes = 1 << 21; // 2 MiB gathered
        println!(
            "\n{} ({} cores): communication times [ms] per strategy",
            spec.name, cores
        );
        println!(
            "  {:<12} {:>12} {:>14} {:>14}",
            "strategy", "global AG", "4 group AGs", "orthogonal"
        );
        for s in MappingStrategy::all_for(&spec) {
            let mapping = s.mapping(&spec, cores);
            let global = model.allgather(&ctx, mapping.sequence(), bytes as f64);
            let groups: Vec<Vec<CoreId>> = (0..4)
                .map(|g| mapping.map_range(g * cores / 4..(g + 1) * cores / 4))
                .collect();
            let group_t = model.multi_allgather(&groups, bytes as f64 / 4.0);
            let ortho = model.orthogonal_exchange(&groups, bytes as f64 / 4.0);
            println!(
                "  {:<12} {:>12.3} {:>14.3} {:>14.3}",
                s.name(),
                global * 1e3,
                group_t * 1e3,
                ortho * 1e3
            );
        }
    }
    println!(
        "\nReading: consecutive wins global/group collectives (ring neighbours stay \
         intra-node); scattered wins the orthogonal exchange (position sets become \
         node-local) — the trade-off behind the paper's mapping strategies."
    );
}
