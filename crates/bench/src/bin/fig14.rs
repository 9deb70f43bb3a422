//! Figure 14 — impact of the mapping strategy on collective communication.
//!
//! * Left: execution time of a global `MPI_Allgather` on 256 cores of the
//!   CHiC cluster under the consecutive / scattered / mixed mappings.
//! * Right: the Intel-MPI Multi-Allgather pattern — 4 groups × 64 cores
//!   (the *group-based* communication of a K = 4 solver) and 64 groups × 4
//!   cores (its *orthogonal* communication) with the placements the
//!   application mappings produce.
//!
//! ```text
//! cargo run -p pt-bench --release --bin fig14 [-- --quick]
//! ```
//!
//! `--quick` reduces the message-size grid for CI smoke runs.

use pt_bench::table;
use pt_core::MappingStrategy;
use pt_cost::{CommContext, CostModel};
use pt_machine::{platforms, CoreId};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let spec = platforms::chic().with_cores(256);
    let model = CostModel::new(&spec);
    let strategies = [
        MappingStrategy::Consecutive,
        MappingStrategy::Mixed(2),
        MappingStrategy::Scattered,
    ];

    // ---- Left: one global allgather over all 256 cores ------------------
    // The x axis is the per-core contribution (as in the IMB benchmark).
    let sizes_kib: &[f64] = if quick {
        &[1.0, 64.0]
    } else {
        &[1.0, 4.0, 16.0, 64.0, 128.0, 512.0]
    };
    let ctx = CommContext::uniform(&spec);
    let mut rows = Vec::new();
    for s in strategies {
        let mapping = s.mapping(&spec, 256);
        let values: Vec<f64> = sizes_kib
            .iter()
            .map(|kib| {
                let total = kib * 1024.0 * 256.0;
                1e3 * model.allgather(&ctx, mapping.sequence(), total)
            })
            .collect();
        rows.push((s.name(), values));
    }
    table::print(
        "Fig 14 (left): global MPI_Allgather on 256 CHiC cores, time [ms] vs per-core size",
        &sizes_kib
            .iter()
            .map(|k| format!("{k} KiB"))
            .collect::<Vec<_>>(),
        &rows,
    );

    // ---- Right: Multi-Allgather with 4×64 and 64×4 groups ---------------
    let per_core = 64.0 * 1024.0;
    let mut rows = Vec::new();
    for s in strategies {
        let mapping = s.mapping(&spec, 256);
        // Group-based: 4 application groups of 64 symbolic cores each.
        let big_groups: Vec<Vec<CoreId>> = (0..4)
            .map(|g| mapping.map_range(g * 64..(g + 1) * 64))
            .collect();
        let t_group = model.multi_allgather(&big_groups, per_core * 64.0);
        // Orthogonal: 64 sets of the same-position cores of the 4 groups.
        let ortho_sets: Vec<Vec<CoreId>> = (0..64)
            .map(|j| (0..4).map(|g| big_groups[g][j]).collect())
            .collect();
        let t_ortho = model.multi_allgather(&ortho_sets, per_core * 4.0);
        rows.push((s.name(), vec![1e3 * t_group, 1e3 * t_ortho]));
    }
    table::print(
        "Fig 14 (right): Multi-Allgather on 256 CHiC cores, 64 KiB per core, time [ms]",
        &["4 grp x 64".into(), "64 grp x 4".into()],
        &rows,
    );
}
