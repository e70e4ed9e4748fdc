//! Generates EXPERIMENTS.md from the archived `results/*.json`: for every
//! table and figure, the paper's reported numbers next to ours.

use std::fmt::Write as _;
use std::path::Path;

fn load<T: noc_json::FromJson>(name: &str) -> Option<T> {
    let path = Path::new("results").join(format!("{name}.json"));
    noc_json::from_str(&std::fs::read_to_string(path).ok()?).ok()
}

fn section(out: &mut String, title: &str) {
    let _ = writeln!(out, "\n## {title}\n");
}

fn missing(out: &mut String, name: &str) {
    let _ = writeln!(
        out,
        "*Not yet measured — run `cargo run --release -p noc-experiments --bin {name}`.*"
    );
}

/// Builds the full EXPERIMENTS.md text.
pub fn generate() -> String {
    let mut out = String::from(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Every entry below is regenerated by a binary in `crates/experiments`\n\
         (machine-readable copies live in `results/*.json`; `--bin plots` renders\n\
         SVG figures; this file itself is written by `--bin experiments_md`).\n\
         Absolute cycle counts come from our simulator substrate, not the\n\
         authors' gem5 testbed, so the comparison targets *shape*: who wins,\n\
         by roughly what factor, and where crossovers fall. Known deviations\n\
         are called out inline.\n",
    );

    // ---- Fig. 5 ----
    section(
        &mut out,
        "Figure 5 — average packet latency vs link limit C",
    );
    if let Some(results) = load::<Vec<crate::fig5::SizeResult>>("fig5") {
        let _ = writeln!(
            out,
            "| size | Mesh | HFB | best D&C_SA | reduction vs Mesh (paper) | vs HFB (paper) |\n|---|---|---|---|---|---|"
        );
        let paper_mesh = [
            ("4x4", "8.1%", "~0%"),
            ("8x8", "23.5%", "8.0%"),
            ("16x16", "36.4%", "20.1%"),
        ];
        for r in &results {
            let paper = paper_mesh
                .iter()
                .find(|p| p.0 == format!("{0}x{0}", r.n))
                .copied()
                .unwrap_or(("", "?", "?"));
            let _ = writeln!(
                out,
                "| {0}x{0} | {1:.1} | {2:.1} (C={3}) | {4:.1} | {5:.1}% ({6}) | {7:.1}% ({8}) |",
                r.n,
                r.mesh,
                r.hfb,
                r.hfb_c,
                r.best_dnc_sa,
                r.reduction_vs_mesh * 100.0,
                paper.1,
                r.reduction_vs_hfb * 100.0,
                paper.2
            );
        }
        let _ = writeln!(
            out,
            "\n**Notes.** 16x16 D&C_SA reduction vs Mesh lands within 0.2pp of the paper.\nThe 16x16 HFB cell is measured *saturated*: at C = 16 its quadrant seams are\nsingle 16-bit links, and our canneal/x264-class loads exceed their capacity,\nso simulated latency diverges — consistent with the paper's own Fig. 8(b)\nshowing HFB's throughput collapse, but the paper's Fig. 5(c) point was taken\nbelow that knee. Off-optimum design points whose analytic latency exceeds\n1.6x the best C (and any C > 16) report analytic rather than simulated\nlatency — they sit beyond saturation and decide nothing.\n\nPer-C curves (cycles); the U-shape — head latency falling, serialization\nrising — matches the paper's Fig. 5 panels:\n"
        );
        for r in &results {
            let _ = writeln!(out, "**{0}x{0}:**\n", r.n);
            let _ = writeln!(
                out,
                "| C | b (bits) | D&C_SA | OnlySA | L_D | L_S |\n|---|---|---|---|---|---|"
            );
            for p in &r.points {
                let _ = writeln!(
                    out,
                    "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} |",
                    p.c_limit, p.flit_bits, p.dnc_sa, p.only_sa, p.head, p.serialization
                );
            }
            let _ = writeln!(out);
        }
    } else {
        missing(&mut out, "fig5");
    }

    // ---- Fig. 6 ----
    section(&mut out, "Figure 6 — per-PARSEC-benchmark latency, 8x8");
    if let Some(rows) = load::<Vec<crate::fig6::BenchmarkRow>>("fig6") {
        let _ = writeln!(
            out,
            "| benchmark | Mesh | HFB | D&C_SA | vs Mesh | vs HFB |\n|---|---|---|---|---|---|"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "| {} | {:.1} | {:.1} | {:.1} | {:.1}% | {:.1}% |",
                r.benchmark,
                r.mesh,
                r.hfb,
                r.dnc_sa,
                (1.0 - r.dnc_sa / r.mesh) * 100.0,
                (1.0 - r.dnc_sa / r.hfb) * 100.0
            );
        }
        let _ = writeln!(
            out,
            "\nPaper: consistent reductions across benchmarks, 23.5% vs Mesh / 8.0% vs\nHFB on average. (PARSEC traffic is our calibrated synthetic substitution —\nDESIGN.md §2.)"
        );
    } else {
        missing(&mut out, "fig6");
    }

    // ---- Fig. 7 ----
    section(
        &mut out,
        "Figure 7 — placement quality vs normalized runtime",
    );
    if let Some(results) = load::<Vec<crate::fig7::RuntimeResult>>("fig7") {
        for r in &results {
            let first = r.points.first();
            let mid = r.points.iter().find(|p| p.normalized_runtime >= 10.0);
            let last = r.points.last();
            if let (Some(f), Some(m), Some(l)) = (first, mid, last) {
                let _ = writeln!(
                    out,
                    "- {0}x{0} (unit = I({0},4) = {1} evals): D&C_SA {2:.1} → {3:.1} → {4:.1} cycles at 1/10/10⁴ units; OnlySA {5:.1} → {6:.1} → {7:.1}.",
                    r.n, r.unit_evaluations, f.dnc_sa, m.dnc_sa, l.dnc_sa, f.only_sa, m.only_sa, l.only_sa
                );
            }
        }
        let _ = writeln!(
            out,
            "\n**Deviation:** in the paper OnlySA never catches D&C_SA even at 10⁴\nunits (7.4%/9.4% gaps); our SA implementation converges for both schemes,\nso the D&C advantage shows as *earlier* convergence (the 1–50-unit range)\nrather than a persistent gap. Our connection-matrix generator appears\nstronger than what the paper's OnlySA used."
        );
    } else {
        missing(&mut out, "fig7");
    }

    // ---- Fig. 8 ----
    section(
        &mut out,
        "Figure 8 — synthetic traffic latency and throughput, 8x8",
    );
    if let Some(rows) = load::<Vec<crate::fig8::PatternRow>>("fig8") {
        let _ = writeln!(out, "| pattern | Mesh lat | HFB lat | D&C_SA lat | Mesh thr | HFB thr | D&C_SA thr |\n|---|---|---|---|---|---|---|");
        for r in &rows {
            let _ = writeln!(
                out,
                "| {} | {:.1} | {:.1} | {:.1} | {:.3} | {:.3} | {:.3} |",
                r.pattern,
                r.latency[0],
                r.latency[1],
                r.latency[2],
                r.throughput[0],
                r.throughput[1],
                r.throughput[2]
            );
        }
        if let Some(avg) = rows.last() {
            let _ = writeln!(
                out,
                "\nPaper: 24.4% / 16.9% latency reduction vs Mesh / HFB; Mesh throughput\nhighest, HFB < half of Mesh, D&C_SA ≈ 63.7% above HFB and > ¾ of Mesh.\nOurs: {:.1}% / {:.1}% latency; D&C_SA/HFB = {:.2}x, D&C_SA/Mesh = {:.2}x —\nsame ordering and same crossover story.",
                (1.0 - avg.latency[2] / avg.latency[0]) * 100.0,
                (1.0 - avg.latency[2] / avg.latency[1]) * 100.0,
                avg.throughput[2] / avg.throughput[1],
                avg.throughput[2] / avg.throughput[0]
            );
        }
    } else {
        missing(&mut out, "fig8");
    }

    // ---- Fig. 9 / 10 ----
    section(&mut out, "Figures 9 & 10 — router power, 8x8");
    if let Some(rows) = load::<Vec<crate::fig9::PowerRow>>("fig9") {
        if let Some(avg) = rows.last() {
            let mesh_total = avg.static_w[0] + avg.dynamic_w[0];
            let hfb_total = avg.static_w[1] + avg.dynamic_w[1];
            let dnc_total = avg.static_w[2] + avg.dynamic_w[2];
            let _ = writeln!(
                out,
                "- Total power: D&C_SA −{:.1}% vs Mesh (paper −10.4%), {}{:.1}% vs HFB (paper −0.6%).",
                (1.0 - dnc_total / mesh_total) * 100.0,
                if dnc_total <= hfb_total { "−" } else { "+" },
                ((dnc_total / hfb_total) - 1.0).abs() * 100.0
            );
            let _ = writeln!(
                out,
                "- Dynamic power: D&C_SA −{:.1}% vs Mesh (paper −15.1%; ours saves more because\n  our per-event model charges pure `bits × distance` energy while DSENT adds\n  width-independent control overheads), −{:.1}% vs HFB (paper −6.6%).",
                (1.0 - avg.dynamic_w[2] / avg.dynamic_w[0]) * 100.0,
                (1.0 - avg.dynamic_w[2] / avg.dynamic_w[1]) * 100.0
            );
            let _ = writeln!(
                out,
                "- Static share of Mesh total: {:.0}% (paper: about two-thirds).",
                avg.static_w[0] / mesh_total * 100.0
            );
        }
    } else {
        missing(&mut out, "fig9");
    }
    if let Some(rows) = load::<Vec<crate::fig9::StaticBreakdown>>("fig10") {
        let _ = writeln!(
            out,
            "\n| scheme | buffer (W) | crossbar (W) | others (W) |\n|---|---|---|---|"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "| {} | {:.2} | {:.2} | {:.2} |",
                r.scheme, r.buffer, r.crossbar, r.others
            );
        }
        let _ = writeln!(
            out,
            "\nAs in the paper's Fig. 10: buffer leakage equalised by construction;\ncrossbar leakage does *not* grow with express links (`b·k²` — width shrinks\nfaster than ports grow)."
        );
    }

    // ---- Fig. 11 ----
    section(&mut out, "Figure 11 — bisection-bandwidth impact, 8x8");
    if let Some(results) = load::<Vec<crate::fig11::BandwidthResult>>("fig11") {
        for r in &results {
            let _ = writeln!(
                out,
                "- {} Gb/s (base flit {} bits): Mesh {:.1}, HFB {:.1}, best D&C_SA {:.1} cycles.",
                r.bisection_gbps, r.base_flit_bits, r.mesh, r.hfb, r.best
            );
        }
        if results.len() == 2 {
            let _ = writeln!(
                out,
                "\n4x more bandwidth buys the mesh only {:.1}% (paper 2.3%: serialization\nonly), but buys the express-link design {:.1}% (paper 17.8%: narrower links\n*and* more of them) — the paper's headline claim reproduced.",
                (1.0 - results[1].mesh / results[0].mesh) * 100.0,
                (1.0 - results[1].best / results[0].best) * 100.0
            );
        }
    } else {
        missing(&mut out, "fig11");
    }

    // ---- Fig. 12 ----
    section(&mut out, "Figure 12 — comparison to the exhaustive optimum");
    if let Some(rows) = load::<Vec<crate::fig12::OptRow>>("fig12") {
        let _ = writeln!(
            out,
            "| instance | D&C_SA | optimal | gap (paper) | runtime ratio |\n|---|---|---|---|---|"
        );
        let paper_gap = [
            ("P(4,2)", "0%"),
            ("P(8,2)", "0%"),
            ("P(8,3)", "0%"),
            ("P(8,4)", "+1.3%"),
            ("P(16,2)", "+0.28%"),
        ];
        for r in &rows {
            let pg = paper_gap
                .iter()
                .find(|p| p.0 == r.instance)
                .map(|p| p.1)
                .unwrap_or("?");
            let _ = writeln!(
                out,
                "| {} | {:.2} | {:.2} | {:.2}% ({}) | {:.1}x |",
                r.instance,
                r.dnc_sa,
                r.optimal,
                r.gap * 100.0,
                pg,
                r.time_ratio
            );
        }
        let _ = writeln!(
            out,
            "\n**Deviation (in our favour):** D&C_SA matches the optimum on *all five*\ninstances (the paper had +1.3%/+0.28% residues on two). Our exhaustive\nsearch also prunes harder than the paper's (it enumerates only maximal\nfeasible link sets), so the runtime ratios are far below the paper's\n30x/1000x — their exhaustive baseline was more naive."
        );
    } else {
        missing(&mut out, "fig12");
    }

    // ---- Table 2 ----
    section(&mut out, "Table 2 — maximum zero-load packet latency");
    if let Some(rows) = load::<Vec<crate::table2::WorstCaseRow>>("table2") {
        let _ = writeln!(
            out,
            "| topology | 4x4 (paper) | 8x8 (paper) | 16x16 (paper) |\n|---|---|---|---|"
        );
        let cell = |v: Option<f64>, p: &str| match v {
            Some(v) => format!("{v:.1} ({p})"),
            None => format!("— ({p})"),
        };
        let get = |n: usize, f: &dyn Fn(&crate::table2::WorstCaseRow) -> f64| {
            rows.iter().find(|r| r.n == n).map(f)
        };
        let _ = writeln!(
            out,
            "| Mesh | {} | {} | {} |",
            cell(get(4, &|r| r.mesh), "28.2"),
            cell(get(8, &|r| r.mesh), "60.2"),
            cell(get(16, &|r| r.mesh), "71.2")
        );
        let _ = writeln!(
            out,
            "| HFB | {} | {} | {} |",
            cell(get(4, &|r| r.hfb), "15.2"),
            cell(get(8, &|r| r.hfb), "38.2"),
            cell(get(16, &|r| r.hfb), "63.8")
        );
        let _ = writeln!(
            out,
            "| D&C_SA | {} | {} | {} |",
            cell(get(4, &|r| r.dnc_sa), "13.6"),
            cell(get(8, &|r| r.dnc_sa), "33.2"),
            cell(get(16, &|r| r.dnc_sa), "55.2")
        );
        let _ = writeln!(
            out,
            "\nMesh values for 4x4/8x8 reproduce the paper *exactly* (28.2 / 60.2) —\nthis pinned our latency convention (H+1 router pipelines + Manhattan links\n+ mix serialization). **Deviation:** the paper's 16x16 mesh value (71.2) is\ninconsistent with its own model (a 16x16 mesh worst case must be ≈ 2x the\n8x8's 60.2; ours says 124.2) — we suspect a concentrated/clocking difference\nin their 16x16 setup. HFB agrees at 8x8 (38.2 exactly); D&C_SA optimizes\n*average* latency, so its worst case lands near HFB's rather than below it."
        );
    } else {
        missing(&mut out, "table2");
    }

    // ---- overhead ----
    section(&mut out, "§4.5.2 — routing-table area overhead");
    if let Some(area) = load::<noc_power::AreaBreakdown>("overhead") {
        let _ = writeln!(
            out,
            "Routing tables cost {:.3}% of router area (paper: < 0.5%).",
            area.table_overhead() * 100.0
        );
    } else {
        missing(&mut out, "table_overhead");
    }

    // ---- sec 5.6.4 ----
    section(&mut out, "§5.6.4 — application-specific placement");
    if let Some(rows) = load::<Vec<crate::sec564::AppSpecificRow>>("sec564") {
        if let Some(avg) = rows.last() {
            let _ = writeln!(
                out,
                "- On our PARSEC-like profiles: {:.1}% extra reduction on average (paper: 18.1%).",
                avg.extra_reduction * 100.0
            );
        }
    }
    if let Some(points) = load::<Vec<crate::sec564::ConcentrationPoint>>("sec564_concentration") {
        let line: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "{:.0}%→{:.1}%",
                    p.concentration * 100.0,
                    p.extra_reduction * 100.0
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "- Gain vs traffic concentration (sharing-graph share → extra reduction): {}.",
            line.join(", ")
        );
    }
    if let Some(rows) = load::<Vec<crate::sec564::ActiveSubsetRow>>("sec564_active_subset") {
        let line: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{} active → {:.1}% (C={})",
                    r.active_nodes,
                    r.extra_reduction * 100.0,
                    r.best_c
                )
            })
            .collect();
        let _ = writeln!(out, "- Sparse-active traffic: {}.", line.join(", "));
    }
    let _ = writeln!(
        out,
        "\n**Deviation + diagnosis:** the paper reports 18.1% extra reduction from\ntraffic knowledge on real PARSEC traffic. Our mixture profiles are less\nconcentrated than real coherence traffic, capping the gain at a few percent;\nthe concentration and sparse-active sweeps show the gain rising with\nconcentration and *reaching the paper's range (14–24%)* once traffic lives\non a sparse active subset — the regime real multi-threaded phases occupy."
    );

    // ---- ablations ----
    section(
        &mut out,
        "Ablations (design choices called out in DESIGN.md)",
    );
    if let Some(rows) = load::<Vec<crate::ablation::GeneratorRow>>("ablation_generator") {
        let _ = writeln!(
            out,
            "**A. Candidate generator (validates §4.4.2's motivation):**\n"
        );
        let _ = writeln!(
            out,
            "| instance | conn-matrix | naive | naive invalid moves |\n|---|---|---|---|"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "| {} | {:.2} | {:.2} | {:.1}% |",
                r.instance,
                r.matrix_obj,
                r.naive_obj,
                r.naive_invalid_rate * 100.0
            );
        }
    }
    if let Some(rows) = load::<Vec<crate::ablation::InitialRow>>("ablation_initial") {
        let _ = writeln!(
            out,
            "\n**B. Initial solution on P(16,8) (short SA budget):**\n"
        );
        let _ = writeln!(
            out,
            "| strategy | initial obj | build evals | after short SA |\n|---|---|---|---|"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "| {} | {:.2} | {} | {:.2} |",
                r.strategy, r.initial_obj, r.initial_cost, r.final_obj
            );
        }
        let _ = writeln!(
            out,
            "\nGreedy insertion builds strong placements but costs ~15x more evaluations\nthan I(n,C); D&C+SA matches it at full budget — the paper's choice holds up."
        );
    }
    if let Some(rows) = load::<Vec<crate::ablation::ScheduleRow>>("ablation_schedule") {
        let _ = writeln!(out, "\n**C. Schedule sensitivity on P(16,8):**\n");
        let _ = writeln!(out, "| setting | mean best objective |\n|---|---|");
        for r in &rows {
            let _ = writeln!(out, "| {} | {:.2} |", r.setting, r.objective);
        }
        let _ = writeln!(
            out,
            "\nTable 1's schedule is robust: nearby settings land within noise."
        );
    }

    // ---- incremental evaluation bench (static: measured once via
    // `cargo bench -p noc-bench --bench incremental`, not results/*.json) ----
    section(&mut out, "SA move cost — incremental vs full evaluation");
    let _ = writeln!(
        out,
        "Under the Table 1 schedule every SA move flips one connection-matrix\n\
         bit; `placement::incremental` scores the candidate from hop counts,\n\
         `d(i,j) = T_r·H(i,j) + T_l·(j−i)`, instead of decoding and re-evaluating\n\
         from scratch. It keeps one `u64` mask of outgoing links per router and a\n\
         hop sum per source, and searches again only from the sources the flip\n\
         can change (DESIGN.md §9). Both paths are bit-identical\n\
         (property-tested), so the speedup is free. Measured per candidate move\n\
         (one flip + its undo, the same bit again, averaged). Regenerate with\n\
         `cargo bench -p noc-bench --bench incremental` (these numbers: medians\n\
         of three runs on a 2-vCPU Intel Xeon VM):\n"
    );
    let _ = writeln!(
        out,
        "| instance | full eval / move | incremental / move | speedup |\n\
         |---|---|---|---|\n\
         | P(8,4) | 1.67 µs | 83 ns | 20.1x |\n\
         | P(16,4) | 4.55 µs | 265 ns | 17.2x |\n\
         | P(16,8) | 6.80 µs | 210 ns | 32.4x |\n\
         | P(32,8) | 17.39 µs | 820 ns | 21.2x |\n\
         | P(64,8) | 47.71 µs | 3.22 µs | 14.8x |"
    );
    let _ = writeln!(
        out,
        "\nThe full path pays matrix decoding + allocation + the complete\n\
         `O(n^2·e)` DP per candidate. The incremental path searches from at most\n\
         the sources `i <= r`, each in `O(n)` word operations, on the flip and\n\
         again on the undo. Rows longer than 64 routers do not fit the masks and\n\
         evaluate in full. On the same host the evaluator it replaced, which\n\
         re-ran the DP over the rectangle `i <= r`, `j >= r`, took 178 ns,\n\
         590 ns, 997 ns, 3.22 µs and 9.97 µs per move on these instances.\n\
         Multi-chain best-of-K (`SaParams::with_chains`) spends the savings on\n\
         more chains at unchanged wall-clock."
    );

    // ---- simulator hot-path bench (static: measured once via
    // `cargo bench -p noc-bench --bench simulator`, which also refreshes
    // the machine-readable BENCH_sim.json at the repo root) ----
    section(
        &mut out,
        "Simulator hot path — SoA engine and parallel sweeps",
    );
    let _ = writeln!(
        out,
        "Every figure funnels through the cycle-level engine, so its speed\n\
         bounds the whole evaluation. The engine stores network state in flat\n\
         struct-of-arrays buffers, schedules link arrivals and credit returns\n\
         on a fixed-size event wheel (`cycle % horizon`), and arbitrates VA/SA\n\
         via `u128` request masks — bit-identical to the straightforward\n\
         implementation (golden `SimStats` fingerprints in\n\
         `crates/sim/tests/golden.rs`). Simulated cycles/second, uniform\n\
         random at 2000-cycle windows (regenerate with\n\
         `cargo bench -p noc-bench --bench simulator`; machine-readable copy\n\
         in `BENCH_sim.json`):\n"
    );
    let _ = writeln!(
        out,
        "| point | before (cps) | after (cps) | speedup |\n\
         |---|---|---|---|\n\
         | mesh 8x8, 2% load | 21.8k | 240k | 11.0x |\n\
         | HFB 8x8, 2% load | 8.7k | 164k | 18.9x |\n\
         | express 8x8, 2% load | 10.5k | 159k | 15.1x |\n\
         | mesh 16x16, 2% load | 4.3k | 38k | 8.8x |\n\
         | mesh 8x8, saturation (30%) | 10.3k | 32k | 3.1x |"
    );
    let _ = writeln!(
        out,
        "\nA full 8x8 saturation sweep takes about 0.36 s sequentially (best of\n\
         6; 0.45 s with the full scan, 2.66 s before the SoA rewrite). `SweepRunner`\n\
         fans sweep points across `noc-par` workers with results bit-identical for\n\
         any worker count (tested across 1/2/8 workers against the sequential\n\
         reference). It walks the rate ladder in waves of `workers` points, each a\n\
         one-lane simulation on its own thread, and applies the stopping rule after\n\
         each wave: one worker simulates exactly the points the sequential walk\n\
         does, and `W` workers at most `W − 1` more, which they discard. Waves used\n\
         to be `workers × 8` lockstep lanes wide, so a sweep also simulated up to\n\
         `8W − 1` points past the first saturated one, the costliest of the ladder,\n\
         and the record put the runner at 0.58–0.72x the sequential walk at 1–8\n\
         workers. `BENCH_sim.json` times the sequential walk and the 1-, 2-, 4- and\n\
         8-worker rows as one interleaved set (`noc_bench::best_interleaved`, the\n\
         batch bench's protocol): 5 rounds, each running every row once in an order\n\
         rotated per round, and each row keeps its fastest sweep. Timed one after\n\
         another, the one-worker row, the same code as the sequential walk, read\n\
         0.89–1.38x of it over six runs on a 2-vCPU VM. The interleaved record\n\
         (2-vCPU shared VM) reads 0.48 s sequentially, 1.10x at one worker, 1.44x at\n\
         two and 1.61x at four; eight workers oversubscribe the two vCPUs (0.85x).\n\
         The one-worker row is still 10% off 1.00x, the noise left in a best of 5 on\n\
         a shared host. CI requires the one-worker row to stay at 0.9x or above."
    );

    // ---- tracing overhead bench (static: measured once via
    // `cargo bench -p noc-bench --bench trace_overhead`, which also
    // refreshes the machine-readable BENCH_trace.json at the repo root) ----
    section(&mut out, "Tracing overhead — noc-trace off vs on");
    let _ = writeln!(
        out,
        "The annealer, simulator, and daemon are instrumented with `noc-trace`\n\
         (convergence series, per-link utilization, request spans). With the\n\
         sink uninstalled every guard is one relaxed atomic load, so the \"off\"\n\
         column is the production fast path; the committed simulator bench and\n\
         golden fingerprints are recorded in that state and must stay within\n\
         noise. Measured on the two hot loops (regenerate with\n\
         `cargo bench -p noc-bench --bench trace_overhead`; machine-readable\n\
         copy in `BENCH_trace.json`):\n"
    );
    let _ = writeln!(
        out,
        "| point | tracing off | tracing on | on/off |\n\
         |---|---|---|---|\n\
         | anneal, P(8,4), 20k moves | 5.25 ms | 6.83 ms | 1.30x |\n\
         | sim, mesh 8x8, 2000 cycles | 16.9 ms | 16.8 ms | 0.99x |"
    );
    let _ = writeln!(
        out,
        "\nEnabled-mode cost is dominated by the per-move `Instant::now` pair\n\
         feeding the `sa.move.*` latency histograms — an acceptable price for a\n\
         diagnostic run, and exactly zero when the sink is off. The simulator's\n\
         enabled cost is below measurement noise: its counters are plain array\n\
         increments on paths that already touch the same cache lines, and\n\
         occupancy is sampled only every 64 cycles."
    );

    // ---- service cache-hit path (static: measured once with servicebench,
    // `--workload W --seed S --trace 0|1`, parent and change alternating) ----
    section(
        &mut out,
        "Service cache-hit path — one shared, already-rendered payload",
    );
    let _ = writeln!(
        out,
        "A result-cache hit used to copy its payload and render it again:\n\
         `ShardedLru::get` checked the entry's structural digest and then\n\
         deep-cloned the cached `Value`, and `Response::to_line`/`wire_lines`\n\
         rendered that copy to JSON. Now a cached result is the `Payload` its\n\
         miss answered with: an `Arc` of the `Value` and its wire text (the\n\
         result JSON, or each streamed item's and the summary's), rendered once\n\
         in `ServiceCore::complete`. A hit hands out a reference-counted clone,\n\
         and the framing writes only the envelope (`id`, `cached`, `seq`/`of`)\n\
         around the stored text. Every get still checks everything it hands\n\
         out: the `Value`'s structural digest and a digest of the stored text,\n\
         both hashed a 64-bit word at a time. Checkpoint snapshots are cached\n\
         as raw bytes instead of hex strings. Wire bytes are unchanged: the\n\
         benchmark's seed-1 golden digests and its hit byte-identity check pass.\n\
         \n\
         Per-layer means on the `replay` workload (a ring of hot-set cache hits\n\
         plus inline kinds), from\n\
         `cargo run --release --manifest-path servicebench/Cargo.toml -- --workload replay --trace 1`\n\
         (seed 1, 25 s, 2-vCPU shared Intel Xeon VM). Two traced pairs, the\n\
         first with the parent run first and the second with the change run\n\
         first:\n"
    );
    let _ = writeln!(
        out,
        "| layer (µs, mean per request) | parent A | change A | parent B | change B |\n\
         |---|---|---|---|---|\n\
         | `service.parse_us` | 1.25 | 1.03 | 1.32 | 1.05 |\n\
         | `service.cache_get_us` | 2.31 | 1.46 | 2.39 | 1.47 |\n\
         | `service.serialize_us` | 2.50 | 0.54 | 2.60 | 0.55 |"
    );
    let _ = writeln!(
        out,
        "\n`cache_get` falls by 37–38%: a reference-count bump replaces the deep\n\
         clone, while the structural walk and the text check remain.\n\
         `serialize` falls by 78–79%: the line copies the stored text instead\n\
         of rendering the payload. `parse` runs unchanged code; why it also\n\
         reads 17–21% lower is not verified. `service.response_bytes` (774) and the\n\
         kernel counts (`placement.accept_ratio` 0.668593, `sim.drain_share`\n\
         0.003795, `sweep.rate_points` 14) are unchanged.\n\
         \n\
         End to end, with tracing off, over 10 interleaved 25 s pairs on seed 1\n\
         (alternating which side ran first). Values are median [q1, q3]:\n"
    );
    let _ = writeln!(
        out,
        "| replay | parent | change | change wins |\n\
         |---|---|---|---|\n\
         | req/s | 99.9k [94.1k, 102.7k] | 186.2k [180.9k, 203.8k] | 10/10 |\n\
         | p50 | 7.0 µs [6.6, 7.4] | 4.2 µs [3.8, 4.3] | 10/10 |\n\
         | p90 | 17.1 µs [16.3, 18.5] | 7.5 µs [7.1, 7.9] | 10/10 |\n\
         | setup | 0.253 s [0.232, 0.269] | 0.240 s [0.224, 0.255] | 5/10 |\n\
         | peak RSS | 24.47 MiB [24.35, 24.49] | 23.14 MiB [23.13, 23.16] | 10/10 |"
    );
    let _ = writeln!(
        out,
        "\nThat is 1.86x throughput, a gain ten times the parent's quartile spread\n\
         (8.6k req/s), and p50 and p90 fall by 40% and 56%. On seed 5, which was\n\
         not used while writing the change, 4 pairs agree: 99.6k → 209.4k req/s\n\
         (2.10x, 4/4), p50 7.1 → 3.8 µs, p90 16.7 → 6.8 µs. At these rates the\n\
         change's runs reach `replay`'s cap of 3,000,000 requests after about\n\
         16 s and end early; req/s counts the requests a run completed.\n\
         \n\
         The workloads that execute work on every request still render each\n\
         result once, now in `complete` instead of in `serialize`. Over 10 pairs\n\
         each on seed 1 (20 for `simulate`, whose first 10 read −7% req/s and\n\
         whose second 10 +0.3%), the medians of req/s, p50 and p90 moved by at\n\
         most 1.4%. `setup_s` fell on `place` (−11.5%, inside its 22% quartile\n\
         spread) and `batch` (−5%, 10/10) and moved −0.9% on `simulate`. Peak\n\
         RSS rises where many results are cached, since an entry now holds its\n\
         text beside its value: `simulate` 6.66 → 7.02 MiB (+5.5%), `batch`\n\
         66.5 → 68.4 MiB (+2.9%), `place` flat. Traced (3 pairs each),\n\
         `serialize` falls by 3.2–3.6 µs per request on `place`, 2.3–3.2 µs on\n\
         `simulate` and 14.5–16.6 µs on `batch`. `complete` rises by 1.2–2.5 µs\n\
         on `place`, by −1.1 to +5.2 µs on `simulate` and by 3–21 µs on `batch`.\n\
         On `place` and `simulate` that is less than `serialize` falls:\n\
         `complete` no longer clones the value for the cache or walks it byte\n\
         by byte. Every run passed its correctness checks."
    );
    let _ = writeln!(
        out,
        "\n\
         **Inline answers, written once.** `metrics` built a `Value` tree that\n\
         `wire_lines` then rendered. `prometheus` built its body with `writeln!`\n\
         into a `String`, and rendering escaped that body in a second pass.\n\
         `health` and `shutdown` built small `Value`s. Now each is written once,\n\
         straight into its compact JSON, through the scalar writers\n\
         `Value::write_compact` uses (`write_int` prints digits without `fmt`),\n\
         the prometheus body already escaped. Its `Value` is parsed only if a\n\
         caller reads it; only `trace` still builds one. Wire bytes are\n\
         unchanged: crates/service/tests/inline_answers.rs pins them, and the\n\
         golden digests pass. Per kind, `handle_line` + `wire_lines` over the\n\
         `replay` ring (seed 1, 30 passes of its 3,840 lines with no checks\n\
         between requests, p50 of two runs each; allocations plus reallocations\n\
         per call from crates/service/tests/alloc_budget.rs):"
    );
    let _ = writeln!(
        out,
        "\n\
         | kind | p50 before | p50 after | allocations before | after |\n\
         |---|---|---|---|---|\n\
         | `health` | 1.24–1.28 µs | 0.80–0.82 µs | 22 | 11 |\n\
         | `metrics` | 6.00–6.30 µs | 2.64–2.70 µs | 92 | 11 |\n\
         | `prometheus` | 8.33–8.68 µs | 2.52–2.53 µs | 32 | 11 |\n\
         | `solve` hit | 2.11–2.22 µs | 2.12–2.17 µs | 21 | 21 |\n\
         | `simulate` hit | 2.75–2.90 µs | 2.77–2.81 µs | 25 | 25 |\n\
         | `sweep` hit | 2.77–2.85 µs | 2.87–2.88 µs | 13 | 13 |\n\
         | `frontier` hit | 4.10–4.25 µs | 4.19–4.23 µs | 26 | 26 |"
    );
    let _ = writeln!(
        out,
        "\n\
         `metrics` and `prometheus` were the two slowest kinds, the slowest 10%\n\
         of `replay`'s samples, so its p90 fell in the gap between the frontier\n\
         hits and `metrics`. Now both sit among the hits, and p90 falls among\n\
         the frontier hits. End to end, with tracing off, over 10 interleaved\n\
         25 s pairs on seed 1 (alternating which side ran first). Values are\n\
         median [q1, q3]:"
    );
    let _ = writeln!(
        out,
        "\n\
         | replay | parent | change | change wins |\n\
         |---|---|---|---|\n\
         | p90 | 6.06 µs [5.52, 6.22] | 4.35 µs [4.19, 4.67] | 10/10 |\n\
         | p50 | 3.22 µs [2.88, 3.47] | 2.80 µs [2.74, 3.00] | 9/10 |\n\
         | req/s | 237.8k [222.1k, 258.0k] | 258.2k [239.7k, 264.6k] | 8/10 |\n\
         | setup | 0.209 s [0.196, 0.251] | 0.200 s [0.192, 0.205] | 6/10 |\n\
         | peak RSS | 23.10 MiB [23.06, 23.12] | 23.13 MiB [23.10, 23.16] | 4/10 |"
    );
    let _ = writeln!(
        out,
        "\n\
         p90 falls by 28%, 2.4 times the parent's quartile spread (0.70 µs). On\n\
         seed 5, which was not used while writing the change, 4 pairs agree: p90\n\
         6.94 → 5.82 µs (4/4), p50 3.99 → 3.82 µs (3/4), req/s 195.0k → 193.9k\n\
         (3/4). Both sides reach `replay`'s cap of 3,000,000 requests before\n\
         25 s. The benchmark's checks, untimed but inside req/s's wall time, now\n\
         parse each inline answer, since they read `degraded` from every\n\
         response. Traced (2 pairs), `service.inline_us` + `service.serialize_us`\n\
         fall from 2.35–2.65 to 1.79–1.87 µs per request, `serialize` alone from\n\
         0.58–0.62 to 0.21–0.22 µs, and `service.response_bytes` (774.1) and the\n\
         kernel counts are unchanged."
    );
    let _ = writeln!(
        out,
        "\n\
         `place`, `simulate` and `batch` time no inline request. Below are their\n\
         change/parent medians on seed 1, with the pairs the change won in\n\
         parentheses. A metric is unresolved where either side's quartile\n\
         spread exceeds its 0.25 bound; `replay`'s setup above is unresolved\n\
         too (26%)."
    );
    let _ = writeln!(
        out,
        "\n\
         | workload (pairs) | setup | req/s | p50 | p90 | peak RSS |\n\
         |---|---|---|---|---|---|\n\
         | `place` (8) | 0.940 (3), unresolved | 1.006 (2), unresolved | 1.042 (2) | 0.923 (4), unresolved | 0.994 (5) |\n\
         | `simulate` (4) | 1.048 (1), unresolved | 0.986 (2) | 1.004 (2) | 1.045 (2) | 1.000 (2) |\n\
         | `batch` (12) | 1.066 (4), unresolved | 0.928 (5) | 1.046 (6) | 1.052 (6) | 0.997 (7) |"
    );
    let _ = writeln!(
        out,
        "\n\
         None of their medians moved by more than 7.2%. One block of 4 `batch`\n\
         pairs read its setup 1.38x, yet timed directly, three alternating runs\n\
         of its five setups read 0.635–0.661 s on the parent and 0.629–0.658 s\n\
         on the change: the host's speed drifted by up to 40% within minutes.\n\
         Every run passed its correctness checks."
    );

    // ---- fault ----
    section(&mut out, "Extension — single express-link failure");
    if let Some(rows) = load::<Vec<crate::fault::FaultRow>>("fault") {
        let _ = writeln!(out, "| scheme | links/row | mean degradation | worst | deadlock-free |\n|---|---|---|---|---|");
        for r in &rows {
            let _ = writeln!(
                out,
                "| {} | {} | {:.1}% | {:.1}% | {} |",
                r.scheme,
                r.express_links,
                r.mean_degradation * 100.0,
                r.worst_degradation * 100.0,
                if r.all_deadlock_free { "yes" } else { "NO" }
            );
        }
        let _ = writeln!(
            out,
            "\nAggregated over every interior row (failures in row `y` only affect\nX-phase paths routed in row `y`, so on row-replicated placements each row\ndegrades identically — `results/fault_rows.json` holds the per-row\nbreakdown). Local links keep every placement routable; recomputed tables\nstay deadlock-free; single failures cost well under 1% average latency."
        );
    } else {
        missing(&mut out, "fault");
    }

    out
}

/// Writes EXPERIMENTS.md at the repository root.
pub fn run() {
    let text = generate();
    match std::fs::write("EXPERIMENTS.md", &text) {
        Ok(()) => println!("wrote EXPERIMENTS.md ({} bytes)", text.len()),
        Err(e) => eprintln!("cannot write EXPERIMENTS.md: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_a_complete_document_even_without_results() {
        // Test cwd is the crate dir, where results/ does not exist: every
        // section must still render, with pointers to the missing binaries.
        let text = generate();
        for heading in [
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Figures 9 & 10",
            "Figure 11",
            "Figure 12",
            "Table 2",
            "routing-table area overhead",
            "application-specific placement",
            "Ablations",
            "Simulator hot path",
            "Tracing overhead",
            "single express-link failure",
        ] {
            assert!(text.contains(heading), "missing section {heading:?}");
        }
        assert!(text.contains("Not yet measured") || text.contains("| Mesh |"));
    }

    #[test]
    fn static_sections_match_the_committed_document() {
        // The sections that render without results/ must stand in the
        // committed EXPERIMENTS.md exactly as generated, so regenerating
        // the file cannot drop or rewrite them.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
        let committed = std::fs::read_to_string(path).expect("committed EXPERIMENTS.md");
        let text = generate();
        for title in ["SA move cost", "Tracing overhead", "Service cache-hit path"] {
            let start = text
                .find(&format!("\n## {title}"))
                .unwrap_or_else(|| panic!("the generator has no {title:?} section"))
                + 1;
            let end = text[start..]
                .find("\n## ")
                .map_or(text.len(), |i| start + i);
            let section = &text[start..end];
            assert!(
                committed.contains(section),
                "EXPERIMENTS.md differs from the generated {title:?} section:\n{section}"
            );
        }
        // So must the simulator section's sweep paragraph; that section's
        // table still predates the occupancy masks.
        let start = text
            .find("A full 8x8 saturation sweep")
            .expect("the sweep paragraph");
        let end = text[start..].find("\n\n").map_or(text.len(), |i| start + i);
        let paragraph = &text[start..end];
        assert!(
            committed.contains(paragraph),
            "EXPERIMENTS.md differs from the generated sweep paragraph:\n{paragraph}"
        );
    }
}
