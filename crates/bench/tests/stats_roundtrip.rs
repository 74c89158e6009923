//! The counters `wmcc --stats-json` emits must round-trip through the
//! JSON parser the perf binary reads them with: the contract test
//! between the counter document (`Stats::to_json`, rendered by
//! `wm_stream::json`'s writer) and that module's parser. The writer and
//! the parser share no code beyond the string escape rules.

use wm_stream::json::{self, Value};
use wm_stream::{Compiler, MemModel, OptOptions, WmConfig};

fn run_dot_product_config(cfg: &WmConfig) -> wm_stream::RunResult {
    let w = wm_stream::workloads::table2()
        .into_iter()
        .find(|w| w.name == "dot-product")
        .expect("dot-product is a Table II program");
    Compiler::new()
        .options(OptOptions::all().assume_noalias())
        .compile(w.source)
        .expect("compiles")
        .run_wm_config("main", &[], cfg)
        .expect("runs")
}

fn run_dot_product() -> wm_stream::RunResult {
    run_dot_product_config(&WmConfig::default())
}

#[test]
fn stats_json_round_trips_through_the_hand_parser() {
    let r = run_dot_product();
    let stats = &r.perf;
    let doc = json::parse(&stats.to_json()).expect("stats JSON parses");

    assert_eq!(doc.get("cycles").unwrap().as_u64(), Some(stats.cycles));

    // Every unit's counters survive the trip, including the stall
    // breakdown (only nonzero reasons are written).
    for (name, u) in stats.units() {
        let j = doc.get("units").unwrap().get(name).unwrap();
        assert_eq!(
            j.get("retired").unwrap().as_u64(),
            Some(u.retired),
            "{name}"
        );
        assert_eq!(j.get("active").unwrap().as_u64(), Some(u.active), "{name}");
        assert_eq!(j.get("idle").unwrap().as_u64(), Some(u.idle), "{name}");
        let stalls = j.get("stalls").unwrap();
        let mut total = 0;
        if let Value::Obj(m) = stalls {
            for v in m.values() {
                total += v.as_u64().expect("stall counts are integers");
            }
        } else {
            panic!("{name}: stalls is not an object");
        }
        assert_eq!(total, u.stalled(), "{name}: stall breakdown sum");
        // Attribution exactness is visible through the JSON alone.
        let attributed = j.get("active").unwrap().as_u64().unwrap()
            + j.get("idle").unwrap().as_u64().unwrap()
            + total;
        assert_eq!(attributed, stats.cycles, "{name}: attribution via JSON");
    }

    // Streams: per-SCU element counts.
    let scus = doc.get("scus").unwrap().as_arr().unwrap();
    assert_eq!(scus.len(), stats.scus.len());
    for (j, s) in scus.iter().zip(&stats.scus) {
        assert_eq!(j.get("elements_in").unwrap().as_u64(), Some(s.elements_in));
        assert_eq!(
            j.get("elements_out").unwrap().as_u64(),
            Some(s.elements_out)
        );
        assert_eq!(j.get("poisoned").unwrap().as_u64(), Some(s.poisoned));
        assert_eq!(
            j.get("index_fetches").unwrap().as_u64(),
            Some(s.index_fetches)
        );
        assert_eq!(j.get("squashed").unwrap().as_u64(), Some(s.squashed));
    }

    // FIFO occupancy histograms sample every cycle.
    for f in &stats.fifos {
        let hist = doc.get("fifos").unwrap().get(f.name).unwrap();
        let parsed: Vec<u64> = hist
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(parsed, f.depth, "fifo {}", f.name);
        assert_eq!(parsed.iter().sum::<u64>(), stats.cycles, "fifo {}", f.name);
    }

    // Memory-port utilization histogram also covers every cycle.
    let ports: Vec<u64> = doc
        .get("ports")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert_eq!(ports, stats.ports);
    assert_eq!(ports.iter().sum::<u64>(), stats.cycles);
}

#[test]
fn hierarchy_counters_round_trip_through_the_hand_parser() {
    // Under a hierarchical memory model the document gains a "mem"
    // object; the hand parser must read it back exactly, and the
    // stream-buffer occupancy histogram must cover every cycle (the same
    // contract the FIFO histograms obey).
    let r = run_dot_product_config(
        &WmConfig::default().with_mem_model(MemModel::parse("banked").unwrap()),
    );
    let stats = &r.perf;
    let m = stats.mem.as_ref().expect("hierarchical stats present");
    let doc = json::parse(&stats.to_json()).expect("stats JSON parses");
    let j = doc.get("mem").expect("mem object present");
    for (key, val) in [
        ("hits", m.hits),
        ("misses", m.misses),
        ("evictions", m.evictions),
        ("writebacks", m.writebacks),
        ("invalidations", m.invalidations),
        ("sb_hits", m.sb_hits),
        ("sb_misses", m.sb_misses),
        ("sb_prefetches", m.sb_prefetches),
        ("bank_conflicts", m.bank_conflicts),
        ("row_hits", m.row_hits),
        ("row_misses", m.row_misses),
    ] {
        assert_eq!(j.get(key).unwrap().as_u64(), Some(val), "mem.{key}");
    }
    let occ: Vec<u64> = j
        .get("sb_occupancy")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert_eq!(occ, m.sb_occupancy);
    assert_eq!(occ.iter().sum::<u64>(), stats.cycles);
}

#[test]
fn perf_baseline_document_shape_parses() {
    // The same parser reads every bench/baseline/<leg>.json in CI; keep
    // each checked-in file parseable and structurally sound, and named
    // after a leg it records.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baseline");
    let mut legs = 0;
    for file in std::fs::read_dir(&dir).expect("bench/baseline exists") {
        let path = file.expect("readable entry").path();
        let name = path.display();
        let src = std::fs::read_to_string(&path).expect("readable baseline");
        let doc = json::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let leg = doc.get("leg").unwrap_or_else(|| panic!("{name}: no leg"));
        for key in ["suite", "hw", "mem"] {
            assert!(
                leg.get(key).unwrap().as_str().is_some(),
                "{name}: leg {key}"
            );
        }
        assert!(leg.get("tiles").unwrap().as_u64().unwrap() >= 1, "{name}");
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert!(!results.is_empty(), "{name}");
        for e in results {
            assert!(e.get("workload").unwrap().as_str().is_some());
            assert!(e.get("config").unwrap().as_str().is_some());
            assert!(e.get("cycles").unwrap().as_u64().unwrap() > 0);
            // the code pin: static instruction count and listing digest;
            // the counter pin: digest of the pair's counter document
            assert!(e.get("insts").unwrap().as_u64().unwrap() > 0);
            for key in ["code_fnv1a", "counters_fnv1a"] {
                let fnv = e.get(key).unwrap().as_str().unwrap();
                assert!(
                    fnv.len() == 16 && fnv.bytes().all(|b| b.is_ascii_hexdigit()),
                    "{name}: {key}"
                );
            }
        }
        legs += 1;
    }
    // one baseline per CI sim-matrix leg
    assert_eq!(legs, 9, "bench/baseline holds {legs} legs");
}
