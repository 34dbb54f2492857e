//! Ledger contract for the delay-model front end: the delay-model builder
//! writes no record of its own, and the sparse front end reports the CSR
//! model's structure in its one `eval/prepare_sparse` record.
//!
//! This lives in its own integration-test binary (a separate process) so
//! enabling the global ledger cannot interfere with other tests.

use pathrep_eval::pipeline::{prepare_sparse, SparsePipelineConfig};
use pathrep_eval::suite::BenchmarkSpec;
use pathrep_obs::ledger::{self, LedgerRecord};
use pathrep_variation::sensitivity::DelayModel;

#[test]
fn prepare_sparse_records_model_structure_and_builder_records_nothing() {
    let spec = BenchmarkSpec {
        name: "ledger",
        n_gates: 250,
        n_inputs: 20,
        n_outputs: 16,
        model_levels: 3,
        seed: 12,
        depth: None,
    };
    let config = SparsePipelineConfig {
        t_cons_factor: 1.0,
        k_paths: 40,
    };

    ledger::set_collecting(true);
    let pb = prepare_sparse(&spec, &config).expect("sparse pipeline prepares");
    let after_prepare = ledger::records();
    let rebuilt = DelayModel::build(&pb.circuit, &pb.paths, &pb.decomposition, &pb.model)
        .expect("model rebuilds");
    let after_build = ledger::records();
    ledger::set_collecting(false);

    assert_eq!(
        after_build.len(),
        after_prepare.len(),
        "DelayModel::build wrote a ledger record"
    );
    let prepare: Vec<&LedgerRecord> = after_prepare
        .iter()
        .filter(|r| r.stage == "eval" && r.name == "prepare_sparse")
        .collect();
    assert_eq!(prepare.len(), 1, "exactly one eval/prepare_sparse record");
    let rec = prepare[0];
    let dm = &pb.delay_model;
    let fact = |key: &str| rec.num(key).unwrap_or_else(|| panic!("fact {key} missing"));
    assert_eq!(fact("target_paths"), pb.path_count() as f64);
    assert_eq!(fact("segments"), pb.decomposition.segment_count() as f64);
    assert_eq!(fact("variables"), dm.variable_count() as f64);
    assert_eq!(fact("nnz_g"), dm.g().nnz() as f64);
    assert_eq!(fact("nnz_sigma"), dm.sigma().nnz() as f64);
    assert_eq!(fact("nnz_a"), dm.a().nnz() as f64);
    assert_eq!(fact("density_a"), dm.a().density());
    assert_eq!(rebuilt.a().nnz(), dm.a().nnz());
}
