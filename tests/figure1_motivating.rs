//! Integration test: the paper's Figure-1 motivating example through the
//! public API of the whole workspace.

use pathrep::circuit::cell::{CellKind, CellLibrary};
use pathrep::circuit::generator::PlacedCircuit;
use pathrep::circuit::netlist::{GateId, Netlist, Signal};
use pathrep::circuit::paths::{decompose_into_segments, Path};
use pathrep::circuit::placement::Placement;
use pathrep::core::exact::exact_select;
use pathrep::core::predictor::DEFAULT_KAPPA;
use pathrep::variation::model::VariationModel;
use pathrep::variation::sampler::VariationSampler;
use pathrep::variation::sensitivity::DelayModel;

#[allow(clippy::vec_init_then_push)] // sequential ids read during construction
fn figure1() -> (PlacedCircuit, Vec<Path>) {
    let mut nl = Netlist::new(2);
    let mut g = Vec::<GateId>::new();
    g.push(nl.add_gate(CellKind::Buf, vec![Signal::Input(0)]).unwrap()); // G1
    g.push(nl.add_gate(CellKind::Buf, vec![Signal::Input(1)]).unwrap()); // G2
    g.push(nl.add_gate(CellKind::Inv, vec![Signal::Gate(g[0])]).unwrap()); // G3
    g.push(nl.add_gate(CellKind::Inv, vec![Signal::Gate(g[1])]).unwrap()); // G4
    g.push(
        nl.add_gate(CellKind::Nand2, vec![Signal::Gate(g[2]), Signal::Gate(g[3])])
            .unwrap(),
    ); // G5
    g.push(nl.add_gate(CellKind::Inv, vec![Signal::Gate(g[4])]).unwrap()); // G6
    g.push(nl.add_gate(CellKind::Inv, vec![Signal::Gate(g[4])]).unwrap()); // G7
    g.push(nl.add_gate(CellKind::Buf, vec![Signal::Gate(g[5])]).unwrap()); // G8
    g.push(nl.add_gate(CellKind::Buf, vec![Signal::Gate(g[6])]).unwrap()); // G9
    nl.mark_output(g[7]).unwrap();
    nl.mark_output(g[8]).unwrap();
    let circuit = PlacedCircuit::from_parts(
        nl,
        Placement::new(vec![(0.4, 0.6); 9]),
        CellLibrary::synthetic_90nm(),
    );
    let paths = vec![
        Path::new(vec![g[0], g[2], g[4], g[6], g[8]]).unwrap(),
        Path::new(vec![g[0], g[2], g[4], g[5], g[7]]).unwrap(),
        Path::new(vec![g[1], g[3], g[4], g[5], g[7]]).unwrap(),
        Path::new(vec![g[1], g[3], g[4], g[6], g[8]]).unwrap(),
    ];
    (circuit, paths)
}

#[test]
fn three_paths_predict_the_fourth_exactly() {
    let (circuit, paths) = figure1();
    let dec = decompose_into_segments(&paths).unwrap();
    assert_eq!(dec.segment_count(), 4);
    let model = VariationModel::three_level();
    let dm = DelayModel::build(&circuit, &paths, &dec, &model).unwrap().to_dense();

    let sel = exact_select(dm.a(), dm.mu_paths(), DEFAULT_KAPPA).unwrap();
    assert_eq!(sel.rank, 3, "Figure 1's A has rank 3");
    assert_eq!(sel.selected.len(), 3);
    assert_eq!(sel.remaining.len(), 1);

    // Zero-error prediction on fabricated chips.
    let mut sampler = VariationSampler::new(dm.variable_count(), 1);
    for _ in 0..50 {
        let x = sampler.draw();
        let d = dm.path_delays(&x).unwrap();
        let measured: Vec<f64> = sel.selected.iter().map(|&i| d[i]).collect();
        let pred = sel.predictor.predict(&measured).unwrap();
        assert!((pred[0] - d[sel.remaining[0]]).abs() < 1e-8);
        // The paper's identity, written for path ordering p1..p4.
        assert!((d[0] - (d[1] - d[2] + d[3])).abs() < 1e-9);
    }
}

#[test]
fn rank_is_bounded_by_segment_count() {
    // Lemma 1 on the motivating example: rank(A) ≤ n_S.
    let (circuit, paths) = figure1();
    let dec = decompose_into_segments(&paths).unwrap();
    let model = VariationModel::three_level();
    let dm = DelayModel::build(&circuit, &paths, &dec, &model).unwrap().to_dense();
    let svd = pathrep::linalg::svd::Svd::compute(dm.a()).unwrap();
    assert!(svd.rank(1e-9) <= dec.segment_count());
}
