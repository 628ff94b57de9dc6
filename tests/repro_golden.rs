//! The reproduction golden: every table, figure and ablation `repro`
//! prints is priced from the energy ledger, which no host-side change
//! may move, so `repro 0.01 all` must match
//! `tests/golden/repro_0.01_all.txt` byte for byte. A change that moves
//! a figure on purpose regenerates the golden in the same commit with
//! `scripts/check_repro_golden.sh --bless`.

use ecodb::core::experiments;

const GOLDEN: &str = include_str!("golden/repro_0.01_all.txt");

#[test]
fn repro_all_at_scale_0_01_matches_the_golden() {
    let report = experiments::report(0.01, &["all"]).expect("`all` is a target");
    if report == GOLDEN {
        return;
    }
    let mut got = report.lines();
    let mut want = GOLDEN.lines();
    for line in 1.. {
        match (want.next(), got.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (w, g) => panic!(
                "repro 0.01 all differs from tests/golden/repro_0.01_all.txt at line {line}:\n\
                 golden: {w:?}\n   got: {g:?}\n\
                 if the figure moved on purpose: scripts/check_repro_golden.sh --bless"
            ),
        }
    }
}
