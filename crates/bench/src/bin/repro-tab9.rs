//! Regenerates the paper's Table 9; the README's "Reproducing the paper"
//! table lists every `repro-*` binary.

fn main() {
    let mut lab = uaq_bench::lab_from_env();
    print!("{}", uaq_experiments::report::table9(&mut lab));
}
