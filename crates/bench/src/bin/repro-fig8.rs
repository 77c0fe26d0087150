//! Regenerates the paper's Figure 8; the README's "Reproducing the paper"
//! table lists every `repro-*` binary.

fn main() {
    let mut lab = uaq_bench::lab_from_env();
    print!("{}", uaq_experiments::report::fig8(&mut lab));
}
