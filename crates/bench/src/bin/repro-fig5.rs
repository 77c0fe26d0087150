//! Regenerates the paper's Figure 5; the README's "Reproducing the paper"
//! table lists every `repro-*` binary.

fn main() {
    let mut lab = uaq_bench::lab_from_env();
    print!("{}", uaq_experiments::report::fig5(&mut lab));
}
