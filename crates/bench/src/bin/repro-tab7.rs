//! Regenerates the paper's Table 7; the README's "Reproducing the paper"
//! table lists every `repro-*` binary.

fn main() {
    let mut lab = uaq_bench::lab_from_env();
    print!("{}", uaq_experiments::report::table7(&mut lab));
}
