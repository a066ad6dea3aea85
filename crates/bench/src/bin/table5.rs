//! Regenerates Table 5: microbenchmark overhead vs native.
fn main() {
    let n = 2_000_000 / bench::scale();
    println!("Table 5 — microbenchmark overhead (nonexistent syscall x{n}, differenced)\n");
    let rows = bench::micro::run_table5(n);
    print!("{}", bench::micro::render_table5(&rows));
}
