//! Runs every table and figure in order.
fn main() {
    print!("{}\n\n", bench::figures::fig1());
    print!("{}\n\n", bench::figures::fig2());
    print!("{}\n\n", bench::figures::fig3());
    print!("{}\n\n", bench::figures::fig4());
    let rows = bench::table2::run_table2(bench::scale());
    println!("Table 2 — unique syscall/sysenter sites logged offline\n");
    print!("{}\n\n", bench::table2::render_table2(&rows));
    println!("Table 3 — interposers vs pitfalls\n");
    print!("{}\n\n", pitfalls::render_matrix(&pitfalls::full_matrix()));
    let n = 2_000_000 / bench::scale();
    println!("Table 5 — microbenchmark overhead (x{n})\n");
    print!("{}\n\n", bench::micro::render_table5(&bench::micro::run_table5(n)));
    println!("Table 6 — macrobenchmarks\n");
    print!("{}", bench::macros_::render_table6(&bench::macros_::run_table6(bench::scale())));
}
