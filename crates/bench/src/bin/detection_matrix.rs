//! Prints the detection matrix: mechanism × attack → detected?
//!
//! ```text
//! cargo run -p refstate-bench --release --bin detection_matrix
//! ```
//!
//! This is the empirical form of the paper's §4 protection-bandwidth
//! analysis; the expected pattern is
//! `refstate_mechanisms::matrix::standard_scenarios`, whose
//! `expected_detectable` flags this binary prints under the matrix.

use refstate_mechanisms::matrix::{detection_matrix, render_matrix, standard_scenarios};

fn main() {
    println!("refstate detection matrix (3-host scenario, attack at the untrusted host)\n");
    let cells = detection_matrix();
    println!("{}", render_matrix(&cells));
    println!("legend: DETECTED = the mechanism flagged the manipulated run");
    println!();
    println!("paper-predicted detectability per scenario:");
    for s in standard_scenarios() {
        println!(
            "  {:<20} {}",
            s.label,
            if s.expected_detectable {
                "detectable by reference states"
            } else {
                "outside the reference-state bandwidth (§4.2)"
            }
        );
    }
}
